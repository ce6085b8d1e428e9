#ifndef HYPERQ_INGEST_INGEST_H_
#define HYPERQ_INGEST_INGEST_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/live_store.h"
#include "qval/qvalue.h"
#include "sqldb/database.h"

namespace hyperq {
namespace ingest {

/// Tuning knobs for the in-memory live tail (docs/INGEST.md).
struct IngestOptions {
  /// Watermarks: the `upd` that crosses either one flushes the table's
  /// tail into the historical backend inline, on the publisher's thread.
  size_t tail_max_rows = 100000;
  size_t tail_max_bytes = 32u << 20;
};

/// The tickerplant-side store (docs/INGEST.md): per live table, an
/// in-memory columnar tail of sequence-numbered immutable segments (one
/// per accepted `upd` batch), appended to the historical `sqldb` table by
/// Flush. The implicit order column continues from the historical row
/// count, so a live table's (historical + tail) rows are at all times
/// byte-identical to a single table bulk-loaded with the same data — the
/// invariant every hybrid query plan is proven against.
///
/// Locking: one `mu` per table guards the segment list and counters.
/// Flush holds it across the catalog append and the segment clear, and
/// Snapshot captures the catalog table and the segments under it, so a
/// snapshot is always an exact partition of the table. The store runs no
/// thread of its own, and a flush never waits on a reader: readers hold
/// only their snapshot, which no flush mutates (AppendColumns is
/// copy-on-write and segments are immutable).
class IngestStore : public LiveStore {
 public:
  explicit IngestStore(sqldb::Database* db, IngestOptions options = {});

  IngestStore(const IngestStore&) = delete;
  IngestStore& operator=(const IngestStore&) = delete;

  /// Declares an existing catalog table live (its rows so far are the
  /// historical prefix; ingest continues the order column after them).
  /// The first `upd` for an unknown table registers it implicitly,
  /// creating the historical table from the batch schema when absent.
  Status Register(const std::string& table);

  // LiveStore:
  Result<size_t> Upd(const std::string& table, const QValue& data) override;
  Status Flush(const std::string& table) override;
  Status FlushAll() override;
  QValue StatsTable() const override;

  /// True when `table` is ingest-backed (registered or has received upd).
  bool IsLive(const std::string& table) const;
  /// Live table names, sorted.
  std::vector<std::string> LiveTables() const;

  /// One consistent read view of a live table: `historical` is the
  /// catalog's own StoredTable and `tail` the unflushed rows in the same
  /// schema (null when there are none). Together they are exactly the
  /// table's rows at one instant, and no later upd or flush changes them.
  struct TableSnapshot {
    std::shared_ptr<sqldb::StoredTable> historical;
    std::shared_ptr<sqldb::StoredTable> tail;
  };
  Result<TableSnapshot> Snapshot(const std::string& table) const;

  struct TableStats {
    uint64_t rows_ingested = 0;
    uint64_t rows_flushed = 0;
    uint64_t batches = 0;
    uint64_t flushes = 0;
    uint64_t tail_rows = 0;
  };
  TableStats Stats(const std::string& table) const;

 private:
  struct Segment {
    std::vector<sqldb::ColumnPtr> cols;  ///< schema-aligned, ordcol last
    size_t rows = 0;
    size_t bytes = 0;    ///< rough heap footprint
    uint64_t seq = 0;    ///< batch sequence number
  };

  struct LiveTable {
    mutable std::mutex mu;
    std::vector<std::shared_ptr<const Segment>> segments;
    uint64_t next_seq = 0;
    int64_t next_ord = 0;  ///< continues past the historical rows
    uint64_t rows_ingested = 0;
    uint64_t rows_flushed = 0;
    uint64_t batches = 0;
    uint64_t flushes = 0;
    size_t tail_rows = 0;
    size_t tail_bytes = 0;
    std::vector<sqldb::TableColumn> schema;  ///< includes ordcol (last)
    std::vector<std::string> key_columns;
  };

  /// Finds the live table; registers it on demand (adopting the catalog
  /// schema, or creating the historical table from `batch` when given).
  Result<LiveTable*> GetOrRegister(const std::string& table,
                                   const QValue* batch);
  LiveTable* Find(const std::string& table) const;
  Status FlushLocked(const std::string& name, LiveTable* lt);
  void UpdateTailGauge(int64_t delta);

  sqldb::Database* db_;
  IngestOptions options_;
  mutable std::mutex mu_;  ///< guards tables_ (map structure only)
  std::map<std::string, std::unique_ptr<LiveTable>> tables_;
  std::atomic<int64_t> total_tail_rows_{0};
};

}  // namespace ingest
}  // namespace hyperq

#endif  // HYPERQ_INGEST_INGEST_H_
