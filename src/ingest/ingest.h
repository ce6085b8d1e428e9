#ifndef HYPERQ_INGEST_INGEST_H_
#define HYPERQ_INGEST_INGEST_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/live_store.h"
#include "qval/qvalue.h"
#include "sqldb/database.h"

namespace hyperq {
namespace ingest {

/// Tuning knobs for the in-memory live tail (docs/INGEST.md).
struct IngestOptions {
  /// Watermarks: crossing either one triggers a flush of the table's tail
  /// into the historical backend (inline when no background flusher runs,
  /// otherwise the flusher is kicked).
  size_t tail_max_rows = 100000;
  size_t tail_max_bytes = 32u << 20;
  /// Background flush period; 0 disables the flusher thread (flushes then
  /// happen inline at watermark crossings or via Flush/FlushAll).
  int flush_interval_ms = 0;
};

/// The tickerplant-side store (docs/INGEST.md): per live table, an
/// in-memory columnar tail of sequence-numbered immutable segments (one
/// per accepted `upd` batch), appended to the historical `sqldb` table by
/// Flush. The implicit order column continues from the historical row
/// count, so a live table's (historical + tail) rows are at all times
/// byte-identical to a single table bulk-loaded with the same data — the
/// invariant every hybrid query plan is proven against.
///
/// Locking: per table, `epoch_mu` (shared_mutex) serializes flushes
/// against in-flight hybrid readers — a reader pins the flush boundary
/// for the whole split execution by holding it shared (TailPin), so the
/// historical part it scans and the tail it captured never overlap or
/// leave a gap. `mu` guards the segment list and counters and is only
/// ever held briefly. Order: epoch_mu before mu.
class IngestStore : public LiveStore {
 public:
  explicit IngestStore(sqldb::Database* db, IngestOptions options = {});
  ~IngestStore() override;

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
  bool IsLive(const std::string& table) const override;
  bool HasTail(const std::string& table) const override;
  std::vector<std::string> LiveTables() const override;
  QValue StatsTable() const override;

  /// Starts/stops the background flusher (no-op when flush_interval_ms is
  /// 0 or it is already running). The destructor stops it.
  void Start();
  void Stop();

  /// A pinned read snapshot of one table's tail: holds the table's epoch
  /// lock shared, so no flush can move the boundary while the caller
  /// executes the historical part against the catalog and the tail part
  /// against table() — together they cover exactly the table's rows.
  class TailPin {
   public:
    TailPin() = default;
    TailPin(TailPin&&) = default;
    TailPin& operator=(TailPin&&) = default;

    /// The tail rows as a StoredTable in the live table's schema; null
    /// when the tail was empty at pin time.
    const std::shared_ptr<sqldb::StoredTable>& table() const {
      return table_;
    }

   private:
    friend class IngestStore;
    std::shared_lock<std::shared_mutex> lock_;
    std::shared_ptr<sqldb::StoredTable> table_;
  };

  /// Pins `table`'s tail for a hybrid split execution. For non-live
  /// tables the pin is empty (null table, no lock).
  TailPin PinTail(const std::string& table);

  /// One consistent (historical + tail) snapshot of the table, built as a
  /// fresh StoredTable — the merged-fallback execution path for query
  /// shapes the split planner cannot decompose (as-of joins probing both
  /// sides of the flush boundary, windows, ...). Atomic against flushes.
  Result<std::shared_ptr<sqldb::StoredTable>> MergedTable(
      const std::string& table);

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
    mutable std::shared_mutex epoch_mu;
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
    std::vector<std::string> sort_keys;
    std::vector<std::string> key_columns;
  };

  /// Finds the live table; registers it on demand (adopting the catalog
  /// schema, or creating the historical table from `batch` when given).
  Result<LiveTable*> GetOrRegister(const std::string& table,
                                   const QValue* batch);
  LiveTable* Find(const std::string& table) const;
  Status FlushLocked(const std::string& name, LiveTable* lt);
  void UpdateTailGauge(int64_t delta);
  void FlusherMain();

  sqldb::Database* db_;
  IngestOptions options_;
  mutable std::mutex mu_;  ///< guards tables_ (map structure only)
  std::map<std::string, std::unique_ptr<LiveTable>> tables_;
  std::atomic<int64_t> total_tail_rows_{0};

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  std::thread flusher_;
  bool flusher_running_ = false;
  bool flusher_stop_ = false;
  bool flush_kicked_ = false;
};

}  // namespace ingest
}  // namespace hyperq

#endif  // HYPERQ_INGEST_INGEST_H_
