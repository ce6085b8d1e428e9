#ifndef HYPERQ_CORE_LIVE_STORE_H_
#define HYPERQ_CORE_LIVE_STORE_H_

#include <string>

#include "common/status.h"
#include "qval/qvalue.h"

namespace hyperq {

/// The write-side contract between the core layers (endpoint `upd`
/// dispatch, `.hyperq.*` builtins) and the ingest subsystem
/// (src/ingest, docs/INGEST.md). An abstract interface so hq_core does
/// not depend on hq_ingest: gateways that serve live tables return their
/// IngestStore through BackendGateway::live_store().
class LiveStore {
 public:
  virtual ~LiveStore() = default;

  /// Applies one tickerplant `upd` batch to `table`'s in-memory tail.
  /// `data` is a Q table (columns matched by name) or a column list
  /// (positional). Returns the number of rows appended. All-or-nothing:
  /// a failed batch leaves the tail untouched.
  virtual Result<size_t> Upd(const std::string& table,
                             const QValue& data) = 0;

  /// Migrates `table`'s tail segments into the historical backend.
  virtual Status Flush(const std::string& table) = 0;

  /// Flushes every live table; returns the first error (all tables are
  /// still attempted).
  virtual Status FlushAll() = 0;

  /// Per-table ingest counters as a Q table (columns: table, rows,
  /// batches, flushes, tail_rows, rows_flushed) for `.hyperq.ingestStats`.
  virtual QValue StatsTable() const = 0;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_LIVE_STORE_H_
