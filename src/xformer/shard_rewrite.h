#ifndef HYPERQ_XFORMER_SHARD_REWRITE_H_
#define HYPERQ_XFORMER_SHARD_REWRITE_H_

#include <functional>
#include <optional>
#include <string>

#include "xtra/operator.h"

namespace hyperq {

/// How one backend table is distributed across shards.
struct ShardTableInfo {
  /// The hash-partitioning column (e.g. Symbol for trade/quote): every row
  /// of one partition-column value lives wholly on one shard.
  std::string partition_column;
};

/// Resolves a base table to its partitioning info; nullopt when the table
/// is not partitioned (replicated, temp, or the backend is not sharded).
using ShardInfoFn =
    std::function<std::optional<ShardTableInfo>(const std::string&)>;

/// Partition column of a live table (docs/INGEST.md), whose two parts (the
/// historical rows and the pinned tail) are split by the flush boundary,
/// not by a column. No query can name it, so kAligned and routing are
/// unreachable: a symbol's rows straddle the boundary by construction.
inline constexpr char kLivePartitionColumn[] = "\x01hq_live_boundary";

/// Name of the transient table the coordinator loads the concatenated
/// per-shard partial results into before running the merge query.
inline constexpr char kShardPartialsTable[] = "__hq_partials";

/// How a translated query distributes across shards (docs/SCALE_OUT.md).
enum class ShardMode {
  kNone,     ///< not distributable: execute on the fallback backend
  kOrdered,  ///< scan/filter/project [sort] [limit]: merge re-sorts by the
             ///< implicit order column (plus any explicit sort keys)
  kAligned,  ///< grouped by the partition column: groups never span shards,
             ///< merge only re-sorts by the (totally ordering) group keys
  kTwoPhase  ///< decomposable aggregates: per-shard partial aggregates,
             ///< merge-aggregate recombines (sum of sums, sum of counts...)
};

const char* ShardModeName(ShardMode mode);

/// The planned distribution of one result query: the per-shard partial
/// tree (null when the translated result SQL already is the correct
/// per-shard query) and the merge tree executed over kShardPartialsTable.
struct ShardRewrite {
  ShardMode mode = ShardMode::kNone;
  std::string table;       ///< the hash-partitioned base table
  xtra::XtraPtr partial;   ///< null => reuse the serialized result SQL
  xtra::XtraPtr merge;     ///< always set when mode != kNone
  /// Partition routing: when the query's filters pin the partition column
  /// to one symbol constant, every qualifying row lives on the shard that
  /// owns that value — the coordinator scatters to that single shard and
  /// the merge is unchanged (the other shards would only contribute empty
  /// partials, which every merge shape absorbs).
  bool routed = false;
  std::string route_key;   ///< the pinned partition-column symbol
};

/// Classifies a transformed XTRA tree against the three distributable
/// shapes. Conservative by construction: any shape whose sharded execution
/// is not provably byte-identical to the single-backend run (joins,
/// windows, DISTINCT, non-decomposable or float-summing aggregates,
/// group orders the merge cannot reconstruct) returns mode kNone and the
/// gateway falls back: a sharded coordinator to its full-copy backend, a
/// live gateway to a merged historical+tail snapshot.
ShardRewrite PlanShardRewrite(const xtra::XtraPtr& root,
                              const ShardInfoFn& info);

}  // namespace hyperq

#endif  // HYPERQ_XFORMER_SHARD_REWRITE_H_
