#ifndef HYPERQ_CORE_QUERY_TRANSLATOR_H_
#define HYPERQ_CORE_QUERY_TRANSLATOR_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "algebrizer/binder.h"
#include "algebrizer/scopes.h"
#include "common/status.h"
#include "xformer/shard_rewrite.h"
#include "xformer/xformer.h"

namespace hyperq {

class TranslationCache;

/// How Q variable assignments are materialized in the backend (§4.3).
enum class MaterializeMode {
  kPhysical,  ///< CREATE TEMPORARY TABLE ... AS (always correct)
  kLogical,   ///< CREATE TEMPORARY VIEW ... AS (cheaper, re-evaluates)
};

/// Wall-clock time spent in each translation stage, for Figures 6 and 7.
/// The stages are consecutive laps of one clock, so they add up to the
/// translation's wall time; a stage's time includes freeing what it built
/// (the AST, the XTRA tree).
struct StageTimings {
  double parse_us = 0;
  double bind_us = 0;  ///< algebrization (incl. metadata lookups)
  double xform_us = 0;  ///< optimization, including the shard plan rewrite
  double serialize_us = 0;  ///< result SQL and the shard plan's SQL
  /// Translation-cache work of a translation that missed: the lookup and,
  /// after the cold translation, the insert.
  double cache_us = 0;
  double total_us() const {
    return parse_us + bind_us + xform_us + serialize_us + cache_us;
  }
};

/// How a translated result query distributes over a table's parts: shards
/// (docs/SCALE_OUT.md) or a live table's historical rows and tail
/// (docs/INGEST.md). Planned at translation time; a gateway with neither
/// simply ignores it.
struct ShardPlan {
  ShardMode mode = ShardMode::kNone;
  std::string table;        ///< the partitioned (or live) base table
  std::string partial_sql;  ///< per-shard SQL; empty = result_sql verbatim
  std::string merge_sql;    ///< runs over the concatenated partials table
  /// Partition routing: the filters pin the partition column to this one
  /// symbol, so the coordinator scatters to the owning shard only.
  bool routed = false;
  std::string route_key;
};

/// The output of translating one Q request: any setup statements that were
/// eagerly executed against the backend (materialized variables), the final
/// result query, and how to re-shape its rows into a Q value.
struct Translation {
  std::vector<std::string> setup_sql;  ///< already executed eagerly
  std::string result_sql;              ///< empty for pure assignments
  ResultShape shape = ResultShape::kTable;
  std::vector<std::string> key_columns;
  ShardPlan shard;
  StageTimings timings;
  /// True when the translation was served from the translation cache; the
  /// per-stage timings above are then zero.
  bool cache_hit = false;
};

/// The Query Translator of the Cross Compiler (§3.4): drives Q text through
/// the Algebrizer, Xformer and Serializer, managing the variable-scope
/// hierarchy, eager materialization of assignments and unrolling of user
/// functions (§4.3, §5).
class QueryTranslator {
 public:
  struct Options {
    Xformer::Options xformer;
    MaterializeMode materialize = MaterializeMode::kPhysical;
    /// Partitioning oracle for the backend's tables (sharded or live).
    /// When set, every result query is classified against the
    /// distributable shapes and carries a ShardPlan for the gateway.
    ShardInfoFn shard_info;
  };

  /// `execute_backend` runs a setup statement against the backend
  /// immediately (eager materialization requires in-situ execution).
  using BackendExec = std::function<Status(const std::string& sql)>;

  QueryTranslator(MetadataInterface* mdi, VariableScopes* scopes,
                  Options options, BackendExec execute_backend)
      : mdi_(mdi),
        scopes_(scopes),
        options_(options),
        execute_backend_(std::move(execute_backend)) {}

  /// Translates a full Q request (one or more ';'-separated statements).
  Result<Translation> Translate(const std::string& q_text);

  /// Attaches a (usually server-shared) translation cache. Null detaches.
  void set_translation_cache(TranslationCache* cache) { cache_ = cache; }
  TranslationCache* translation_cache() const { return cache_; }

 private:
  Status ProcessAssignment(const AstPtr& stmt, Binder* binder,
                           Translation* out);
  Status ProcessFunctionCall(const AstNode& apply, Binder* binder,
                             Translation* out);
  /// Binds, transforms, serializes and plans the result query.
  Status EmitResultQuery(const AstPtr& expr, Binder* binder,
                         Translation* out);
  /// Charges the time since the previous lap to `stage` and starts the
  /// next lap. A translation's stages are consecutive laps of one clock
  /// started by Translate, so they add up to the whole translation.
  void Lap(double* stage);
  Status MaterializeQuery(const std::string& var_name, const AstPtr& expr,
                          Binder* binder, Translation* out);

  /// True for `f[...]` statements where f resolves to a stored function:
  /// those are unrolled, and (unrolling has side effects) never cached.
  bool IsFunctionInvocation(const AstPtr& stmt) const;

  std::string NextTempName();

  MetadataInterface* mdi_;
  VariableScopes* scopes_;
  Options options_;
  BackendExec execute_backend_;
  TranslationCache* cache_ = nullptr;
  int temp_counter_ = 0;
  std::chrono::steady_clock::time_point lap_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_QUERY_TRANSLATOR_H_
