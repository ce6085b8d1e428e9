#ifndef HYPERQ_CORE_HYPERQ_H_
#define HYPERQ_CORE_HYPERQ_H_

#include <memory>
#include <optional>
#include <string>

#include "core/cross_compiler.h"
#include "core/gateway.h"
#include "core/loader.h"
#include "core/mdi.h"
#include "core/metadata_cache.h"
#include "core/query_translator.h"
#include "core/translation_cache.h"

namespace hyperq {

/// One Hyper-Q client session bound to a backend database: the composition
/// root wiring Figure 1 together for in-process use — scopes, MDI + cache,
/// Query Translator, Gateway and Cross Compiler. The network endpoints
/// (QIPC server / PG wire) wrap this same object.
class HyperQSession {
 public:
  struct Options {
    QueryTranslator::Options translator;
    MetadataCache::Options cache;
    /// Options for the session-owned translation cache (ignored when a
    /// shared cache is supplied).
    TranslationCache::Options translation_cache;
    /// A server-owned cache shared across sessions; null means the
    /// session creates its own. The owner is responsible for setting the
    /// shared cache's version provider.
    TranslationCache* shared_translation_cache = nullptr;
  };

  explicit HyperQSession(sqldb::Database* backend)
      : HyperQSession(backend, Options()) {}

  HyperQSession(sqldb::Database* backend, Options options)
      : HyperQSession(std::make_unique<DirectGateway>(backend),
                      std::move(options)) {}

  /// Composition over an arbitrary gateway (e.g. the sharded coordinator).
  /// The gateway must expose an in-process database()/session() pair — the
  /// MDI reads catalog metadata through them.
  HyperQSession(std::unique_ptr<BackendGateway> gateway, Options options)
      : gateway_(std::move(gateway)),
        raw_mdi_(gateway_->database(), gateway_->session()),
        cache_(&raw_mdi_, options.cache),
        scopes_(&cache_),
        translator_(&cache_, &scopes_,
                    WithShardInfo(std::move(options.translator),
                                  gateway_.get()),
                    [this](const std::string& sql) -> Status {
                      Result<sqldb::QueryResult> r = gateway_->Execute(sql);
                      return r.ok() ? Status::OK() : r.status();
                    }),
        xc_(&translator_, gateway_.get()) {
    cache_.SetVersionProvider(
        [this]() { return raw_mdi_.CatalogVersion(); });
    if (options.shared_translation_cache != nullptr) {
      tcache_ = options.shared_translation_cache;
    } else {
      owned_tcache_ =
          std::make_unique<TranslationCache>(options.translation_cache);
      owned_tcache_->SetVersionProvider(
          [this]() { return raw_mdi_.CatalogVersion(); });
      tcache_ = owned_tcache_.get();
    }
    translator_.set_translation_cache(tcache_);
    // Explicitly invalidated metadata drops the translations built on it.
    cache_.SetInvalidationListener([this](const std::string* table) {
      if (table != nullptr) {
        tcache_->InvalidateTable(*table);
      } else {
        tcache_->Clear();
      }
    });
  }

  /// Full query life cycle: Q text in, Q value out. Recognizes the
  /// `.hyperq.*` introspection builtins (e.g. `.hyperq.stats[]`), which are
  /// answered from the metrics registry without touching the translator, so
  /// unchanged kdb+ tooling can scrape Hyper-Q like any other q process.
  Result<QValue> Query(const std::string& q_text);

  /// Translation only (no final execution); setup statements for
  /// materialized variables still execute eagerly (§4.3).
  Result<Translation> Translate(const std::string& q_text) {
    return translator_.Translate(q_text);
  }

  /// Promotes session variables to the server scope (§3.2.3: "Session
  /// variables are promoted to global (server) variables ... as part of
  /// the session scope destruction"). Materialized variables become
  /// durable backend tables named after the variable.
  Status Close();

  const StageTimings& last_timings() const { return last_timings_; }
  const std::string& last_sql() const { return last_sql_; }

  /// Per-session query deadline in milliseconds; 0 = none. Set over the
  /// wire with `.hyperq.deadline[ms]`. The serving endpoint arms an
  /// ambient Deadline from this before each query.
  int64_t deadline_ms() const { return deadline_ms_; }
  void set_deadline_ms(int64_t ms) { deadline_ms_ = ms < 0 ? 0 : ms; }

  MetadataCache& metadata_cache() { return cache_; }
  TranslationCache& translation_cache() { return *tcache_; }
  VariableScopes& scopes() { return scopes_; }
  BackendGateway& gateway() { return *gateway_; }

  /// The metrics snapshot as a Q table (schema documented in
  /// docs/OBSERVABILITY.md): columns metric, kind, count, sum_us, p50_us,
  /// p95_us, p99_us.
  static QValue StatsTable();

 private:
  /// Handles `.hyperq.*` builtins; returns nullopt for ordinary queries.
  std::optional<Result<QValue>> TryBuiltin(const std::string& q_text);

  /// Routes the translator's partitioning lookups through the gateway: a
  /// sharded gateway answers for its partitioned tables, a live one for
  /// its ingest-backed tables, a plain one nullopt for every table.
  static QueryTranslator::Options WithShardInfo(
      QueryTranslator::Options options, BackendGateway* gateway) {
    if (!options.shard_info) {
      options.shard_info =
          [gateway](const std::string& table) {
            return gateway->ShardInfo(table);
          };
    }
    return options;
  }

  std::unique_ptr<BackendGateway> gateway_;
  SqldbMetadata raw_mdi_;
  MetadataCache cache_;
  VariableScopes scopes_;
  QueryTranslator translator_;
  CrossCompiler xc_;
  std::unique_ptr<TranslationCache> owned_tcache_;
  TranslationCache* tcache_ = nullptr;
  StageTimings last_timings_;
  std::string last_sql_;
  int64_t deadline_ms_ = 0;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_HYPERQ_H_
