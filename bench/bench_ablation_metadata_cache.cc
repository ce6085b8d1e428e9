// Ablation A1: the metadata cache (§6: "Hyper-Q provides a configurable
// metadata caching mechanism ... Our experiments are conducted with
// metadata caching enabled").
//
// §3.2.1: "determining a variable type may require a round trip to the PG
// database for metadata lookup". To reproduce that cost honestly, this
// bench routes every uncached metadata lookup through a real PG v3 wire
// round trip (a LIMIT-0 probe against the backend server over TCP), then
// measures translation latency with the cache warm, cold and disabled.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "bench/workload.h"
#include "core/hyperq.h"
#include "core/metadata_cache.h"
#include "protocol/pgwire/pgwire.h"

namespace hyperq {
namespace bench {
namespace {

/// MDI that pays a genuine catalog round trip (PG v3 over TCP) per lookup,
/// as the paper's Hyper-Q does against a remote Greenplum; the structural
/// metadata (keys) still comes from the direct catalog.
class WireMetadata : public MetadataInterface {
 public:
  WireMetadata(pgwire::PgWireClient* client, MetadataInterface* direct)
      : client_(client), direct_(direct) {}

  Result<TableMetadataPtr> LookupTable(const std::string& name) override {
    // The catalog round trip the cache is designed to avoid.
    HQ_RETURN_IF_ERROR(
        client_->Query("SELECT * FROM \"" + name + "\" LIMIT 0").status());
    return direct_->LookupTable(name);
  }
  bool HasTable(const std::string& name) override {
    return direct_->HasTable(name);
  }

 private:
  pgwire::PgWireClient* client_;
  MetadataInterface* direct_;
};

struct Env {
  sqldb::Database db;
  pgwire::PgWireServer server{&db, pgwire::ServerOptions{}};
  std::unique_ptr<pgwire::PgWireClient> client;
  std::unique_ptr<SqldbMetadata> direct;
  std::unique_ptr<WireMetadata> wire;

  Env() {
    if (!LoadAnalyticalWorkload(&db, WorkloadOptions{}).ok()) std::abort();
    if (!server.Start(0).ok()) std::abort();
    auto c = pgwire::PgWireClient::Connect("127.0.0.1", server.port(),
                                           "hyperq", "");
    if (!c.ok()) std::abort();
    client = std::make_unique<pgwire::PgWireClient>(std::move(*c));
    direct = std::make_unique<SqldbMetadata>(&db, nullptr);
    wire = std::make_unique<WireMetadata>(client.get(), direct.get());
  }
};

Env* SharedEnv() {
  static Env* env = new Env();
  return env;
}

const std::string& JoinHeavyQuery() {
  static const std::string* q =
      new std::string(AnalyticalQueries()[9]);  // q10: three-table join
  return *q;
}

struct Translator {
  MetadataCache cache;
  VariableScopes scopes;
  QueryTranslator qt;

  explicit Translator(MetadataCache::Options copts)
      : cache(SharedEnv()->wire.get(), copts),
        scopes(&cache),
        qt(&cache, &scopes, QueryTranslator::Options{},
           [](const std::string&) { return Status::OK(); }) {}
};

void BM_TranslateCacheWarm(benchmark::State& state) {
  Translator t(MetadataCache::Options{});
  (void)t.qt.Translate(JoinHeavyQuery());  // warm
  for (auto _ : state) {
    auto r = t.qt.Translate(JoinHeavyQuery());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateCacheWarm)->Unit(benchmark::kMillisecond);

void BM_TranslateCacheCold(benchmark::State& state) {
  Translator t(MetadataCache::Options{});
  for (auto _ : state) {
    t.cache.Invalidate();
    auto r = t.qt.Translate(JoinHeavyQuery());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateCacheCold)->Unit(benchmark::kMillisecond);

void BM_TranslateCacheDisabled(benchmark::State& state) {
  MetadataCache::Options copts;
  copts.enabled = false;
  Translator t(copts);
  for (auto _ : state) {
    auto r = t.qt.Translate(JoinHeavyQuery());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TranslateCacheDisabled)->Unit(benchmark::kMillisecond);

/// Cache-hit ratio over the full 25-query workload.
void BM_WorkloadWithCacheStats(benchmark::State& state) {
  Translator t(MetadataCache::Options{});
  auto queries = AnalyticalQueries();
  for (auto _ : state) {
    for (const auto& q : queries) {
      auto r = t.qt.Translate(q);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    }
  }
  const auto& stats = t.cache.stats();
  state.counters["lookups"] = static_cast<double>(stats.lookups);
  state.counters["hit_ratio"] =
      stats.lookups == 0
          ? 0
          : static_cast<double>(stats.hits) / stats.lookups;
}
BENCHMARK(BM_WorkloadWithCacheStats)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace hyperq

HQ_BENCH_MAIN();
