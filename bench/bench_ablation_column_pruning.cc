// Ablation A2: the Xformer's column-pruning rule (§3.3 "Performance": "A
// transformation that prunes the columns of each XTRA node ... is used to
// avoid bloating the serialized SQL with unnecessary columns, which may
// negatively impact query performance"). The binder already scans only
// the columns a statement with a column list references, so the ablation
// goes through `xcol`, which renames by position and binds every column:
// with the rule disabled, the serialized SQL drags all 500 columns of the
// wide table through the executor.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "bench/workload.h"
#include "core/hyperq.h"

namespace hyperq {
namespace bench {
namespace {

sqldb::Database* SharedDb() {
  static sqldb::Database* db = []() {
    auto* d = new sqldb::Database();
    Status s = LoadAnalyticalWorkload(d, WorkloadOptions{});
    if (!s.ok()) std::abort();
    return d;
  }();
  return db;
}

// A narrow aggregate over the renamed 500-column fact table joined to its
// dimension: pruning keeps 3 of the fact columns alive in the join's input;
// without it the whole width flows through that derived table.
const char kQuery[] =
    "select s: sum f0, mx: max d1 by sym from (`sym`time xcol wide_facts) "
    "lj wide_dims";

void RunWith(benchmark::State& state, bool pruning) {
  HyperQSession::Options opts;
  opts.translator.xformer.column_pruning = pruning;
  HyperQSession session(SharedDb(), opts);
  auto t = session.Translate(kQuery);
  if (!t.ok()) {
    state.SkipWithError(t.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = session.gateway().Execute(t->result_sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["sql_bytes"] = static_cast<double>(t->result_sql.size());
}

void BM_ExecutePruned(benchmark::State& state) { RunWith(state, true); }
BENCHMARK(BM_ExecutePruned)->Unit(benchmark::kMillisecond);

void BM_ExecuteUnpruned(benchmark::State& state) { RunWith(state, false); }
BENCHMARK(BM_ExecuteUnpruned)->Unit(benchmark::kMillisecond);

// Serialization cost also scales with the column count kept alive. The
// translation cache stays off here: these loops measure real translation.
void BM_SerializePruned(benchmark::State& state) {
  HyperQSession::Options opts;
  opts.translation_cache.enabled = false;
  HyperQSession session(SharedDb(), opts);
  for (auto _ : state) {
    auto t = session.Translate(kQuery);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SerializePruned);

void BM_SerializeUnpruned(benchmark::State& state) {
  HyperQSession::Options opts;
  opts.translator.xformer.column_pruning = false;
  opts.translation_cache.enabled = false;
  HyperQSession session(SharedDb(), opts);
  for (auto _ : state) {
    auto t = session.Translate(kQuery);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SerializeUnpruned);

}  // namespace
}  // namespace bench
}  // namespace hyperq

HQ_BENCH_MAIN();
