// Fused-kernel execution vs the interpreted columnar executor on the hot
// filter+aggregate and filter+project shapes (same 1M-row fixture as
// bench_backend_exec), plus the cold-compile overhead of a kernel cache
// miss. The ISSUE gate compares BM_KernelFilterAggregate against
// BM_InterpFilterAggregate at 1 and 4 threads (>=2x, scripts/bench.sh).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_main.h"

#include "common/metrics.h"
#include "common/worker_pool.h"
#include "core/hyperq.h"
#include "sqldb/database.h"
#include "sqldb/kernel.h"
#include "sqldb/session.h"
#include "sqldb/sql_parser.h"
#include "testing/market_data.h"

namespace hyperq {
namespace bench {
namespace {

using sqldb::Column;
using sqldb::Database;
using sqldb::Session;
using sqldb::SqlType;
using sqldb::StoredTable;
using sqldb::TableColumn;

constexpr size_t kRows = 1 << 20;  // 1M fact rows, matching bench_backend_exec
constexpr size_t kSyms = 16;

Database& Fixture() {
  static Database* db = [] {
    auto* d = new Database();
    testing::Rng rng(42);
    StoredTable facts;
    facts.name = "facts";
    facts.columns = {TableColumn{"sym", SqlType::kVarchar},
                     TableColumn{"px", SqlType::kDouble},
                     TableColumn{"qty", SqlType::kBigInt}};
    std::vector<std::string> syms(kRows);
    std::vector<double> px(kRows);
    std::vector<int64_t> qty(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      syms[r] = "S" + std::to_string(rng.Below(kSyms));
      px[r] = rng.NextDouble() * 1000.0;
      qty[r] = static_cast<int64_t>(rng.Below(10000));
    }
    facts.data = {Column::FromStrings(SqlType::kVarchar, std::move(syms)),
                  Column::FromFloats(SqlType::kDouble, std::move(px)),
                  Column::FromInts(SqlType::kBigInt, std::move(qty))};
    facts.row_count = kRows;
    if (!d->CreateAndLoad(std::move(facts)).ok()) std::abort();
    return d;
  }();
  return *db;
}

const char kFilterAggSql[] =
    "SELECT sym, SUM(px) AS s, COUNT(*) AS n FROM facts "
    "WHERE qty > 1000 GROUP BY sym";
const char kFilterProjectSql[] =
    "SELECT sym, px, qty FROM facts WHERE px > 500.0";

void RunQueryBench(benchmark::State& state, const std::string& sql,
                   bool kernels) {
  Database& db = Fixture();
  db.kernel_registry().set_enabled(kernels);
  Session session;
  WorkerPool::Shared().Resize(static_cast<size_t>(state.range(0)) - 1);
  for (auto _ : state) {
    auto r = db.Execute(&session, sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->data);
  }
  WorkerPool::Shared().Resize(0);
  db.kernel_registry().set_enabled(true);
  state.SetItemsProcessed(state.iterations() * kRows);
}

void BM_KernelFilterAggregate(benchmark::State& state) {
  RunQueryBench(state, kFilterAggSql, /*kernels=*/true);
}
BENCHMARK(BM_KernelFilterAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_InterpFilterAggregate(benchmark::State& state) {
  RunQueryBench(state, kFilterAggSql, /*kernels=*/false);
}
BENCHMARK(BM_InterpFilterAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_KernelFilterProject(benchmark::State& state) {
  RunQueryBench(state, kFilterProjectSql, /*kernels=*/true);
}
BENCHMARK(BM_KernelFilterProject)->Arg(1)->Arg(4);

void BM_InterpFilterProject(benchmark::State& state) {
  RunQueryBench(state, kFilterProjectSql, /*kernels=*/false);
}
BENCHMARK(BM_InterpFilterProject)->Arg(1)->Arg(4);

// ---------------------------------------------------------------------------
// End-to-end translated-Q family: Q text -> cross-compiler -> backend. The
// table mirrors the Q loader's output (an `ordcol` scan-order column and the
// matching sort key), so the serializer emits flat single-table SELECTs
// with the final q-order `ORDER BY "ordcol"` on the same block — the
// shapes the kernel takes as written, with the sort elided over the scan
// order. scripts/bench.sh gates `kernel_hit_rate` >= 0.8 from
// BM_TranslatedQKernel.

constexpr size_t kQRows = 1 << 20;
constexpr size_t kQSyms = 16;

struct TranslatedFixture {
  Database db;
  std::unique_ptr<HyperQSession> session;
};

TranslatedFixture& QFixture() {
  static TranslatedFixture* f = [] {
    auto* t = new TranslatedFixture();
    testing::Rng rng(43);
    StoredTable trades;
    trades.name = "trades";
    trades.columns = {TableColumn{"ordcol", SqlType::kBigInt},
                      TableColumn{"Sym", SqlType::kVarchar},
                      TableColumn{"Price", SqlType::kDouble},
                      TableColumn{"Size", SqlType::kBigInt}};
    std::vector<int64_t> ord(kQRows);
    std::vector<std::string> syms(kQRows);
    std::vector<double> px(kQRows);
    std::vector<int64_t> sz(kQRows);
    for (size_t r = 0; r < kQRows; ++r) {
      ord[r] = static_cast<int64_t>(r);
      syms[r] = "S" + std::to_string(rng.Below(kQSyms));
      px[r] = rng.NextDouble() * 1000.0;
      sz[r] = static_cast<int64_t>(rng.Below(10000));
    }
    trades.data = {Column::FromInts(SqlType::kBigInt, std::move(ord)),
                   Column::FromStrings(SqlType::kVarchar, std::move(syms)),
                   Column::FromFloats(SqlType::kDouble, std::move(px)),
                   Column::FromInts(SqlType::kBigInt, std::move(sz))};
    trades.row_count = kQRows;
    trades.sort_keys = {"ordcol"};
    if (!t->db.CreateAndLoad(std::move(trades)).ok()) std::abort();
    t->session = std::make_unique<HyperQSession>(&t->db);
    return t;
  }();
  return *f;
}

/// The hot dashboard family (§2.1 shapes): plain scans with literal
/// filters, symbol membership, grouped aggregates, a scalar aggregate, and
/// sort+take paging.
const char* const kHotQQueries[] = {
    "select Sym, Price, Size from trades where Price>500.0",
    "select from trades where Sym=`S3",
    "select Sym, Price from trades where Sym in `S1`S2`S5",
    "select s: sum Price, n: count Price by Sym from trades where Size>1000",
    "select hi: max Price, lo: min Price by Sym from trades",
    "exec avg Price from trades where Sym=`S7",
    "10#`Price xdesc trades",
    "select[25;>Size] from trades",
};

void RunTranslatedBench(benchmark::State& state, bool kernels) {
  TranslatedFixture& f = QFixture();
  f.db.kernel_registry().set_enabled(kernels);
  WorkerPool::Shared().Resize(static_cast<size_t>(state.range(0)) - 1);
  // Warm both caches (translation + kernel): the subject is the hot path.
  for (const char* q : kHotQQueries) {
    auto r = f.session->Query(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      WorkerPool::Shared().Resize(0);
      return;
    }
  }
  Counter* hits = MetricsRegistry::Global().GetCounter("kernel.hits");
  const int64_t h0 = hits->value();
  int64_t total = 0;
  for (auto _ : state) {
    for (const char* q : kHotQQueries) {
      auto r = f.session->Query(q);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        WorkerPool::Shared().Resize(0);
        return;
      }
      benchmark::DoNotOptimize(*r);
      ++total;
    }
  }
  WorkerPool::Shared().Resize(0);
  f.db.kernel_registry().set_enabled(true);
  state.counters["kernel_hit_rate"] =
      total > 0 ? static_cast<double>(hits->value() - h0) /
                      static_cast<double>(total)
                : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          std::size(kHotQQueries) * kQRows);
}

void BM_TranslatedQKernel(benchmark::State& state) {
  RunTranslatedBench(state, /*kernels=*/true);
}
BENCHMARK(BM_TranslatedQKernel)->Arg(1)->Arg(4);

void BM_TranslatedQInterp(benchmark::State& state) {
  RunTranslatedBench(state, /*kernels=*/false);
}
BENCHMARK(BM_TranslatedQInterp)->Arg(1)->Arg(4);

/// Cold-compile overhead: fingerprint walk + plan compilation for the hot
/// shape, measured without execution. This is the one-time cost a cache
/// miss adds on top of the interpreted run it falls back from.
void BM_KernelCompile(benchmark::State& state) {
  Database& db = Fixture();
  auto stmts = sqldb::SqlParser::Parse(kFilterAggSql);
  if (!stmts.ok()) {
    state.SkipWithError(stmts.status().ToString().c_str());
    return;
  }
  const sqldb::SelectStmt& stmt = *(*stmts)[0].select;
  for (auto _ : state) {
    sqldb::KernelFingerprint fp = sqldb::KernelFingerprintFor(stmt);
    benchmark::DoNotOptimize(fp);
    auto plan = sqldb::KernelPlan::Compile(stmt, db.catalog());
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*plan);
  }
}
BENCHMARK(BM_KernelCompile);

}  // namespace
}  // namespace bench
}  // namespace hyperq

HQ_BENCH_MAIN();
