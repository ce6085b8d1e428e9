// Fused-kernel execution vs the interpreted columnar executor on the hot
// filter+aggregate and filter+project shapes (same 1M-row fixture as
// bench_backend_exec), plus the per-statement compile every kernel-run
// SELECT pays. scripts/bench.sh compares BM_KernelFilterAggregate against
// BM_InterpFilterAggregate at 1 and 4 threads (>=2x).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_main.h"

#include "common/metrics.h"
#include "common/strings.h"
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
  db.set_kernel_enabled(kernels);
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
  db.set_kernel_enabled(true);
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
// table mirrors the Q loader's output (an `ordcol` scan-order column), so
// the serializer emits flat single-table SELECTs with the final q-order
// `ORDER BY "ordcol"` on the same block — the shapes the kernel takes as
// written, with the sort skipped because the rows are already in order.
// scripts/bench.sh gates `kernel_hit_rate` >= 0.8 from BM_TranslatedQKernel.

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
  f.db.set_kernel_enabled(kernels);
  WorkerPool::Shared().Resize(static_cast<size_t>(state.range(0)) - 1);
  // Warm the translation cache: the subject is the hot path.
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
  f.db.set_kernel_enabled(true);
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

/// A 501-column table (500 float columns plus ordcol), like the analytical
/// workload's wide tables: what a compile costs when the statement reads a
/// few columns of a wide table.
constexpr size_t kWideCols = 500;
constexpr size_t kWideRows = 1024;

Database& WideFixture() {
  static Database* db = [] {
    auto* d = new Database();
    testing::Rng rng(44);
    StoredTable wide;
    wide.name = "wide";
    for (size_t c = 0; c < kWideCols; ++c) {
      std::vector<double> v(kWideRows);
      for (double& x : v) x = rng.NextDouble();
      wide.columns.push_back(TableColumn{StrCat("f", c), SqlType::kDouble});
      wide.data.push_back(Column::FromFloats(SqlType::kDouble, std::move(v)));
    }
    std::vector<int64_t> ord(kWideRows);
    for (size_t r = 0; r < kWideRows; ++r) ord[r] = static_cast<int64_t>(r);
    wide.columns.push_back(TableColumn{"ordcol", SqlType::kBigInt});
    wide.data.push_back(Column::FromInts(SqlType::kBigInt, std::move(ord)));
    wide.row_count = kWideRows;
    if (!d->CreateAndLoad(std::move(wide)).ok()) std::abort();
    return d;
  }();
  return *db;
}

/// One per-statement compile, measured without execution: the cost every
/// kernel-eligible SELECT adds before its run. Shapes: 0 = the
/// filter+aggregate, 1 = a filtered scan under the final q order over the
/// 2^20-row trades table, 2 = a few columns of the 501-column table.
void BM_KernelCompile(benchmark::State& state) {
  struct Shape {
    const char* label;
    Database* db;
    const char* table;
    const char* sql;
  };
  const Shape shapes[] = {
      {"filter+aggregate", &Fixture(), "facts", kFilterAggSql},
      {"order by ordcol, 2^20 rows", &QFixture().db, "trades",
       "SELECT \"ordcol\", \"Sym\", \"Price\" FROM \"trades\" "
       "WHERE \"Price\" > 500.0 ORDER BY \"ordcol\""},
      {"501 columns", &WideFixture(), "wide",
       "SELECT \"ordcol\", \"f3\", \"f250\" FROM \"wide\" "
       "WHERE \"f499\" > 0.5 ORDER BY \"ordcol\""},
  };
  const Shape& shape = shapes[state.range(0)];
  state.SetLabel(shape.label);
  auto stmts = sqldb::SqlParser::Parse(shape.sql);
  auto table = shape.db->catalog().GetTable(shape.table);
  if (!stmts.ok() || !table.ok()) {
    state.SkipWithError("compile bench fixture");
    return;
  }
  const sqldb::SelectStmt& stmt = *(*stmts)[0].select;
  for (auto _ : state) {
    const char* reject = nullptr;
    auto plan = sqldb::KernelPlan::Compile(stmt, **table, &reject);
    if (!plan) {
      state.SkipWithError(reject);
      return;
    }
    benchmark::DoNotOptimize(*plan);
  }
}
BENCHMARK(BM_KernelCompile)->DenseRange(0, 2);

}  // namespace
}  // namespace bench
}  // namespace hyperq

HQ_BENCH_MAIN();
