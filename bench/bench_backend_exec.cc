// Backend executor throughput: columnar, morsel-parallel scan/filter,
// grouped aggregation and hash join at 1-8 threads, the translated hot Q
// family end to end at 1 and 4 threads, plus a hand-coded row-at-a-time
// reference loop (the seed executor's evaluation strategy) so the
// vectorization win is measured against a fixed baseline rather than a
// moving one. The top-N pages and the LEAD and running-sum windows run
// alone as well. Thread counts are total workers including the calling
// thread (the pool holds threads-1; ParallelFor always participates).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_main.h"

#include "common/worker_pool.h"
#include "core/hyperq.h"
#include "sqldb/database.h"
#include "sqldb/eval.h"
#include "sqldb/session.h"
#include "sqldb/sql_parser.h"
#include "testing/market_data.h"

namespace hyperq {
namespace bench {
namespace {

using sqldb::Column;
using sqldb::Database;
using sqldb::QueryResult;
using sqldb::Session;
using sqldb::SqlType;
using sqldb::StoredTable;
using sqldb::TableColumn;

constexpr size_t kRows = 1 << 20;  // 1M fact rows
constexpr size_t kSyms = 16;

/// One database shared by every benchmark in the binary: building the 1M
/// row fixture per iteration would dominate the measurement.
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

    StoredTable dims;
    dims.name = "dims";
    dims.columns = {TableColumn{"sym", SqlType::kVarchar},
                    TableColumn{"w", SqlType::kDouble}};
    std::vector<std::string> dsym(kSyms);
    std::vector<double> w(kSyms);
    for (size_t s = 0; s < kSyms; ++s) {
      dsym[s] = "S" + std::to_string(s);
      w[s] = static_cast<double>(s) * 0.25;
    }
    dims.data = {Column::FromStrings(SqlType::kVarchar, std::move(dsym)),
                 Column::FromFloats(SqlType::kDouble, std::move(w))};
    dims.row_count = kSyms;
    if (!d->CreateAndLoad(std::move(dims)).ok()) std::abort();
    return d;
  }();
  return *db;
}

/// Runs `sql` once per iteration with the shared pool resized to
/// state.range(0) total threads.
void RunQueryBench(benchmark::State& state, const std::string& sql) {
  Database& db = Fixture();
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
  state.SetItemsProcessed(state.iterations() * kRows);
}

void BM_ScanFilter(benchmark::State& state) {
  RunQueryBench(state, "SELECT sym, px, qty FROM facts WHERE px > 500.0");
}
BENCHMARK(BM_ScanFilter)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FilterAggregate(benchmark::State& state) {
  RunQueryBench(state,
                "SELECT sym, SUM(px) AS s, COUNT(*) AS n FROM facts "
                "WHERE qty > 1000 GROUP BY sym");
}
BENCHMARK(BM_FilterAggregate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_HashJoin(benchmark::State& state) {
  RunQueryBench(state,
                "SELECT f.sym, f.px, d.w FROM facts f JOIN dims d "
                "ON f.sym = d.sym WHERE f.px > 900.0");
}
BENCHMARK(BM_HashJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// End-to-end translated-Q family: Q text -> cross-compiler -> backend. The
// table mirrors the Q loader's output (an `ordcol` scan-order column), so
// the serializer emits flat single-table SELECTs with the final q-order
// `ORDER BY "ordcol"` on the same block, and the sort is skipped because
// the rows are already in order.

constexpr size_t kQRows = 1 << 20;

struct TranslatedFixture {
  Database db;
  std::unique_ptr<HyperQSession> session;
};

/// Loads an n-row `trades` table in the Q loader's shape into `db`.
void LoadTrades(Database* db, size_t n) {
  testing::Rng rng(43);
  StoredTable trades;
  trades.name = "trades";
  trades.columns = {TableColumn{"ordcol", SqlType::kBigInt},
                    TableColumn{"Sym", SqlType::kVarchar},
                    TableColumn{"Price", SqlType::kDouble},
                    TableColumn{"Size", SqlType::kBigInt}};
  std::vector<int64_t> ord(n);
  std::vector<std::string> syms(n);
  std::vector<double> px(n);
  std::vector<int64_t> sz(n);
  for (size_t r = 0; r < n; ++r) {
    ord[r] = static_cast<int64_t>(r);
    syms[r] = "S" + std::to_string(rng.Below(kSyms));
    px[r] = rng.NextDouble() * 1000.0;
    sz[r] = static_cast<int64_t>(rng.Below(10000));
  }
  trades.data = {Column::FromInts(SqlType::kBigInt, std::move(ord)),
                 Column::FromStrings(SqlType::kVarchar, std::move(syms)),
                 Column::FromFloats(SqlType::kDouble, std::move(px)),
                 Column::FromInts(SqlType::kBigInt, std::move(sz))};
  trades.row_count = n;
  if (!db->CreateAndLoad(std::move(trades)).ok()) std::abort();
}

TranslatedFixture& QFixture() {
  static TranslatedFixture* f = [] {
    auto* t = new TranslatedFixture();
    LoadTrades(&t->db, kQRows);
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

/// One iteration runs the whole family once, on a warm translation cache.
void BM_TranslatedQ(benchmark::State& state) {
  TranslatedFixture& f = QFixture();
  WorkerPool::Shared().Resize(static_cast<size_t>(state.range(0)) - 1);
  for (const char* q : kHotQQueries) {
    auto r = f.session->Query(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      WorkerPool::Shared().Resize(0);
      return;
    }
  }
  for (auto _ : state) {
    for (const char* q : kHotQQueries) {
      auto r = f.session->Query(q);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        WorkerPool::Shared().Resize(0);
        return;
      }
      benchmark::DoNotOptimize(*r);
    }
  }
  WorkerPool::Shared().Resize(0);
  state.SetItemsProcessed(state.iterations() * std::size(kHotQQueries) *
                          kQRows);
}
BENCHMARK(BM_TranslatedQ)->Arg(1)->Arg(4);

/// The two top-N pages of the family, each alone: ORDER BY ... LIMIT sorts
/// and gathers only the rows it keeps.
const char* const kTopNQueries[] = {
    "10#`Price xdesc trades",
    "select[25;>Size] from trades",
};

void BM_TranslatedTopN(benchmark::State& state) {
  TranslatedFixture& f = QFixture();
  const char* q = kTopNQueries[state.range(0)];
  state.SetLabel(q);
  WorkerPool::Shared().Resize(0);
  for (auto _ : state) {
    auto r = f.session->Query(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*r);
  }
  state.SetItemsProcessed(state.iterations() * kQRows);
}
BENCHMARK(BM_TranslatedTopN)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Window SQL over an n-row `trades` table (one database per size),
/// pool at 0 threads.
void RunWindowBench(benchmark::State& state, const char* sql) {
  static std::map<size_t, Database*>* dbs = new std::map<size_t, Database*>();
  const size_t n = static_cast<size_t>(state.range(0));
  Database*& db = (*dbs)[n];
  if (db == nullptr) {
    db = new Database();
    LoadTrades(db, n);
  }
  Session session;
  WorkerPool::Shared().Resize(0);
  for (auto _ : state) {
    auto r = db->Execute(&session, sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->data);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The window every `aj` lowers to: LEAD over symbol partitions in an
/// order the rows are not stored in.
void BM_WindowLead(benchmark::State& state) {
  RunWindowBench(state,
                 "SELECT \"Sym\", \"Price\", LEAD(\"Price\") OVER (PARTITION "
                 "BY \"Sym\" ORDER BY \"Price\") AS nxt FROM trades");
}
BENCHMARK(BM_WindowLead)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

/// q's `sums`: a running sum in load order, one pass over the rows.
void BM_WindowRunningSum(benchmark::State& state) {
  RunWindowBench(state,
                 "SELECT SUM(\"Price\") OVER (ORDER BY \"ordcol\") AS s "
                 "FROM trades");
}
BENCHMARK(BM_WindowRunningSum)
    ->Arg(2048)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

/// Row-at-a-time reference: the seed executor interpreted every
/// expression per row through EvalExpr, encoded group keys per row, and
/// reduced aggregates by re-evaluating the argument per member row
/// (ComputeAggregate still is that code). These loops replay the seed's
/// exact inner-loop strategy over the same stored columns, giving the
/// fixed baseline the ISSUE.md speedup gates are measured against.
struct SeedPlan {
  sqldb::SelectPtr stmt;
  const sqldb::Relation* rel = nullptr;
};

Result<SeedPlan> PrepareSeedPlan(Database& db, Session* session,
                                 const std::string& sql) {
  HQ_ASSIGN_OR_RETURN(auto stmts, sqldb::SqlParser::Parse(sql));
  SeedPlan plan;
  plan.stmt = stmts[0].select;
  // The scanned base table, resolved once outside the timed loop.
  static std::unordered_map<std::string, QueryResult>* scans =
      new std::unordered_map<std::string, QueryResult>();
  if (scans->count(sql) == 0) {
    HQ_ASSIGN_OR_RETURN((*scans)[sql],
                        db.Execute(session, "SELECT sym, px, qty FROM facts"));
  }
  plan.rel = &(*scans)[sql].data;
  return plan;
}

void BM_RowAtATimeFilterAggregate(benchmark::State& state) {
  Database& db = Fixture();
  Session session;
  auto plan = PrepareSeedPlan(db, &session,
                              "SELECT sym, SUM(px) AS s, COUNT(*) AS n "
                              "FROM facts WHERE qty > 1000 GROUP BY sym");
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  const sqldb::Relation& rel = *plan->rel;
  const sqldb::SelectStmt& stmt = *plan->stmt;
  std::vector<const sqldb::Expr*> aggs;
  for (const auto& item : stmt.items) {
    sqldb::CollectAggregates(item.expr, &aggs);
  }
  for (auto _ : state) {
    // Filter: one EvalExpr per row (the seed's WHERE loop).
    std::vector<size_t> kept;
    for (size_t r = 0; r < rel.row_count; ++r) {
      auto v = sqldb::EvalExpr(*stmt.where, sqldb::EvalCtx{&rel, r});
      if (v.ok() && sqldb::DatumIsTrue(*v)) kept.push_back(r);
    }
    // Group: per-row key encode into a string map (the seed's bucketing).
    std::unordered_map<std::string, size_t> group_of;
    std::vector<std::vector<size_t>> members;
    for (size_t r : kept) {
      std::vector<sqldb::Datum> key;
      for (const auto& g : stmt.group_by) {
        auto v = sqldb::EvalExpr(*g, sqldb::EvalCtx{&rel, r});
        key.push_back(v.ok() ? *v : sqldb::Datum::Null());
      }
      auto [it, inserted] =
          group_of.emplace(sqldb::EncodeKeyRow(key), members.size());
      if (inserted) members.push_back({});
      members[it->second].push_back(r);
    }
    // Reduce: ComputeAggregate re-evaluates the argument per member row.
    std::vector<sqldb::Datum> results;
    for (const auto& m : members) {
      for (const sqldb::Expr* agg : aggs) {
        auto v = sqldb::ComputeAggregate(*agg, rel, m);
        results.push_back(v.ok() ? *v : sqldb::Datum::Null());
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RowAtATimeFilterAggregate);

void BM_RowAtATimeScanFilter(benchmark::State& state) {
  Database& db = Fixture();
  Session session;
  auto plan = PrepareSeedPlan(
      db, &session, "SELECT sym, px, qty FROM facts WHERE px > 500.0");
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  const sqldb::Relation& rel = *plan->rel;
  const sqldb::SelectStmt& stmt = *plan->stmt;
  for (auto _ : state) {
    sqldb::Relation out;
    for (size_t c = 0; c < rel.columns.size(); ++c) {
      out.columns.push_back(std::make_shared<Column>());
    }
    for (size_t r = 0; r < rel.row_count; ++r) {
      auto v = sqldb::EvalExpr(*stmt.where, sqldb::EvalCtx{&rel, r});
      if (!v.ok() || !sqldb::DatumIsTrue(*v)) continue;
      for (size_t c = 0; c < rel.columns.size(); ++c) {
        out.columns[c]->Append(rel.At(r, c));
      }
      ++out.row_count;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RowAtATimeScanFilter);

}  // namespace
}  // namespace bench
}  // namespace hyperq

HQ_BENCH_MAIN();
