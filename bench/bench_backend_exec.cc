// Backend executor throughput: columnar, morsel-parallel scan/filter,
// grouped aggregation and hash join at 1-8 threads, plus a hand-coded
// row-at-a-time reference loop (the seed executor's evaluation strategy)
// so the vectorization win is measured against a fixed baseline rather
// than a moving one. Thread counts are total workers including the
// calling thread (the pool holds threads-1; ParallelFor always
// participates).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_main.h"

#include "common/worker_pool.h"
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
    // This bench measures the interpreted columnar executor; the fused
    // kernel tier has its own bench (bench_kernel_exec) that compares
    // against these numbers.
    d->set_kernel_enabled(false);
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
