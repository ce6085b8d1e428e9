#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "core/hyperq.h"
#include "core/loader.h"
#include "shard/sharded_backend.h"

namespace hyperq {
namespace {

/// Byte-identity of the translator's output against committed goldens:
/// the cold SQL of the 25 analytical queries, the perfbench dashboard
/// templates with fixed literals, and each template's shard plan (partial
/// and merge SQL) on a 4-shard `trades`, plus two integer-sum two-phase
/// plans. Any change to emitted SQL shows up as a diff of
/// tests/golden/translation_sql.txt.
///
/// On a mismatch the test writes the full actual output to
/// translation_sql.actual in its working directory; after reviewing the
/// diff, copy it over the golden to accept the change.

/// The perfbench templates (perfbench/workloads.cc), literals fixed.
constexpr std::pair<const char*, const char*> kTemplates[] = {
    {"filter_project", "select Sym, Price, Size from trades where Price>951.0"},
    {"symbol_pin", "select from trades where Sym=`S1"},
    {"in_list", "select Sym, Price from trades where Sym in `S1`S2`S3"},
    {"group_agg",
     "select s: sum Price, n: count Price by Sym from trades where Size>1000"},
    {"scalar_agg", "exec avg Price from trades where Sym=`S2"},
    {"window", "select Sym, chg: deltas Price from trades where Sym=`S1"},
};

/// A small `trades` with perfbench's schema; translation reads only the
/// catalog, so a few rows suffice.
QValue TradesTable() {
  return QValue::MakeTableUnchecked(
      {"Sym", "Price", "Size"},
      {QValue::Syms({"S1", "S2", "S3", "S4"}),
       QValue::FloatList(QType::kFloat, {1.5, 2.5, 3.5, 4.5}),
       QValue::IntList(QType::kLong, {10, 20, 30, 40})});
}

/// Every translation is cold: the cache is off.
HyperQSession::Options ColdOptions() {
  HyperQSession::Options opts;
  opts.translation_cache.enabled = false;
  return opts;
}

void AppendTranslation(const std::string& label, const std::string& q,
                       HyperQSession* session, bool with_plan,
                       std::ostringstream* out) {
  *out << "== " << label << "\nq: " << q << "\n";
  Result<Translation> t = session->Translate(q);
  if (!t.ok()) {
    *out << "error: " << t.status().ToString() << "\n";
    return;
  }
  *out << "sql: " << t->result_sql << "\n";
  if (!with_plan) return;
  const ShardPlan& p = t->shard;
  *out << "mode: " << ShardModeName(p.mode) << "\n";
  if (p.mode == ShardMode::kNone) return;
  *out << "routed: " << (p.routed ? p.route_key : "-") << "\n";
  *out << "partial: " << p.partial_sql << "\nmerge: " << p.merge_sql << "\n";
}

std::string ActualGoldenText() {
  std::ostringstream out;

  sqldb::Database wide;
  bench::WorkloadOptions small;
  small.fact_rows = small.dim_rows = small.event_rows = 8;
  EXPECT_TRUE(bench::LoadAnalyticalWorkload(&wide, small).ok());
  HyperQSession analytical(&wide, ColdOptions());
  const std::vector<std::string> queries = bench::AnalyticalQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    AppendTranslation("analytical q" + std::to_string(i + 1), queries[i],
                      &analytical, /*with_plan=*/false, &out);
  }

  sqldb::Database direct;
  EXPECT_TRUE(LoadQTable(&direct, "trades", TradesTable()).ok());
  HyperQSession plain(&direct, ColdOptions());
  for (const auto& [name, q] : kTemplates) {
    AppendTranslation(std::string("template ") + name, q, &plain,
                      /*with_plan=*/false, &out);
  }

  shard::ShardedBackend backend(shard::ShardedBackend::Options{4, "Sym"});
  EXPECT_TRUE(
      backend.LoadQTablePartitioned("trades", TradesTable(), "Sym").ok());
  HyperQSession sharded(std::make_unique<shard::ShardedGateway>(&backend),
                        ColdOptions());
  for (const auto& [name, q] : kTemplates) {
    AppendTranslation(std::string("sharded ") + name, q, &sharded,
                      /*with_plan=*/true, &out);
  }
  // Integer sums decompose two-phase, ungrouped and grouped across shards.
  for (const char* q : {"exec sum Size from trades",
                        "select s: sum Size by b: 10 xbar Size from trades"}) {
    AppendTranslation("sharded two-phase", q, &sharded, /*with_plan=*/true,
                      &out);
  }
  return out.str();
}

TEST(TranslationGoldenTest, EmittedSqlMatchesGolden) {
  const std::string golden_path =
      std::string(HQ_GOLDEN_DIR) + "/translation_sql.txt";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string actual = ActualGoldenText();
  if (actual == golden.str()) return;

  std::ofstream("translation_sql.actual", std::ios::binary) << actual;
  std::istringstream want(golden.str()), got(actual);
  std::string w, g;
  for (int line = 1;; ++line) {
    const bool more_w = static_cast<bool>(std::getline(want, w));
    const bool more_g = static_cast<bool>(std::getline(got, g));
    if (!more_w && !more_g) break;
    if (!more_w || !more_g || w != g) {
      ADD_FAILURE() << golden_path << ":" << line << " differs\n  golden: "
                    << (more_w ? w : "<eof>")
                    << "\n  actual: " << (more_g ? g : "<eof>")
                    << "\n(full output in translation_sql.actual)";
      break;
    }
  }
}

}  // namespace
}  // namespace hyperq
