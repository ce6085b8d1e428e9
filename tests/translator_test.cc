#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "algebrizer/binder.h"
#include "bench/workload.h"
#include "core/hyperq.h"
#include "core/loader.h"
#include "core/mdi.h"
#include "kdb/engine.h"
#include "qlang/parser.h"

namespace hyperq {
namespace {

/// End-to-end translation tests: Q text -> Algebrizer -> Xformer ->
/// Serializer -> mini PG engine -> Q result. The fixture loads the same
/// TAQ-like market data into the backend (through the ordcol-adding
/// loader) that the kdb tests use.
class TranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kdb::Interpreter loader;
    ASSERT_TRUE(loader
                    .EvalText(
                        "trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT`IBM;"
                        " Price:720.5 151.2 721.0 52.1 150.9;"
                        " Size:100 200 150 300 120;"
                        " Time:09:30:00.000 09:30:01.000 09:30:02.000 "
                        "09:30:03.000 09:30:04.000)")
                    .ok());
    ASSERT_TRUE(loader
                    .EvalText(
                        "quotes: ([] Symbol:`GOOG`GOOG`IBM`GOOG;"
                        " Time:09:30:01.000 09:30:01.500 09:30:03.500 "
                        "09:30:03.000;"
                        " Bid:720.0 720.3 151.0 720.8;"
                        " Ask:720.9 720.8 151.5 721.4)")
                    .ok());
    ASSERT_TRUE(loader
                    .EvalText("refdata: ([sym:`GOOG`IBM] sector:`tech`svc)")
                    .ok());
    ASSERT_TRUE(
        LoadQTable(&db_, "trades", *loader.GetGlobal("trades")).ok());
    ASSERT_TRUE(
        LoadQTable(&db_, "quotes", *loader.GetGlobal("quotes")).ok());
    ASSERT_TRUE(
        LoadQTable(&db_, "refdata", *loader.GetGlobal("refdata")).ok());
    session_ = std::make_unique<HyperQSession>(&db_);
  }

  QValue Query(const std::string& q) {
    auto r = session_->Query(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString()
                        << "\nSQL: " << session_->last_sql();
    return r.ok() ? *r : QValue();
  }

  sqldb::Database db_;
  std::unique_ptr<HyperQSession> session_;
};

TEST_F(TranslatorTest, SelectAll) {
  QValue t = Query("select from trades");
  ASSERT_TRUE(t.IsTable());
  EXPECT_EQ(t.Count(), 5u);
  // The helper ordcol is stripped from application-visible results.
  EXPECT_EQ(t.Table().FindColumn("ordcol"), -1);
  EXPECT_EQ(t.Table().names,
            (std::vector<std::string>{"Symbol", "Price", "Size", "Time"}));
}

TEST_F(TranslatorTest, SelectPreservesRowOrder) {
  QValue t = Query("select Price from trades");
  ASSERT_TRUE(t.IsTable());
  const auto& px = t.Table().columns[0].Floats();
  EXPECT_DOUBLE_EQ(px[0], 720.5);
  EXPECT_DOUBLE_EQ(px[4], 150.9);
}

TEST_F(TranslatorTest, WhereWithNullSafeEquality) {
  QValue t = Query("select Price from trades where Symbol=`GOOG");
  EXPECT_EQ(t.Count(), 2u);
  // A filter keeps only TRUE rows, so against a non-null literal the
  // correctness transformation (§3.3) leaves a plain '='.
  EXPECT_NE(session_->last_sql().find("(\"Symbol\" = 'GOOG'::varchar)"),
            std::string::npos)
      << session_->last_sql();
  // A projected comparison must say false for a null cell: there '=' is
  // rewritten to IS NOT DISTINCT FROM.
  t = Query("select b: Symbol=`GOOG from trades");
  EXPECT_EQ(t.Count(), 5u);
  EXPECT_NE(session_->last_sql().find("IS NOT DISTINCT FROM"),
            std::string::npos)
      << session_->last_sql();
}

TEST_F(TranslatorTest, WhereConjunction) {
  QValue t = Query("select from trades where Price>100, Symbol=`IBM");
  EXPECT_EQ(t.Count(), 2u);
}

TEST_F(TranslatorTest, ComputedColumn) {
  QValue t = Query("select notional: Price*Size from trades "
                   "where Symbol=`MSFT");
  ASSERT_EQ(t.Count(), 1u);
  EXPECT_EQ(t.Table().names[0], "notional");
  EXPECT_DOUBLE_EQ(t.Table().columns[0].Floats()[0], 52.1 * 300);
}

TEST_F(TranslatorTest, ScalarAggregate) {
  QValue t = Query("select max Price from trades");
  ASSERT_TRUE(t.IsTable());
  EXPECT_EQ(t.Count(), 1u);
  EXPECT_DOUBLE_EQ(t.Table().columns[0].Floats()[0], 721.0);
}

TEST_F(TranslatorTest, SelectByYieldsKeyedTable) {
  QValue kt = Query("select mx: max Price by Symbol from trades");
  ASSERT_TRUE(kt.IsKeyedTable());
  const QTable& keys = kt.Dict().keys->Table();
  const QTable& vals = kt.Dict().values->Table();
  ASSERT_EQ(keys.RowCount(), 3u);
  EXPECT_EQ(keys.columns[0].SymsView(),
            (std::vector<std::string>{"GOOG", "IBM", "MSFT"}));
  EXPECT_DOUBLE_EQ(vals.columns[0].Floats()[0], 721.0);
}

TEST_F(TranslatorTest, GroupByMultipleAggregates) {
  QValue kt = Query(
      "select n: count Price, vwap: Size wavg Price by Symbol from trades");
  ASSERT_TRUE(kt.IsKeyedTable());
  const QTable& vals = kt.Dict().values->Table();
  EXPECT_EQ(vals.names, (std::vector<std::string>{"n", "vwap"}));
  EXPECT_EQ(vals.columns[0].Ints()[0], 2);
  double expect_vwap = (100 * 720.5 + 150 * 721.0) / 250.0;
  EXPECT_NEAR(vals.columns[1].Floats()[0], expect_vwap, 1e-9);
}

TEST_F(TranslatorTest, ExecReturnsListAndAtom) {
  QValue list = Query("exec Price from trades where Symbol=`GOOG");
  EXPECT_FALSE(list.IsTable());
  EXPECT_EQ(list.Count(), 2u);
  QValue atom = Query("exec max Price from trades");
  EXPECT_TRUE(atom.is_atom());
  EXPECT_DOUBLE_EQ(atom.AsFloat(), 721.0);
}

TEST_F(TranslatorTest, PaperExample1AsOfJoin) {
  // §2.2 Example 1 with the where clauses inlined.
  QValue t = Query(
      "aj[`Symbol`Time;"
      " select Symbol, Time, Price from trades where Symbol in `GOOG`IBM;"
      " select Symbol, Time, Bid, Ask from quotes]");
  ASSERT_TRUE(t.IsTable()) << t.ToString();
  EXPECT_EQ(t.Count(), 4u);
  int bid = t.Table().FindColumn("Bid");
  ASSERT_GE(bid, 0);
  // Trade GOOG @09:30:00 precedes all quotes -> null bid.
  EXPECT_TRUE(t.Table().columns[bid].ElementAt(0).IsNullAtom());
  // Trade IBM @09:30:01 precedes IBM's only quote @09:30:03.5 -> null.
  EXPECT_TRUE(t.Table().columns[bid].ElementAt(1).IsNullAtom());
  // Trade GOOG @09:30:02 -> prevailing quote @09:30:01.5 (Bid 720.3).
  EXPECT_DOUBLE_EQ(t.Table().columns[bid].Floats()[2], 720.3);
  // Trade IBM @09:30:04 -> quote @09:30:03.5 (Bid 151.0).
  EXPECT_DOUBLE_EQ(t.Table().columns[bid].Floats()[3], 151.0);
}

TEST_F(TranslatorTest, PaperExample2BareAj) {
  QValue t = Query("aj[`Symbol`Time; trades; quotes]");
  ASSERT_TRUE(t.IsTable());
  EXPECT_EQ(t.Count(), 5u);
  // The lowering uses a left outer join + window function (Figure 2).
  EXPECT_NE(session_->last_sql().find("LEFT JOIN"), std::string::npos);
  EXPECT_NE(session_->last_sql().find("LEAD"), std::string::npos);
}

TEST_F(TranslatorTest, PaperExample3FunctionUnrolling) {
  // §3.2.3 Example 3: function with a materialized local variable.
  QValue v = Query(
      "f: {[Sym]\n"
      "  dt: select Price from trades where Symbol=Sym;\n"
      "  :exec max Price from dt;\n"
      "  };\n"
      "f[`GOOG]");
  EXPECT_TRUE(v.is_atom()) << v.ToString();
  EXPECT_DOUBLE_EQ(v.AsFloat(), 721.0);
}

TEST_F(TranslatorTest, EagerMaterializationCreatesTempTable) {
  QValue v = Query("dt: select Price from trades where Symbol=`GOOG; "
                   "exec max Price from dt");
  EXPECT_DOUBLE_EQ(v.AsFloat(), 721.0);
  // The variable materialized as HQ_TEMP_1 (§4.3).
  auto t = session_->Translate("count dt");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_NE(t->result_sql.find("HQ_TEMP_1"), std::string::npos)
      << t->result_sql;
}

TEST_F(TranslatorTest, ScalarVariablesStayInHyperQ) {
  QValue v = Query("SOMEPX: 700.0; select from trades where Price>SOMEPX");
  EXPECT_EQ(v.Count(), 2u);
}

TEST_F(TranslatorTest, LeftJoinKeyedTable) {
  QValue t = Query("(select sym: Symbol, Price from trades) lj refdata");
  ASSERT_TRUE(t.IsTable()) << t.ToString();
  int sector = t.Table().FindColumn("sector");
  ASSERT_GE(sector, 0);
  EXPECT_EQ(t.Table().columns[sector].SymsView()[0], "tech");
  // MSFT has no refdata -> null sector.
  EXPECT_TRUE(t.Table().columns[sector].ElementAt(3).IsNullAtom());
}

TEST_F(TranslatorTest, UpdateReplacesColumnInOutput) {
  QValue t = Query("update Price: 2*Price from trades where Symbol=`IBM");
  ASSERT_TRUE(t.IsTable());
  int px = t.Table().FindColumn("Price");
  EXPECT_DOUBLE_EQ(t.Table().columns[px].Floats()[0], 720.5);  // untouched
  EXPECT_DOUBLE_EQ(t.Table().columns[px].Floats()[1], 302.4);  // doubled
}

TEST_F(TranslatorTest, DeleteColumnsAndRows) {
  QValue t = Query("delete Size from trades");
  EXPECT_EQ(t.Table().FindColumn("Size"), -1);
  QValue r = Query("delete from trades where Symbol=`GOOG");
  EXPECT_EQ(r.Count(), 3u);
}

TEST_F(TranslatorTest, TakeFirstAndLastRows) {
  QValue t2 = Query("2#trades");
  EXPECT_EQ(t2.Count(), 2u);
  EXPECT_EQ(t2.Table().columns[0].SymsView()[0], "GOOG");
  QValue last2 = Query("-2#trades");
  EXPECT_EQ(last2.Count(), 2u);
  EXPECT_EQ(last2.Table().columns[0].SymsView()[1], "IBM");
}

TEST_F(TranslatorTest, SortTable) {
  QValue t = Query("`Price xasc trades");
  EXPECT_DOUBLE_EQ(t.Table().columns[1].Floats()[0], 52.1);
  QValue d = Query("`Price xdesc trades");
  EXPECT_DOUBLE_EQ(d.Table().columns[1].Floats()[0], 721.0);
}

TEST_F(TranslatorTest, OrderedVectorFunctions) {
  QValue t = Query("select d: deltas Price from trades where Symbol=`GOOG");
  ASSERT_EQ(t.Count(), 2u);
  EXPECT_DOUBLE_EQ(t.Table().columns[0].Floats()[0], 720.5);
  EXPECT_NEAR(t.Table().columns[0].Floats()[1], 0.5, 1e-9);
  EXPECT_NE(session_->last_sql().find("LAG"), std::string::npos);
}

TEST_F(TranslatorTest, RunningSums) {
  QValue t = Query("select s: sums Size from trades");
  const auto& s = t.Table().columns[0].Ints();
  EXPECT_EQ(s[4], 870);
}

TEST_F(TranslatorTest, UnionJoin) {
  QValue t = Query("trades uj trades");
  EXPECT_EQ(t.Count(), 10u);
}

TEST_F(TranslatorTest, InWithConstantList) {
  QValue t = Query("SYMS: `GOOG`MSFT; select from trades where Symbol in SYMS");
  EXPECT_EQ(t.Count(), 3u);
}

TEST_F(TranslatorTest, CastAndArithmetic) {
  QValue v = Query("exec max `long$Price from trades");
  EXPECT_EQ(v.AsInt(), 721);
}

TEST_F(TranslatorTest, DistinctTable) {
  QValue t = Query("distinct select Symbol from trades");
  EXPECT_EQ(t.Count(), 3u);
}

TEST_F(TranslatorTest, UntranslatableGivesVerboseError) {
  auto r = session_->Query("select Price from trades where Price = {x} 1");
  ASSERT_FALSE(r.ok());
  // Error identifies the untranslatable construct rather than a bare 'nyi.
  EXPECT_FALSE(r.status().message().empty());
}

TEST_F(TranslatorTest, TimingsArePopulated) {
  Query("select max Price by Symbol from trades");
  const StageTimings& t = session_->last_timings();
  EXPECT_GT(t.total_us(), 0.0);
  EXPECT_GT(t.bind_us, 0.0);
  EXPECT_GT(t.serialize_us, 0.0);
}

TEST_F(TranslatorTest, MetadataCacheHitsOnRepeat) {
  Query("select Price from trades");
  auto before = session_->metadata_cache().stats();
  // A structurally different query over the same table: the translation
  // cache cannot replay it, so the binder re-resolves `trades` and the
  // metadata lands as a cache hit. (A repeat of the identical text would
  // be served by the translation cache without touching the MDI at all.)
  Query("select Size from trades");
  auto after = session_->metadata_cache().stats();
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(TranslatorTest, SessionVariablePromotionOnClose) {
  Query("hist: select from trades where Price > 100");
  ASSERT_TRUE(session_->Close().ok());
  // The promoted variable is now a durable server table.
  EXPECT_TRUE(db_.catalog().HasTable("hist"));
}

/// Side-by-side check (§5): the same Q runs on the mini-kdb engine and
/// through Hyper-Q; results must match.
TEST_F(TranslatorTest, SideBySideAgainstKdb) {
  kdb::Interpreter kdb;
  ASSERT_TRUE(kdb.EvalText(
                     "trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT`IBM;"
                     " Price:720.5 151.2 721.0 52.1 150.9;"
                     " Size:100 200 150 300 120;"
                     " Time:09:30:00.000 09:30:01.000 09:30:02.000 "
                     "09:30:03.000 09:30:04.000)")
                  .ok());
  const char* queries[] = {
      "select Price from trades where Symbol=`GOOG",
      "select Symbol, Price from trades where Price>100",
      "select mx: max Price by Symbol from trades",
      "select notional: Price*Size from trades",
  };
  for (const char* q : queries) {
    auto expected = kdb.EvalText(q);
    ASSERT_TRUE(expected.ok()) << q;
    QValue actual = Query(q);
    EXPECT_TRUE(QValue::Match(*expected, actual))
        << q << "\nkdb:    " << expected->ToString()
        << "\nhyperq: " << actual.ToString()
        << "\nsql: " << session_->last_sql();
  }
}

/// The binder's scans over the 500-column analytical catalog: a statement
/// with a column list binds only the columns it references, plus join and
/// sort keys and the order column; wherever every column can reach the
/// reply or decide the rows, the scan stays as wide as the table.
class NarrowBindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench::WorkloadOptions small;  // full width, few rows
    small.fact_rows = small.dim_rows = small.event_rows = 4;
    ASSERT_TRUE(bench::LoadAnalyticalWorkload(&db_, small).ok());
  }

  Result<BoundQuery> Bind(const std::string& q, BindTrace* trace) {
    SqldbMetadata mdi(&db_, nullptr);
    VariableScopes scopes(&mdi);
    Binder binder(&mdi, &scopes, trace);
    HQ_ASSIGN_OR_RETURN(AstPtr ast, Parser::ParseExpression(q));
    return binder.BindQuery(ast);
  }

  /// "table: col,col,..." for every Get of the bound (untransformed) tree,
  /// in tree order.
  std::vector<std::string> Scans(const std::string& q) {
    auto bound = Bind(q, nullptr);
    EXPECT_TRUE(bound.ok()) << q << ": " << bound.status().ToString();
    std::vector<std::string> out;
    if (!bound.ok()) return out;
    std::function<void(const xtra::XtraPtr&)> walk =
        [&](const xtra::XtraPtr& op) {
          if (op->kind == xtra::XtraKind::kGet) {
            std::string s = op->table + ":";
            for (const auto& c : op->output) s += " " + c.name;
            out.push_back(s);
          }
          for (const auto& c : op->children) walk(c);
        };
    walk(bound->root);
    return out;
  }

  /// The widths of every Get in the bound tree.
  std::vector<size_t> ScanWidths(const std::string& q) {
    std::vector<size_t> widths;
    for (const std::string& s : Scans(q)) {
      widths.push_back(static_cast<size_t>(
          std::count(s.begin(), s.end(), ' ')));
    }
    return widths;
  }

  sqldb::Database db_;
};

TEST_F(NarrowBindTest, ThreeTableJoinBindsOnlyReferencedColumns) {
  // q10 of the analytical workload.
  EXPECT_EQ(Scans(bench::AnalyticalQueries()[9]),
            (std::vector<std::string>{"wide_facts: sym f0 ordcol",
                                      "wide_dims: sym d0 ordcol",
                                      "wide_dims2: sym g0 ordcol"}));
  // An aj binds its keys and time column; xasc its sort column.
  EXPECT_EQ(Scans("select sym, e0 from aj[`sym`t; wide_facts; wide_events]"),
            (std::vector<std::string>{"wide_facts: sym t ordcol",
                                      "wide_events: sym t e0 ordcol"}));
  EXPECT_EQ(Scans("select f1 from `f2 xasc wide_facts"),
            (std::vector<std::string>{"wide_facts: f1 f2 ordcol"}));
  // A select without a column list under one that has it sees what its
  // caller sees, plus its own where names.
  EXPECT_EQ(Scans("select d1 from (select from wide_facts where f3>0.5) lj "
                  "wide_dims"),
            (std::vector<std::string>{"wide_facts: sym f3 ordcol",
                                      "wide_dims: sym d1 ordcol"}));
}

TEST_F(NarrowBindTest, WholeRowShapesBindEveryColumn) {
  const size_t width = 501;  // 500 columns and the order column
  using W = std::vector<size_t>;
  EXPECT_EQ(ScanWidths("select from wide_facts"), W{width});
  EXPECT_EQ(ScanWidths("wide_facts"), W{width});
  EXPECT_EQ(ScanWidths("update f1: 2*f0 from wide_facts where f2>0.5"),
            W{width});
  EXPECT_EQ(ScanWidths("delete from wide_facts where f0>0.5"), W{width});
  EXPECT_EQ(ScanWidths("select f0 from distinct wide_facts"), W{width});
  EXPECT_EQ(ScanWidths("select a from `a`b xcol wide_facts"), W{width});
  EXPECT_EQ(ScanWidths("select f0 from 1!wide_facts"), W{width});
  EXPECT_EQ(ScanWidths("wide_facts uj wide_events"), (W{width, width}));
}

TEST_F(NarrowBindTest, NoBenchmarkStatementNeedsTheFullWidthRebind) {
  // perfbench's dashboard and live templates read a 3-column `trades`.
  ASSERT_TRUE(LoadQTable(&db_, "trades",
                         QValue::MakeTableUnchecked(
                             {"Sym", "Price", "Size"},
                             {QValue::Syms({"S1", "S2"}),
                              QValue::FloatList(QType::kFloat, {1.5, 2.5}),
                              QValue::IntList(QType::kLong, {10, 20})}))
                  .ok());
  std::vector<std::string> corpus = bench::AnalyticalQueries();
  corpus.insert(
      corpus.end(),
      {"select Sym, Price, Size from trades where Price>951.0",
       "select from trades where Sym=`S1",
       "select Sym, Price from trades where Sym in `S1`S2`S3",
       "select s: sum Price, n: count Price by Sym from trades where Size>1000",
       "exec avg Price from trades where Sym=`S2",
       "select Sym, chg: deltas Price from trades where Sym=`S1"});
  for (const std::string& q : corpus) {
    BindTrace trace;
    auto bound = Bind(q, &trace);
    ASSERT_TRUE(bound.ok()) << q << ": " << bound.status().ToString();
    EXPECT_EQ(trace.narrow_misses, 0) << q;
  }
  // A statement that fails at both widths is an error, not a miss.
  BindTrace trace;
  EXPECT_FALSE(Bind("select nosuch from wide_facts", &trace).ok());
  EXPECT_EQ(trace.narrow_misses, 0);
}

TEST_F(NarrowBindTest, ErrorsListTheCatalogNotTheNarrowedScan) {
  HyperQSession session(&db_);
  auto r = session.Translate(
      "select sym, f0 from wide_facts lj `nosuch xkey wide_dims");
  ASSERT_FALSE(r.ok());
  // The full re-bind words the failure: every catalog column is listed.
  EXPECT_NE(r.status().message().find("d497"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace hyperq
