#include <gtest/gtest.h>

#include "common/strings.h"
#include "testing/market_data.h"
#include "testing/side_by_side.h"

namespace hyperq {
namespace testing {
namespace {

/// §5's side-by-side framework used the way the customer would: the same
/// statement runs on the reference kdb+ engine and through Hyper-Q; the
/// results must agree under Q match semantics.
class SideBySideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MarketDataOptions opts;
    opts.symbols = {"AAPL", "GOOG", "IBM"};
    opts.trades_per_symbol = 40;
    opts.quotes_per_symbol = 120;
    MarketData data = GenerateMarketData(opts);
    ASSERT_TRUE(harness_.LoadTable("trades", data.trades).ok());
    ASSERT_TRUE(harness_.LoadTable("quotes", data.quotes).ok());
  }

  void ExpectMatch(const std::string& q) {
    SideBySideHarness::Comparison c = harness_.Run(q);
    EXPECT_TRUE(c.match) << "query: " << q
                         << "\nkdb:    " << c.kdb_result.ToString()
                         << "\nhyperq: " << c.hyperq_result.ToString()
                         << "\nkdb err: " << c.kdb_error
                         << "\nhq err:  " << c.hyperq_error
                         << "\nsql: " << c.sql;
  }

  SideBySideHarness harness_;
};

TEST_F(SideBySideTest, Projections) {
  ExpectMatch("select Symbol, Price from trades");
  ExpectMatch("select from trades");
  ExpectMatch("select px2: 2*Price from trades");
  ExpectMatch("select Symbol, notional: Price*Size from trades");
}

TEST_F(SideBySideTest, Filters) {
  ExpectMatch("select from trades where Symbol=`GOOG");
  ExpectMatch("select from trades where Price>120");
  ExpectMatch("select from trades where Price>120, Size>2000");
  ExpectMatch("select from trades where Symbol in `AAPL`IBM");
  ExpectMatch("select from trades where Size within 1000 3000");
  ExpectMatch("select from trades where Symbol<>`GOOG");
}

TEST_F(SideBySideTest, Aggregates) {
  ExpectMatch("select max Price from trades");
  ExpectMatch("select sum Size from trades");
  ExpectMatch("exec count Price from trades");
  ExpectMatch("exec min Price from trades where Symbol=`IBM");
}

TEST_F(SideBySideTest, GroupedAggregates) {
  ExpectMatch("select mx: max Price by Symbol from trades");
  ExpectMatch("select n: count Price, s: sum Size by Symbol from trades");
  ExpectMatch("select vwap: Size wavg Price by Symbol from trades");
  ExpectMatch(
      "select lo: min Price, hi: max Price by Symbol from trades "
      "where Size>500");
  ExpectMatch("select f: first Price, l: last Price by Symbol from trades");
}

TEST_F(SideBySideTest, UpdateDelete) {
  ExpectMatch("update Price: 1.1*Price from trades");
  ExpectMatch("update big: Size>2000 from trades");
  ExpectMatch("delete Size from trades");
  ExpectMatch("delete from trades where Symbol=`AAPL");
}

TEST_F(SideBySideTest, SelectWithLimitOptions) {
  ExpectMatch("select[5] from trades");
  ExpectMatch("select[-5] from trades");
  ExpectMatch("select[3] Symbol, Price from trades where Price>100");
  ExpectMatch("select[4;>Price] from trades");
  ExpectMatch("select[4;<Size] Symbol, Size from trades");
  ExpectMatch("select[2] mx: max Price by Symbol from trades");
}

TEST_F(SideBySideTest, FbyIdiom) {
  // The classic filter-by: rows carrying each symbol's extreme price.
  ExpectMatch("select from trades where Price=(max;Price) fby Symbol");
  ExpectMatch("select from trades where Price<(avg;Price) fby Symbol");
  ExpectMatch("select Symbol, Size from trades "
              "where Size=(min;Size) fby Symbol");
}

TEST_F(SideBySideTest, UpdateBy) {
  // Grouped update: aggregates broadcast across each group's rows.
  ExpectMatch("update mx: max Price by Symbol from trades");
  ExpectMatch("update tot: sum Size, n: count Size by Symbol from trades");
  ExpectMatch("update f: first Price, l: last Price by Symbol from trades");
  ExpectMatch("update gap: Price - avg Price by Symbol from trades");
}

TEST_F(SideBySideTest, Sorting) {
  ExpectMatch("`Price xasc trades");
  ExpectMatch("`Price xdesc trades");
  ExpectMatch("`Symbol`Time xasc trades");
}

TEST_F(SideBySideTest, TakeAndDistinct) {
  ExpectMatch("5#trades");
  ExpectMatch("-5#trades");
  ExpectMatch("distinct select Symbol from trades");
}

TEST_F(SideBySideTest, EquiJoinAndKeying) {
  ExpectMatch("ej[`Symbol; select Symbol, Price from trades;"
              " select Symbol, Time, Bid from quotes]");
  ExpectMatch("0!select max Price by Symbol from trades");
}

TEST_F(SideBySideTest, AsOfJoin) {
  // The flagship point-in-time query (Example 1).
  ExpectMatch("aj[`Symbol`Time; trades; quotes]");
  ExpectMatch(
      "aj[`Symbol`Time;"
      " select Symbol, Time, Price from trades where Symbol=`GOOG;"
      " select Symbol, Time, Bid, Ask from quotes]");
}

TEST_F(SideBySideTest, AsOfJoinOnNanosecondTimestamps) {
  // Timestamps are int64 nanoseconds since 2000; values beyond 2^53 would
  // silently lose precision if any join path went through doubles. These
  // neighbouring quotes differ by exactly 1 ns.
  ASSERT_TRUE(harness_
                  .DefineTable("ts_trades",
                               "([] Symbol:`A`A;"
                               " Time:2026.01.01D10:00:00.000000005 "
                               "2026.01.01D10:00:00.000000007;"
                               " Price:1.0 2.0)")
                  .ok());
  ASSERT_TRUE(harness_
                  .DefineTable("ts_quotes",
                               "([] Symbol:`A`A`A;"
                               " Time:2026.01.01D10:00:00.000000004 "
                               "2026.01.01D10:00:00.000000006 "
                               "2026.01.01D10:00:00.000000008;"
                               " Bid:10.0 20.0 30.0)")
                  .ok());
  ExpectMatch("aj[`Symbol`Time; ts_trades; ts_quotes]");
  // Trade @..5ns must see the ..4ns quote, trade @..7ns the ..6ns quote.
  auto r = harness_.hyperq().Query("aj[`Symbol`Time; ts_trades; ts_quotes]");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int bid = r->Table().FindColumn("Bid");
  EXPECT_DOUBLE_EQ(r->Table().columns[bid].Floats()[0], 10.0);
  EXPECT_DOUBLE_EQ(r->Table().columns[bid].Floats()[1], 20.0);
}

TEST_F(SideBySideTest, FunctionUnrolling) {
  ExpectMatch(
      "f: {[S] dt: select Price from trades where Symbol=S;"
      " :exec max Price from dt};"
      "f[`GOOG]");
}

TEST_F(SideBySideTest, NestedFunctionUnrolling) {
  ExpectMatch(
      "inner: {[S] :exec max Price from trades where Symbol=S};"
      "outer: {[S] :inner[S]};"
      "outer[`GOOG]");
}

TEST_F(SideBySideTest, VariablesAcrossStatements) {
  ExpectMatch("LIM: 130.0; select from trades where Price>LIM");
  ExpectMatch("SYMS: `GOOG`IBM; exec sum Size from trades "
              "where Symbol in SYMS");
}

TEST_F(SideBySideTest, VectorConditionalAndStats) {
  ExpectMatch("select flag: ?[Price>130;1;0] from trades");
  ExpectMatch("select tag: ?[Size>2000;`big;`small] from trades");
  ExpectMatch("select c: Price cov Size by Symbol from trades");
  ExpectMatch("select r: Price cor Size by Symbol from trades");
  ExpectMatch("exec Price cov Size from trades");
}

TEST_F(SideBySideTest, OrderedVectorOps) {
  ExpectMatch("select s: sums Size from trades");
  ExpectMatch("select d: deltas Price from trades where Symbol=`AAPL");
}

TEST_F(SideBySideTest, AgreementOnFailure) {
  // Both engines must reject unknown names; agreement-on-error counts as a
  // pass in the framework.
  SideBySideHarness::Comparison c =
      harness_.Run("select nocol from trades");
  EXPECT_TRUE(c.match);
  EXPECT_TRUE(c.both_failed);
}

TEST_F(SideBySideTest, BatchRunReportsOnlyFailures) {
  std::vector<std::string> queries = {
      "select from trades where Symbol=`GOOG",
      "select max Price by Symbol from trades",
      "exec sum Size from trades",
  };
  auto failures = harness_.RunAll(queries);
  EXPECT_TRUE(failures.empty());
}

/// Null cells against every comparison: a symbol, a long, a float and a
/// timestamp column, each holding nulls, compared with `= <> < <= > >=`
/// against a non-null and a null literal of the column's type, the literal
/// on either side. Each comparison runs in every position a predicate can
/// take: the only or second `where` condition, under `not`, inside `|` and
/// `&`, as a projected boolean, and as the condition of an update and a
/// delete. q orders null below every value and compares it two-valued;
/// the translated SQL must agree in all of these.
void RunNullCellBattery(SideBySideHarness* h) {
  ASSERT_TRUE(h->DefineTable(
                   "nt",
                   "([] Id: 1 2 3 4 5 6 7 8;"
                   " Symbol: `A``B`C``B`A`C;"
                   " Size: 10 0N 20 30 0N 20 5 40;"
                   " Price: 1.5 2.5 0n 3.5 2.5 0n 0.5 4.5;"
                   " Time: 2026.01.01D10:00:00.000000001 0Np"
                   " 2026.01.01D10:00:00.000000002 0Np"
                   " 2026.01.01D10:00:00.000000003"
                   " 2026.01.01D10:00:00.000000002 0Np"
                   " 2026.01.01D10:00:00.000000001)")
                  .ok());
  struct Operand {
    const char* column;
    const char* value;
    const char* null;
  };
  const Operand operands[] = {
      {"Symbol", "`B", "`"},
      {"Size", "20", "0N"},
      {"Price", "2.5", "0n"},
      {"Time", "2026.01.01D10:00:00.000000002", "0Np"},
  };
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  // `C` is replaced by the comparison.
  const std::string positions[] = {
      "select from nt where C",
      "select from nt where Id>1, C",
      "select from nt where not C",
      "select from nt where (C)|Id=1",
      "select from nt where (C)&Id>1",
      "select Id, b: C from nt",
      "update Id: 0 from nt where C",
      "delete from nt where C",
  };
  int runs = 0;
  for (const Operand& o : operands) {
    for (const char* lit : {o.value, o.null}) {
      for (const char* op : ops) {
        // Parentheses keep a leading null symbol from swallowing the
        // operator.
        const std::string comparisons[] = {
            StrCat(o.column, op, lit),
            StrCat("(", lit, ")", op, o.column),
        };
        for (const std::string& cmp : comparisons) {
          for (const std::string& pos : positions) {
            std::string q = pos;
            q.replace(q.find('C'), 1, cmp);
            SideBySideHarness::Comparison c = h->Run(q);
            ++runs;
            EXPECT_TRUE(c.match && !c.both_failed)
                << "query: " << q << "\nkdb:    " << c.kdb_result.ToString()
                << "\nhyperq: " << c.hyperq_result.ToString()
                << "\nkdb err: " << c.kdb_error
                << "\nhq err:  " << c.hyperq_error << "\nsql: " << c.sql;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 4 * 2 * 6 * 2 * 8);
}

TEST(SideBySideNullCellTest, SingleBackend) {
  SideBySideHarness h;
  RunNullCellBattery(&h);
}

TEST(SideBySideNullCellTest, FourShards) {
  SideBySideHarness h(4);
  RunNullCellBattery(&h);
}

/// A 66-column fact table `w`, a keyed `k` sharing ten of its column
/// names, and a quote table `qt` sharing one. The binder scans only the
/// columns a statement with a column list references, so these cover join
/// sides that share referenced and unreferenced names, and the shapes that
/// must keep every column (distinct, xcol, a select without a list).
TEST(SideBySideWideTableTest, NarrowedScansAgree) {
  SideBySideHarness h;
  const int rows = 8;
  const char* syms[] = {"A", "B", "C", "A", "B", "C", "A", "A"};
  auto sym_list = [&](int n) {
    std::string out;
    for (int r = 0; r < n; ++r) out += StrCat("`", syms[r]);
    return out;
  };
  // Rows 0 and 7 are identical apart from their position, so distinct
  // over every column keeps 7 rows, while c0 alone holds 4 values.
  auto value = [](int col, int r) {
    if (r == 7) r = 0;
    return col == 0 ? r % 4 : (col * 7 + r * 3) % 11;
  };
  auto floats = [&](int col, int n) {
    std::string out;
    for (int r = 0; r < n; ++r) {
      out += StrCat(r == 0 ? "" : " ", value(col, r), ".5");
    }
    return out;
  };
  std::string w = StrCat("([] sym: ", sym_list(rows),
                         "; t: 09:30:00.000 09:30:01.000 09:30:02.000 "
                         "09:30:03.000 09:30:04.000 09:30:05.000 "
                         "09:30:06.000 09:30:00.000");
  for (int c = 0; c < 64; ++c) w += StrCat("; c", c, ": ", floats(c, rows));
  w += ")";
  ASSERT_TRUE(h.DefineTable("w", w).ok());
  std::string k = "([sym: `A`B`C]";
  for (int c = 0; c < 10; ++c) {
    k += StrCat(c == 0 ? " " : "; ", "c", c, ": ", floats(c + 40, 3));
  }
  for (int c = 0; c < 4; ++c) k += StrCat("; d", c, ": ", floats(c, 3));
  k += ")";
  ASSERT_TRUE(h.DefineTable("k", k).ok());
  ASSERT_TRUE(h.DefineTable("qt",
                            "([] sym: `A`B`A`C; t: 09:29:59.000 09:30:01.500 "
                            "09:30:02.500 09:30:03.000; c5: 1.5 2.5 3.5 4.5; "
                            "e0: 10 20 30 40)")
                  .ok());
  const char* queries[] = {
      // lj: the sides share a referenced name (c1) ...
      "select sym, c1, d0 from w lj k",
      "select s: sum c1 by sym from w lj k",
      // ... or only unreferenced ones (c0..c9 against c20, d1).
      "select sym, c20, d1 from w lj k",
      "select c3, d2 from (select from w where c0>2) lj k",
      "select sym, c63 from w ij k",
      // Whole-row shapes.
      "select from w lj k",
      "select c0 from distinct w",
      "select n: count c0 from distinct w",
      "select b, c2 from `a`b xcol w",
      "select c1 from update c1: 2*c1 from w where c0>1",
      "select c2 from delete from w where c3>4",
      // aj, ej, sorts, take and counts.
      "select sym, t, c5, e0 from aj[`sym`t; w; qt]",
      "aj[`sym`t; select sym, t, c4 from w; qt]",
      "select sym, c2, d3 from ej[`sym; w; 0!k]",
      "select c7 from `c6 xdesc w",
      "select c7 from `c6 xasc w",
      "select[3] c7 from `c6 xdesc w",
      "select[-3] c7 from `c6 xdesc w",
      "3#select c7 from `c6 xdesc w",
      "-3#select c7 from `c6 xdesc w",
      "-3#`c6 xasc w",
      "select[-2] c7 from `c6 xdesc w where c0>0",
      "2#select from `c6 xdesc w where c0>0",
      "select c8 from 3#w",
      "count w",
      "exec max c9 from w where sym=`A",
      "select c10, c11 from w uj w",
  };
  for (const char* q : queries) {
    SideBySideHarness::Comparison c = h.Run(q);
    EXPECT_TRUE(c.match && !c.both_failed)
        << "query: " << q << "\nkdb:    " << c.kdb_result.ToString()
        << "\nhyperq: " << c.hyperq_result.ToString()
        << "\nkdb err: " << c.kdb_error << "\nhq err:  " << c.hyperq_error
        << "\nsql: " << c.sql;
  }
}

TEST(MarketDataTest, GeneratorShapeAndDeterminism) {
  MarketDataOptions opts;
  opts.trades_per_symbol = 10;
  opts.quotes_per_symbol = 30;
  MarketData a = GenerateMarketData(opts);
  MarketData b = GenerateMarketData(opts);
  ASSERT_TRUE(a.trades.IsTable());
  EXPECT_EQ(a.trades.Table().names,
            (std::vector<std::string>{"Date", "Symbol", "Time", "Price",
                                      "Size"}));
  EXPECT_EQ(a.quotes.Table().names,
            (std::vector<std::string>{"Date", "Symbol", "Time", "Bid",
                                      "Ask"}));
  // Deterministic for the same seed.
  EXPECT_TRUE(QValue::Match(a.trades, b.trades));
  EXPECT_TRUE(QValue::Match(a.quotes, b.quotes));
  // Time-ordered.
  const auto& times = a.trades.Table().columns[2].Ints();
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
  // Bid below ask everywhere.
  const auto& bid = a.quotes.Table().columns[3].Floats();
  const auto& ask = a.quotes.Table().columns[4].Floats();
  for (size_t i = 0; i < bid.size(); ++i) {
    EXPECT_LT(bid[i], ask[i]);
  }
}

TEST(MarketDataTest, SeedChangesData) {
  MarketDataOptions a;
  MarketDataOptions b;
  b.seed = 77;
  EXPECT_FALSE(QValue::Match(GenerateMarketData(a).trades,
                             GenerateMarketData(b).trades));
}

}  // namespace
}  // namespace testing
}  // namespace hyperq
