#include <gtest/gtest.h>

#include "common/strings.h"
#include "qval/temporal.h"
#include "sqldb/database.h"

namespace hyperq {
namespace sqldb {
namespace {

class SqlDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = db_.CreateSession();
    Run("CREATE TABLE trades (symbol varchar, price double precision, "
        "size bigint, ts time)");
    Run("INSERT INTO trades VALUES "
        "('GOOG', 720.5, 100, '09:30:00'),"
        "('IBM', 151.2, 200, '09:30:01'),"
        "('GOOG', 721.0, 150, '09:30:02'),"
        "('MSFT', 52.1, 300, '09:30:03'),"
        "('IBM', 150.9, 120, '09:30:04')");
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(session_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  Status RunErr(const std::string& sql) {
    auto r = db_.Execute(session_.get(), sql);
    EXPECT_FALSE(r.ok()) << sql << " unexpectedly succeeded";
    return r.ok() ? Status::OK() : r.status();
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlDbTest, BasicSelect) {
  QueryResult r = Run("SELECT symbol, price FROM trades");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.columns[0].name, "symbol");
  EXPECT_EQ(r.rows[0][0].AsString(), "GOOG");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 720.5);
}

TEST_F(SqlDbTest, SelectStar) {
  QueryResult r = Run("SELECT * FROM trades");
  EXPECT_EQ(r.columns.size(), 4u);
}

TEST_F(SqlDbTest, WhereFilter) {
  QueryResult r = Run("SELECT price FROM trades WHERE symbol = 'GOOG'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlDbTest, Arithmetic) {
  QueryResult r = Run("SELECT price * size AS notional FROM trades "
                      "WHERE symbol = 'MSFT'");
  EXPECT_EQ(r.columns[0].name, "notional");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 52.1 * 300);
}

TEST_F(SqlDbTest, IntegerDivisionTruncates) {
  QueryResult r = Run("SELECT 7 / 2");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);  // PG semantics
  QueryResult f = Run("SELECT 7 / 2.0");
  EXPECT_DOUBLE_EQ(f.rows[0][0].AsDouble(), 3.5);
}

TEST_F(SqlDbTest, ThreeValuedLogicNulls) {
  Run("CREATE TABLE n (x bigint)");
  Run("INSERT INTO n VALUES (1), (NULL), (3)");
  // NULL = NULL is unknown in SQL, so equality drops null rows.
  QueryResult eq = Run("SELECT * FROM n WHERE x = x");
  EXPECT_EQ(eq.rows.size(), 2u);
  // IS NOT DISTINCT FROM provides 2-valued logic (what Hyper-Q emits, §3.3).
  QueryResult ind = Run("SELECT * FROM n WHERE x IS NOT DISTINCT FROM x");
  EXPECT_EQ(ind.rows.size(), 3u);
  QueryResult isnull = Run("SELECT * FROM n WHERE x IS NULL");
  EXPECT_EQ(isnull.rows.size(), 1u);
}

TEST_F(SqlDbTest, NullComparisonIsUnknown) {
  QueryResult r = Run("SELECT 1 WHERE NULL = NULL");
  EXPECT_EQ(r.rows.size(), 0u);
  QueryResult r2 = Run("SELECT 1 WHERE NULL IS NOT DISTINCT FROM NULL");
  EXPECT_EQ(r2.rows.size(), 1u);
}

TEST_F(SqlDbTest, AndOrKleene) {
  // NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
  EXPECT_EQ(Run("SELECT 1 WHERE NULL OR TRUE").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT 1 WHERE NULL AND TRUE").rows.size(), 0u);
  EXPECT_EQ(Run("SELECT 1 WHERE NULL AND FALSE").rows.size(), 0u);
}

TEST_F(SqlDbTest, Aggregates) {
  QueryResult r = Run(
      "SELECT COUNT(*), SUM(size), AVG(price), MIN(price), MAX(price) "
      "FROM trades");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 870);
  EXPECT_NEAR(r.rows[0][2].AsDouble(), (720.5 + 151.2 + 721.0 + 52.1 + 150.9) / 5, 1e-9);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 52.1);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 721.0);
}

TEST_F(SqlDbTest, AggregatesIgnoreNulls) {
  Run("CREATE TABLE n (x bigint)");
  Run("INSERT INTO n VALUES (1), (NULL), (3)");
  QueryResult r = Run("SELECT COUNT(*), COUNT(x), SUM(x) FROM n");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[0][2].AsInt(), 4);
}

TEST_F(SqlDbTest, EmptyAggregateIsNull) {
  QueryResult r = Run("SELECT SUM(price), COUNT(*) FROM trades WHERE false");
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1].AsInt(), 0);
}

TEST_F(SqlDbTest, GroupBy) {
  QueryResult r = Run(
      "SELECT symbol, MAX(price) AS mx FROM trades GROUP BY symbol "
      "ORDER BY symbol");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "GOOG");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 721.0);
  EXPECT_EQ(r.rows[2][0].AsString(), "MSFT");
}

TEST_F(SqlDbTest, GroupByHaving) {
  QueryResult r = Run(
      "SELECT symbol, COUNT(*) AS n FROM trades GROUP BY symbol "
      "HAVING COUNT(*) > 1 ORDER BY symbol");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "GOOG");
  EXPECT_EQ(r.rows[1][0].AsString(), "IBM");
}

TEST_F(SqlDbTest, CountDistinct) {
  QueryResult r = Run("SELECT COUNT(DISTINCT symbol) FROM trades");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(SqlDbTest, OrderByDirectionsAndNulls) {
  Run("CREATE TABLE n (x bigint)");
  Run("INSERT INTO n VALUES (2), (NULL), (1)");
  QueryResult asc = Run("SELECT x FROM n ORDER BY x ASC");
  EXPECT_EQ(asc.rows[0][0].AsInt(), 1);
  EXPECT_TRUE(asc.rows[2][0].is_null());  // PG: NULLS LAST for ASC
  QueryResult desc = Run("SELECT x FROM n ORDER BY x DESC");
  EXPECT_TRUE(desc.rows[0][0].is_null());  // NULLS FIRST for DESC
  QueryResult nf = Run("SELECT x FROM n ORDER BY x ASC NULLS FIRST");
  EXPECT_TRUE(nf.rows[0][0].is_null());
}

TEST_F(SqlDbTest, OrderByOrdinalAndExpression) {
  QueryResult r = Run("SELECT symbol, price FROM trades ORDER BY 2 DESC");
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 721.0);
  QueryResult e = Run("SELECT symbol FROM trades ORDER BY price * -1");
  EXPECT_EQ(e.rows[0][0].AsString(), "GOOG");
}

TEST_F(SqlDbTest, LimitOffset) {
  QueryResult r = Run("SELECT price FROM trades ORDER BY price LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 150.9);
}

TEST_F(SqlDbTest, Distinct) {
  QueryResult r = Run("SELECT DISTINCT symbol FROM trades ORDER BY symbol");
  ASSERT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlDbTest, InnerJoin) {
  Run("CREATE TABLE ref (symbol varchar, sector varchar)");
  Run("INSERT INTO ref VALUES ('GOOG','tech'), ('IBM','svc')");
  QueryResult r = Run(
      "SELECT t.symbol, r.sector FROM trades t JOIN ref r "
      "ON t.symbol = r.symbol ORDER BY t.symbol");
  EXPECT_EQ(r.rows.size(), 4u);  // MSFT drops out
}

TEST_F(SqlDbTest, LeftJoinPadsNulls) {
  Run("CREATE TABLE ref (symbol varchar, sector varchar)");
  Run("INSERT INTO ref VALUES ('GOOG','tech')");
  QueryResult r = Run(
      "SELECT t.symbol, r.sector FROM trades t LEFT JOIN ref r "
      "ON t.symbol = r.symbol WHERE t.symbol = 'IBM'");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlDbTest, JoinWithRangeCondition) {
  // Non-equi joins exercise the nested-loop fallback (as-of lowering).
  Run("CREATE TABLE q (symbol varchar, qts time, bid double precision)");
  Run("INSERT INTO q VALUES ('GOOG','09:29:59',719.9), "
      "('GOOG','09:30:01.500',720.7)");
  QueryResult r = Run(
      "SELECT t.symbol, q.bid FROM trades t JOIN q "
      "ON t.symbol = q.symbol AND q.qts <= t.ts "
      "WHERE t.ts = TIME '09:30:00'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 719.9);
}

TEST_F(SqlDbTest, NullSafeJoinKey) {
  Run("CREATE TABLE a (k bigint)");
  Run("CREATE TABLE b (k bigint)");
  Run("INSERT INTO a VALUES (1), (NULL)");
  Run("INSERT INTO b VALUES (NULL), (2)");
  // Plain equality never matches NULL keys.
  EXPECT_EQ(Run("SELECT * FROM a JOIN b ON a.k = b.k").rows.size(), 0u);
  // Null-safe equality matches them (Q 2VL imposed via IS NOT DISTINCT).
  EXPECT_EQ(Run("SELECT * FROM a JOIN b ON a.k IS NOT DISTINCT FROM b.k")
                .rows.size(),
            1u);
}

TEST_F(SqlDbTest, CrossJoin) {
  Run("CREATE TABLE x (a bigint)");
  Run("INSERT INTO x VALUES (1), (2)");
  EXPECT_EQ(Run("SELECT * FROM x CROSS JOIN trades").rows.size(), 10u);
}

TEST_F(SqlDbTest, Subquery) {
  QueryResult r = Run(
      "SELECT s.symbol FROM (SELECT symbol, price FROM trades "
      "WHERE price > 100) AS s WHERE s.price > 700 ORDER BY s.symbol");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlDbTest, WindowRowNumber) {
  QueryResult r = Run(
      "SELECT symbol, ROW_NUMBER() OVER (PARTITION BY symbol ORDER BY ts) "
      "AS rn FROM trades ORDER BY symbol, rn");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);  // GOOG first
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);  // GOOG second
}

TEST_F(SqlDbTest, WindowLagLead) {
  QueryResult r = Run(
      "SELECT price, LAG(price) OVER (ORDER BY ts) AS prev FROM trades "
      "ORDER BY ts");
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_DOUBLE_EQ(r.rows[1][1].AsDouble(), 720.5);
}

TEST_F(SqlDbTest, WindowRunningSum) {
  QueryResult r = Run(
      "SELECT SUM(size) OVER (ORDER BY ts) AS cum FROM trades ORDER BY ts");
  EXPECT_EQ(r.rows[0][0].AsInt(), 100);
  EXPECT_EQ(r.rows[4][0].AsInt(), 870);
}

TEST_F(SqlDbTest, WindowFrameRows) {
  QueryResult r = Run(
      "SELECT SUM(size) OVER (ORDER BY ts ROWS BETWEEN 1 PRECEDING AND "
      "CURRENT ROW) FROM trades ORDER BY ts");
  EXPECT_EQ(r.rows[0][0].AsInt(), 100);
  EXPECT_EQ(r.rows[1][0].AsInt(), 300);
}

TEST_F(SqlDbTest, WindowLeadForAsOfLowering) {
  // The LEAD-based next-time computation that Hyper-Q's aj lowering uses.
  Run("CREATE TABLE q2 (symbol varchar, qts time, bid double precision)");
  Run("INSERT INTO q2 VALUES ('G','09:00:00',1.0), ('G','09:00:10',2.0), "
      "('I','09:00:05',3.0)");
  QueryResult r = Run(
      "SELECT symbol, bid, LEAD(qts) OVER (PARTITION BY symbol ORDER BY qts)"
      " AS next_ts FROM q2 ORDER BY symbol, qts");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_FALSE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[1][2].is_null());   // last G quote
  EXPECT_TRUE(r.rows[2][2].is_null());   // only I quote
}

TEST_F(SqlDbTest, WindowRankAndDenseRank) {
  Run("CREATE TABLE r (g varchar, v bigint)");
  Run("INSERT INTO r VALUES ('a',10),('a',10),('a',20),('a',30),('a',30),"
      "('a',40)");
  QueryResult rk = Run(
      "SELECT v, RANK() OVER (ORDER BY v) AS rk, "
      "DENSE_RANK() OVER (ORDER BY v) AS dr FROM r ORDER BY v");
  ASSERT_EQ(rk.rows.size(), 6u);
  // v:    10 10 20 30 30 40
  // rank:  1  1  3  4  4  6
  // dense: 1  1  2  3  3  4
  int64_t expect_rank[] = {1, 1, 3, 4, 4, 6};
  int64_t expect_dense[] = {1, 1, 2, 3, 3, 4};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rk.rows[i][1].AsInt(), expect_rank[i]) << i;
    EXPECT_EQ(rk.rows[i][2].AsInt(), expect_dense[i]) << i;
  }
}

TEST_F(SqlDbTest, WindowFirstLastValueWithPeers) {
  Run("CREATE TABLE w (v bigint)");
  Run("INSERT INTO w VALUES (1),(2),(2),(3)");
  // Default frame ends at the last peer: LAST_VALUE over ORDER BY v sees
  // both 2s at v=2.
  QueryResult r = Run(
      "SELECT v, FIRST_VALUE(v) OVER (ORDER BY v), "
      "LAST_VALUE(v) OVER (ORDER BY v) FROM w ORDER BY v");
  EXPECT_EQ(r.rows[1][1].AsInt(), 1);
  EXPECT_EQ(r.rows[1][2].AsInt(), 2);  // last peer of the 2-group
  EXPECT_EQ(r.rows[3][2].AsInt(), 3);
}

TEST_F(SqlDbTest, FirstLastAggregatesUseRowOrder) {
  QueryResult r = Run(
      "SELECT symbol, FIRST(price), LAST(price) FROM trades "
      "GROUP BY symbol ORDER BY symbol");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 720.5);  // first GOOG
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 721.0);  // last GOOG
}

TEST_F(SqlDbTest, GreatestLeastAndNullif) {
  EXPECT_EQ(Run("SELECT GREATEST(1, 5, 3)").rows[0][0].AsInt(), 5);
  EXPECT_EQ(Run("SELECT LEAST(1, 5, 3)").rows[0][0].AsInt(), 1);
  EXPECT_TRUE(Run("SELECT NULLIF(2, 2)").rows[0][0].is_null());
  EXPECT_EQ(Run("SELECT NULLIF(2, 3)").rows[0][0].AsInt(), 2);
  // GREATEST ignores nulls (PG semantics).
  EXPECT_EQ(Run("SELECT GREATEST(NULL, 4)").rows[0][0].AsInt(), 4);
}

TEST_F(SqlDbTest, ConcatAndSubstr) {
  EXPECT_EQ(Run("SELECT 'a' || 'b'").rows[0][0].AsString(), "ab");
  EXPECT_EQ(Run("SELECT SUBSTR('hello', 2, 3)").rows[0][0].AsString(),
            "ell");
  EXPECT_EQ(Run("SELECT UPPER('x') || LOWER('Y')").rows[0][0].AsString(),
            "Xy");
}

TEST_F(SqlDbTest, CaseWhen) {
  QueryResult r = Run(
      "SELECT CASE WHEN price > 200 THEN 'big' ELSE 'small' END "
      "FROM trades ORDER BY price DESC");
  EXPECT_EQ(r.rows[0][0].AsString(), "big");
  EXPECT_EQ(r.rows[4][0].AsString(), "small");
}

TEST_F(SqlDbTest, CastSyntaxBothForms) {
  EXPECT_EQ(Run("SELECT CAST(2.7 AS bigint)").rows[0][0].AsInt(), 3);
  EXPECT_EQ(Run("SELECT '42'::bigint").rows[0][0].AsInt(), 42);
  EXPECT_EQ(Run("SELECT 1::boolean").rows[0][0].AsBool(), true);
}

TEST_F(SqlDbTest, ScalarFunctions) {
  EXPECT_EQ(Run("SELECT ABS(-5)").rows[0][0].AsInt(), 5);
  EXPECT_DOUBLE_EQ(Run("SELECT SQRT(9)").rows[0][0].AsDouble(), 3.0);
  EXPECT_EQ(Run("SELECT UPPER('goog')").rows[0][0].AsString(), "GOOG");
  EXPECT_EQ(Run("SELECT COALESCE(NULL, 7)").rows[0][0].AsInt(), 7);
  EXPECT_EQ(Run("SELECT LENGTH('abc')").rows[0][0].AsInt(), 3);
  EXPECT_DOUBLE_EQ(Run("SELECT FLOOR(2.9)").rows[0][0].AsDouble(), 2.0);
}

TEST_F(SqlDbTest, InListAndBetween) {
  EXPECT_EQ(Run("SELECT * FROM trades WHERE symbol IN ('GOOG','IBM')")
                .rows.size(),
            4u);
  EXPECT_EQ(Run("SELECT * FROM trades WHERE price BETWEEN 100 AND 200")
                .rows.size(),
            2u);
  EXPECT_EQ(Run("SELECT * FROM trades WHERE symbol NOT IN ('GOOG')")
                .rows.size(),
            3u);
}

TEST_F(SqlDbTest, LikePatterns) {
  EXPECT_EQ(Run("SELECT * FROM trades WHERE symbol LIKE 'G%'").rows.size(),
            2u);
  EXPECT_EQ(Run("SELECT * FROM trades WHERE symbol LIKE '_BM'").rows.size(),
            2u);
}

TEST_F(SqlDbTest, UnionAll) {
  QueryResult r = Run(
      "SELECT symbol FROM trades WHERE symbol = 'GOOG' "
      "UNION ALL SELECT symbol FROM trades WHERE symbol = 'IBM' "
      "ORDER BY symbol");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsString(), "GOOG");
  EXPECT_EQ(r.rows[3][0].AsString(), "IBM");
}

TEST_F(SqlDbTest, TemporaryTableLifecycle) {
  Run("CREATE TEMPORARY TABLE HQ_TEMP_1 AS SELECT price FROM trades "
      "WHERE symbol = 'GOOG'");
  EXPECT_EQ(Run("SELECT * FROM HQ_TEMP_1").rows.size(), 2u);
  // A different session cannot see it.
  auto other = db_.CreateSession();
  EXPECT_FALSE(db_.Execute(other.get(), "SELECT * FROM HQ_TEMP_1").ok());
  Run("DROP TABLE HQ_TEMP_1");
  EXPECT_FALSE(db_.Execute(session_.get(), "SELECT * FROM HQ_TEMP_1").ok());
}

TEST_F(SqlDbTest, Views) {
  Run("CREATE VIEW goog AS SELECT * FROM trades WHERE symbol = 'GOOG'");
  EXPECT_EQ(Run("SELECT * FROM goog").rows.size(), 2u);
  Run("DROP VIEW goog");
  EXPECT_FALSE(db_.Execute(session_.get(), "SELECT * FROM goog").ok());
}

TEST_F(SqlDbTest, InsertSelect) {
  Run("CREATE TABLE copy1 (symbol varchar, price double precision)");
  Run("INSERT INTO copy1 SELECT symbol, price FROM trades");
  EXPECT_EQ(Run("SELECT COUNT(*) FROM copy1").rows[0][0].AsInt(), 5);
}

TEST_F(SqlDbTest, TemporalLiteralsAndComparison) {
  QueryResult r = Run(
      "SELECT * FROM trades WHERE ts >= TIME '09:30:02'");
  EXPECT_EQ(r.rows.size(), 3u);
  QueryResult d = Run("SELECT DATE '2016-06-26'");
  EXPECT_EQ(d.rows[0][0].AsInt(), YmdToQDays(2016, 6, 26));
}

TEST_F(SqlDbTest, DivisionByZeroIsError) {
  Status s = RunErr("SELECT 1 / 0");
  EXPECT_EQ(s.code(), StatusCode::kExecutionError);
}

TEST_F(SqlDbTest, UnknownColumnErrorIsVerbose) {
  Status s = RunErr("SELECT nosuchcol FROM trades");
  EXPECT_NE(s.message().find("nosuchcol"), std::string::npos);
  EXPECT_NE(s.message().find("symbol"), std::string::npos);  // lists columns
  // The scan keeps only `symbol`, but the message names every column.
  s = RunErr("SELECT symbol FROM trades WHERE nope > 1");
  EXPECT_EQ(s.ToString(),
            "BindError: column \"nope\" does not exist; available columns: "
            "trades.symbol, trades.price, trades.size, trades.ts");
}

TEST_F(SqlDbTest, ClausesSeeColumnsTheSelectListLeavesOut) {
  // The executor drops FROM columns no clause reads; WHERE, window
  // PARTITION BY/ORDER BY, HAVING and ORDER BY keys still read theirs.
  QueryResult win = Run(
      "SELECT symbol, SUM(size) OVER (PARTITION BY symbol ORDER BY ts) AS run "
      "FROM trades WHERE price > 100 ORDER BY run");
  ASSERT_EQ(win.rows.size(), 4u);
  const char* syms[] = {"GOOG", "IBM", "GOOG", "IBM"};
  const int64_t runs[] = {100, 200, 250, 320};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(win.rows[i][0].AsString(), syms[i]) << i;
    EXPECT_EQ(win.rows[i][1].AsInt(), runs[i]) << i;
  }
  QueryResult having = Run(
      "SELECT symbol FROM trades GROUP BY symbol HAVING SUM(size) > 250 "
      "ORDER BY symbol");
  ASSERT_EQ(having.rows.size(), 2u);
  EXPECT_EQ(having.rows[0][0].AsString(), "IBM");
  EXPECT_EQ(having.rows[1][0].AsString(), "MSFT");
  // A reference binds against the whole FROM schema before the scan is
  // narrowed, so the error still lists the columns no clause reads.
  Status s = RunErr("SELECT symbol FROM trades WHERE price > 1 ORDER BY nope");
  EXPECT_NE(s.message().find("size"), std::string::npos) << s.ToString();
}

/// Every column, type and cell of a result, for comparing two runs.
std::string Render(const QueryResult& r) {
  std::string out;
  for (const TableColumn& c : r.columns) {
    out += c.name + ":" + SqlTypeName(c.type) + " ";
  }
  for (size_t row = 0; row < r.data.row_count; ++row) {
    out += "\n";
    for (size_t c = 0; c < r.data.columns.size(); ++c) {
      out += r.data.At(row, c).ToText() + "|";
    }
  }
  return out;
}

TEST_F(SqlDbTest, SelfJoinBindsQualifiedNamesLikeAFullWidthRun) {
  // Both aliases expose the same four names. Each query runs as written
  // (the scans keep only the columns it reads) and again with a WHERE
  // tautology over every column of both aliases (nothing narrowed); the
  // two must agree cell for cell.
  std::string every;
  for (const char* alias : {"a", "b"}) {
    for (const char* col : {"symbol", "price", "size", "ts"}) {
      every += StrCat(" AND (", alias, ".", col, " IS NULL OR ", alias, ".",
                      col, " IS NOT NULL)");
    }
  }
  const std::string join =
      "FROM trades a JOIN trades b ON a.symbol = b.symbol AND a.ts <= b.ts "
      "AND CASE WHEN a.price > b.price THEN a.size ELSE b.size END > 0 ";
  const std::string windowed =
      "SELECT a.symbol, b.price, "
      "CASE WHEN a.price > b.price THEN a.size ELSE b.size END AS pick, "
      "SUM(b.size) OVER (PARTITION BY a.symbol ORDER BY b.ts) AS run " +
      join + "WHERE b.size >= a.size - 100";
  const std::string grouped =
      "SELECT a.symbol, COUNT(*) AS n, SUM(b.size) AS s " + join +
      "WHERE TRUE";
  const std::pair<std::string, std::string> queries[] = {
      {windowed, " ORDER BY a.ts, b.ts"},
      {grouped, " GROUP BY a.symbol HAVING a.symbol <> 'MSFT' AND "
                "SUM(b.size) > MIN(a.size) ORDER BY a.symbol"},
  };
  for (const auto& [head, tail] : queries) {
    QueryResult narrow = Run(head + tail);
    QueryResult full = Run(head + every + tail);
    EXPECT_GT(narrow.data.row_count, 0u) << head;
    EXPECT_EQ(Render(narrow), Render(full)) << head << tail;
  }
  QueryResult win = Run(windowed + " ORDER BY a.ts, b.ts");
  ASSERT_EQ(win.rows.size(), 7u);  // GOOG 3 pairs, IBM 3, MSFT 1
  EXPECT_EQ(win.rows[0][0].AsString(), "GOOG");
  EXPECT_EQ(win.rows[0][2].AsInt(), 100);
}

TEST_F(SqlDbTest, UnresolvedReferenceInCaseOverZeroRows) {
  // A CASE evaluates row by row, so over zero rows its bad reference is
  // never reached; over any row it raises the bind error.
  QueryResult none = Run(
      "SELECT CASE WHEN nope > 1 THEN size ELSE 0 END AS c FROM trades "
      "WHERE size < 0");
  EXPECT_EQ(none.data.row_count, 0u);
  ASSERT_EQ(none.columns.size(), 1u);
  EXPECT_EQ(none.columns[0].name, "c");
  EXPECT_EQ(none.columns[0].type, SqlType::kBigInt);
  Status s = RunErr(
      "SELECT CASE WHEN nope > 1 THEN size ELSE 0 END AS c FROM trades");
  EXPECT_NE(s.message().find("\"nope\" does not exist"), std::string::npos)
      << s.ToString();
}

TEST_F(SqlDbTest, UnknownTableError) {
  Status s = RunErr("SELECT * FROM nosuchtable");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(SqlDbTest, AmbiguousColumnError) {
  Status s = RunErr(
      "SELECT symbol FROM trades t1 JOIN trades t2 ON t1.size = t2.size");
  EXPECT_NE(s.message().find("ambiguous"), std::string::npos);
}

TEST_F(SqlDbTest, StddevAndVariance) {
  Run("CREATE TABLE v (x double precision)");
  Run("INSERT INTO v VALUES (2), (4), (4), (4), (5), (5), (7), (9)");
  EXPECT_DOUBLE_EQ(Run("SELECT STDDEV_POP(x) FROM v").rows[0][0].AsDouble(),
                   2.0);
  EXPECT_DOUBLE_EQ(Run("SELECT VAR_POP(x) FROM v").rows[0][0].AsDouble(),
                   4.0);
}

TEST_F(SqlDbTest, MedianExtension) {
  // PG proper needs percentile_cont; the mini engine ships median() so the
  // serializer can translate q's med directly.
  Run("CREATE TABLE v (x double precision)");
  Run("INSERT INTO v VALUES (1), (3), (2)");
  EXPECT_DOUBLE_EQ(Run("SELECT MEDIAN(x) FROM v").rows[0][0].AsDouble(), 2.0);
}

TEST_F(SqlDbTest, GroupByExpression) {
  QueryResult r = Run(
      "SELECT size / 100 AS bucket, COUNT(*) FROM trades "
      "GROUP BY size / 100 ORDER BY bucket");
  EXPECT_GE(r.rows.size(), 2u);
}

TEST_F(SqlDbTest, SelectWithoutFrom) {
  QueryResult r = Run("SELECT 1 + 2 AS three, 'x' AS s");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.columns[0].name, "three");
}

TEST_F(SqlDbTest, QuotedIdentifiersPreserveCase) {
  Run("CREATE TABLE \"CamelCase\" (\"Price\" double precision)");
  Run("INSERT INTO \"CamelCase\" VALUES (1.5)");
  QueryResult r = Run("SELECT \"Price\" FROM \"CamelCase\"");
  EXPECT_EQ(r.columns[0].name, "Price");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 1.5);
}

TEST_F(SqlDbTest, AppendColumnsIsCopyOnWriteForSnapshotHolders) {
  // A reader holding the StoredTable snapshot from before a flush must
  // never observe the appended rows — the epoch-pinned hybrid split relies
  // on exactly this. A flush is a data-only change: the global catalog
  // version, which gates the schema-dependent translation cache, stays
  // put.
  Result<std::shared_ptr<StoredTable>> before =
      db_.catalog().GetTable("trades");
  ASSERT_TRUE(before.ok());
  size_t rows_before = (*before)->row_count;
  uint64_t global0 = db_.catalog().version();
  std::vector<ColumnPtr> cols = {
      Column::FromStrings(SqlType::kVarchar, {"ORCL", "ORCL"}),
      Column::FromFloats(SqlType::kDouble, {39.5, 39.6}),
      Column::FromInts(SqlType::kBigInt, {50, 60}),
      Column::FromInts(SqlType::kTime, {34205000, 34206000})};
  ASSERT_TRUE(db_.catalog().AppendColumns("trades", cols, 2).ok());

  EXPECT_EQ(db_.catalog().version(), global0)
      << "a data flush must not invalidate schema-level caches";
  EXPECT_EQ((*before)->row_count, rows_before);
  EXPECT_EQ((*before)->data[0]->size(), rows_before);
  Result<std::shared_ptr<StoredTable>> after =
      db_.catalog().GetTable("trades");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->row_count, rows_before + 2);

  // Shape validation: misaligned column counts and ragged lengths are
  // rejected without mutating the table.
  std::vector<ColumnPtr> wrong_arity = {
      Column::FromStrings(SqlType::kVarchar, {"X"})};
  EXPECT_FALSE(db_.catalog().AppendColumns("trades", wrong_arity, 1).ok());
  std::vector<ColumnPtr> ragged = {
      Column::FromStrings(SqlType::kVarchar, {"X"}),
      Column::FromFloats(SqlType::kDouble, {1.0, 2.0}),
      Column::FromInts(SqlType::kBigInt, {1}),
      Column::FromInts(SqlType::kTime, {1})};
  EXPECT_FALSE(db_.catalog().AppendColumns("trades", ragged, 1).ok());
  EXPECT_FALSE(db_.catalog().AppendColumns("nosuch", cols, 2).ok());
  Result<std::shared_ptr<StoredTable>> final_t =
      db_.catalog().GetTable("trades");
  ASSERT_TRUE(final_t.ok());
  EXPECT_EQ((*final_t)->row_count, rows_before + 2);

  Run("INSERT INTO trades VALUES ('IBM', 151.0, 10, '09:31:00')");
  EXPECT_GT(db_.catalog().version(), global0)
      << "DML must keep bumping the global version";
}

}  // namespace
}  // namespace sqldb
}  // namespace hyperq
