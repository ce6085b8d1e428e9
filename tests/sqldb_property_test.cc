#include <map>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "common/worker_pool.h"
#include "sqldb/database.h"
#include "testing/market_data.h"

namespace hyperq {
namespace sqldb {
namespace {

/// Relational-invariant sweeps over randomly generated tables,
/// parameterized by seed.
class SqlDbProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    session_ = db_.CreateSession();
    Run("CREATE TABLE t (g varchar, v bigint, f double precision)");
    hyperq::testing::Rng rng(GetParam());
    std::vector<std::string> rows;
    size_t n = 50 + rng.Below(100);
    for (size_t i = 0; i < n; ++i) {
      std::string g = StrCat("'g", rng.Below(6), "'");
      std::string v = rng.Below(10) == 0
                          ? "NULL"
                          : StrCat(static_cast<int64_t>(rng.Below(1000)) -
                                   500);
      std::string f = StrCat(rng.NextDouble() * 100);
      rows.push_back(StrCat("(", g, ",", v, ",", f, ")"));
    }
    Run(StrCat("INSERT INTO t VALUES ", Join(rows, ",")));
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(session_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_P(SqlDbProperty, GroupSumsEqualTotalSum) {
  QueryResult total = Run("SELECT SUM(v), COUNT(v) FROM t");
  QueryResult groups =
      Run("SELECT g, SUM(v) AS s, COUNT(v) AS c FROM t GROUP BY g");
  int64_t sum = 0, cnt = 0;
  for (const auto& row : groups.rows) {
    if (!row[1].is_null()) sum += row[1].AsInt();
    cnt += row[2].AsInt();
  }
  if (!total.rows[0][0].is_null()) {
    EXPECT_EQ(sum, total.rows[0][0].AsInt());
  }
  EXPECT_EQ(cnt, total.rows[0][1].AsInt());
}

TEST_P(SqlDbProperty, FilterPartitionsRows) {
  int64_t all = Run("SELECT COUNT(*) FROM t").rows[0][0].AsInt();
  int64_t pos = Run("SELECT COUNT(*) FROM t WHERE v > 0").rows[0][0].AsInt();
  int64_t nonpos =
      Run("SELECT COUNT(*) FROM t WHERE v <= 0").rows[0][0].AsInt();
  int64_t nulls =
      Run("SELECT COUNT(*) FROM t WHERE v IS NULL").rows[0][0].AsInt();
  // 3VL: every row is exactly one of >0, <=0 or NULL.
  EXPECT_EQ(all, pos + nonpos + nulls);
}

TEST_P(SqlDbProperty, OrderByProducesSortedOutput) {
  QueryResult r = Run("SELECT v FROM t ORDER BY v ASC NULLS LAST");
  bool seen_null = false;
  for (size_t i = 1; i < r.rows.size(); ++i) {
    if (r.rows[i][0].is_null()) {
      seen_null = true;
      continue;
    }
    EXPECT_FALSE(seen_null) << "non-null after null at row " << i;
    if (!r.rows[i - 1][0].is_null()) {
      EXPECT_LE(r.rows[i - 1][0].AsInt(), r.rows[i][0].AsInt());
    }
  }
}

TEST_P(SqlDbProperty, DistinctMatchesGroupByCardinality) {
  size_t distinct = Run("SELECT DISTINCT g FROM t").rows.size();
  size_t grouped = Run("SELECT g FROM t GROUP BY g").rows.size();
  EXPECT_EQ(distinct, grouped);
}

TEST_P(SqlDbProperty, LimitOffsetPartition) {
  QueryResult ordered = Run("SELECT f FROM t ORDER BY f");
  size_t n = ordered.rows.size();
  size_t k = n / 3;
  QueryResult head = Run(StrCat("SELECT f FROM t ORDER BY f LIMIT ", k));
  QueryResult tail =
      Run(StrCat("SELECT f FROM t ORDER BY f OFFSET ", k));
  EXPECT_EQ(head.rows.size() + tail.rows.size(), n);
  if (!head.rows.empty() && !tail.rows.empty()) {
    EXPECT_LE(head.rows.back()[0].AsDouble(), tail.rows[0][0].AsDouble());
  }
}

TEST_P(SqlDbProperty, WindowSumLastRowEqualsGroupSum) {
  QueryResult r = Run(
      "SELECT g, SUM(f) OVER (PARTITION BY g ORDER BY f) AS run FROM t "
      "ORDER BY g, f");
  QueryResult totals =
      Run("SELECT g, SUM(f) FROM t GROUP BY g ORDER BY g");
  // The last running value per group equals the group total.
  std::map<std::string, double> last_run;
  for (const auto& row : r.rows) {
    last_run[row[0].AsString()] = row[1].AsDouble();
  }
  for (const auto& row : totals.rows) {
    EXPECT_NEAR(last_run[row[0].AsString()], row[1].AsDouble(), 1e-6);
  }
}

TEST_P(SqlDbProperty, JoinWithSelfOnKeyNeverLosesRows) {
  QueryResult joined = Run(
      "SELECT COUNT(*) FROM (SELECT DISTINCT g FROM t) a "
      "JOIN (SELECT DISTINCT g FROM t) b ON a.g = b.g");
  QueryResult distinct = Run("SELECT COUNT(*) FROM (SELECT DISTINCT g "
                             "FROM t) x");
  EXPECT_EQ(joined.rows[0][0].AsInt(), distinct.rows[0][0].AsInt());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDbProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));

/// The batch forms of the null-aware idioms (COALESCE, IS [NOT] DISTINCT
/// FROM) and the join residual's narrow gather, checked against forms the
/// executor still evaluates row by row: CASE runs through the per-row
/// fallback, so a CASE expansion or a CASE-wrapped expression reproduces
/// the per-row result exactly.
class NullAwareBatchProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    session_ = db_.CreateSession();
    hyperq::testing::Rng rng(GetParam());
    // Every column is NULL about a quarter of the time; small domains make
    // equal pairs common. `i` is integer (not bigint) so int-storage
    // arguments of two value types meet, and x/y include NaN.
    Run("CREATE TABLE u (id bigint, a bigint, b bigint, i integer, "
        "x double precision, y double precision, s varchar, r varchar, "
        "p boolean, q boolean)");
    const char* kFloats[] = {"0.5", "1.5", "-2.5",
                             "CAST('NaN' AS double precision)"};
    const char* kStrs[] = {"'s0'", "'s1'", "''"};
    auto cell = [&](const std::string& v) {
      return rng.Below(4) == 0 ? std::string("NULL") : v;
    };
    std::vector<std::string> rows;
    size_t n = 60 + rng.Below(60);
    for (size_t row = 0; row < n; ++row) {
      rows.push_back(StrCat(
          "(", row, ",", cell(StrCat(rng.Below(4))), ",",
          cell(StrCat(rng.Below(4))), ",", cell(StrCat(rng.Below(4))), ",",
          cell(kFloats[rng.Below(4)]), ",", cell(kFloats[rng.Below(4)]), ",",
          cell(kStrs[rng.Below(3)]), ",", cell(kStrs[rng.Below(3)]), ",",
          cell(rng.Below(2) ? "true" : "false"), ",",
          cell(rng.Below(2) ? "true" : "false"), ")"));
    }
    Run(StrCat("INSERT INTO u VALUES ", Join(rows, ",")));
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_.Execute(session_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  /// Result data identical cell by cell, down to each column's storage
  /// class and each cell's type (NaN matches NaN).
  static void ExpectSameData(const QueryResult& got, const QueryResult& want,
                             const std::string& what) {
    ASSERT_EQ(got.data.row_count, want.data.row_count) << what;
    ASSERT_EQ(got.data.columns.size(), want.data.columns.size()) << what;
    for (size_t c = 0; c < got.data.columns.size(); ++c) {
      const Column& g = *got.data.columns[c];
      const Column& w = *want.data.columns[c];
      ASSERT_EQ(g.storage(), w.storage()) << what << " column " << c;
      if (g.storage() != Column::Storage::kMixed) {
        EXPECT_EQ(g.value_type(), w.value_type()) << what << " column " << c;
      }
      EXPECT_EQ(g.has_nulls(), w.has_nulls()) << what << " column " << c;
      for (size_t i = 0; i < got.data.row_count; ++i) {
        Datum gv = g.At(i), wv = w.At(i);
        ASSERT_EQ(gv.is_null(), wv.is_null()) << what << " row " << i;
        if (gv.is_null()) continue;
        EXPECT_EQ(gv.type(), wv.type()) << what << " row " << i;
        EXPECT_EQ(Datum::Compare(gv, wv), 0)
            << what << " row " << i << ": " << gv.ToText() << " vs "
            << wv.ToText();
      }
    }
  }

  void ExpectSameQuery(const std::string& got_sql,
                       const std::string& want_sql) {
    ExpectSameData(Run(got_sql), Run(want_sql), got_sql);
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_P(NullAwareBatchProperty, CoalesceMatchesCaseExpansion) {
  // Same-typed arguments take the tight loop; int/float, bigint/integer
  // and constant mixes append cell by cell and may come out kMixed.
  const std::vector<std::vector<std::string>> kArgLists = {
      {"a", "b"},       {"a", "b", "i"}, {"x", "y"},     {"s", "r"},
      {"p", "q"},       {"a", "x"},      {"i", "a"},     {"x", "a", "y"},
      {"s", "'zz'"},    {"a", "7"},      {"NULL", "b"},  {"a", "NULL"},
      {"a"},            {"p", "a IS NULL"},
  };
  for (const auto& args : kArgLists) {
    std::string coalesce = StrCat("COALESCE(", Join(args, ", "), ")");
    std::string expansion = "CASE";
    for (const auto& arg : args) {
      expansion += StrCat(" WHEN ", arg, " IS NOT NULL THEN ", arg);
    }
    expansion += " END";
    ExpectSameQuery(StrCat("SELECT id, ", coalesce, " FROM u ORDER BY id"),
                    StrCat("SELECT id, ", expansion, " FROM u ORDER BY id"));
    // Only rows where every argument is NULL (often none at all).
    std::vector<std::string> all_null;
    for (const auto& arg : args) all_null.push_back(arg + " IS NULL");
    std::string where = " WHERE " + Join(all_null, " AND ");
    ExpectSameQuery(StrCat("SELECT ", coalesce, " FROM u", where),
                    StrCat("SELECT ", expansion, " FROM u", where));
  }
  // Under a selection vector: the right side of OR only sees the rows
  // where the left side was not true.
  ExpectSameQuery(
      "SELECT id FROM u WHERE a > 2 OR COALESCE(p, q, b = 1) ORDER BY id",
      "SELECT id FROM u WHERE a > 2 OR CASE WHEN p IS NOT NULL THEN p "
      "WHEN q IS NOT NULL THEN q ELSE b = 1 END ORDER BY id");
}

TEST_P(NullAwareBatchProperty, IsDistinctFromMatchesCaseExpansion) {
  // Datum::DistinctEquals semantics: NULL matches only NULL, and NaN is
  // distinct from NaN (unlike `=`, which orders NaN equal to itself).
  const std::vector<std::pair<std::string, std::string>> kPairs = {
      {"a", "b"}, {"x", "y"}, {"s", "r"}, {"p", "q"}, {"a", "i"},
      {"a", "x"}, {"x", "x"}, {"s", "'s1'"}, {"a", "2"}, {"NULL", "b"},
  };
  for (const auto& [l, r] : kPairs) {
    bool text = l == "s" || l == "r";
    std::string equal =
        StrCat("CASE WHEN ", l, " IS NULL OR ", r, " IS NULL THEN (", l,
               " IS NULL) = (", r, " IS NULL) ELSE ", l, " = ", r,
               text ? "" : StrCat(" AND NOT (", l,
                                  " = CAST('NaN' AS double precision))"),
               " END");
    ExpectSameQuery(
        StrCat("SELECT id, ", l, " IS NOT DISTINCT FROM ", r, ", ", l,
               " IS DISTINCT FROM ", r, " FROM u ORDER BY id"),
        StrCat("SELECT id, ", equal, ", NOT (", equal,
               ") FROM u ORDER BY id"));
    ExpectSameQuery(
        StrCat("SELECT id FROM u WHERE id % 3 <> 0 AND ", l,
               " IS NOT DISTINCT FROM ", r, " ORDER BY id"),
        StrCat("SELECT id FROM u WHERE id % 3 <> 0 AND ", equal,
               " ORDER BY id"));
  }
}

TEST_P(NullAwareBatchProperty, CoalesceErrorsMatchPerRowEvaluation) {
  // Every argument is evaluated for every row, as before: the division
  // fails even on rows where `a` is non-null.
  auto batch = db_.Execute(session_.get(), "SELECT COALESCE(a, 1/0) FROM u");
  auto per_row = db_.Execute(
      session_.get(), "SELECT CASE WHEN true THEN COALESCE(a, 1/0) END FROM u");
  ASSERT_FALSE(batch.ok());
  ASSERT_FALSE(per_row.ok());
  EXPECT_EQ(batch.status().code(), per_row.status().code());
  EXPECT_EQ(batch.status().message(), per_row.status().message());
  // Zero rows evaluate nothing and so never fail.
  QueryResult empty = Run("SELECT COALESCE(a, 1/0) FROM u WHERE id < 0");
  EXPECT_EQ(empty.data.row_count, 0u);
}

/// An as-of join in the shape the translator lowers `aj` to: a left outer
/// hash join on the symbol whose residual reads a LEAD column (NULL on
/// each symbol's last quote), a null-aware time window and a string
/// column. Enough candidate pairs for several residual chunks.
class AsOfJoinResidual : public NullAwareBatchProperty {
 protected:
  void SetUp() override {
    NullAwareBatchProperty::SetUp();
    hyperq::testing::Rng rng(GetParam() + 1);
    Run("CREATE TABLE tr (id bigint, sym varchar, t bigint, ex varchar)");
    Run("CREATE TABLE qu (sym varchar, t bigint, bid double precision, "
        "ex varchar)");
    const char* kSyms[] = {"'A'", "'B'", "'C'"};
    const char* kEx[] = {"'N'", "'L'", "NULL"};
    std::vector<std::string> trs, qus;
    for (size_t i = 0; i < 700; ++i) {
      trs.push_back(StrCat("(", i, ",", kSyms[rng.Below(3)], ",",
                           rng.Below(1000), ",", kEx[rng.Below(3)], ")"));
      qus.push_back(StrCat("(", kSyms[rng.Below(3)], ",",
                           rng.Below(4) == 0 ? "NULL"
                                             : StrCat(rng.Below(1000)),
                           ",", rng.NextDouble(), ",", kEx[rng.Below(3)],
                           ")"));
    }
    Run(StrCat("INSERT INTO tr VALUES ", Join(trs, ",")));
    Run(StrCat("INSERT INTO qu VALUES ", Join(qus, ",")));
  }

  static constexpr const char* kFrom =
      " FROM tr LEFT JOIN (SELECT sym, t, bid, ex, LEAD(t) OVER "
      "(PARTITION BY sym ORDER BY t) AS nt FROM qu) q ON tr.sym = q.sym";
  static constexpr const char* kResidual =
      " AND COALESCE(q.t <= tr.t, q.t IS NULL) AND "
      "(COALESCE(tr.t < q.nt, q.nt IS NULL) OR q.nt IS NULL) AND "
      "q.ex IS NOT DISTINCT FROM tr.ex";
};

TEST_P(AsOfJoinResidual, NarrowGatherIsByteIdenticalAcrossPoolSizes) {
  const std::string sql =
      StrCat("SELECT tr.id, tr.sym, tr.t, tr.ex, q.t, q.bid, q.ex, q.nt",
             kFrom, kResidual, " ORDER BY tr.id, q.t, q.bid");
  WorkerPool& pool = WorkerPool::Shared();
  const size_t restore = pool.thread_count();
  pool.Resize(0);
  QueryResult inline_run = Run(sql);
  pool.Resize(4);
  QueryResult pooled = Run(sql);
  pool.Resize(restore);
  ExpectSameData(pooled, inline_run, sql);

  // The matched pairs are exactly those a cross join filtered by the same
  // conditions keeps (the WHERE filter gathers every column).
  QueryResult cross = Run(StrCat(
      "SELECT tr.id, tr.sym, tr.t, tr.ex, q.t, q.bid, q.ex, q.nt FROM tr "
      "CROSS JOIN (SELECT sym, t, bid, ex, LEAD(t) OVER (PARTITION BY sym "
      "ORDER BY t) AS nt FROM qu) q WHERE tr.sym = q.sym",
      kResidual, " ORDER BY tr.id, q.t, q.bid"));
  QueryResult matched = Run(StrCat(
      "SELECT * FROM (SELECT tr.id, tr.sym, tr.t AS tt, tr.ex AS tex, "
      "q.t AS qt, q.bid, q.ex AS qex, q.nt, q.sym AS qsym",
      kFrom, kResidual, ") m WHERE qsym IS NOT NULL ORDER BY 1, 5, 6"));
  ASSERT_EQ(matched.data.row_count, cross.data.row_count);
  for (size_t c = 0; c < cross.data.columns.size(); ++c) {  // not qsym
    for (size_t i = 0; i < cross.data.row_count; ++i) {
      Datum m = matched.data.At(i, c), x = cross.data.At(i, c);
      ASSERT_EQ(m.is_null(), x.is_null()) << "row " << i << " col " << c;
      if (!m.is_null()) {
        EXPECT_EQ(Datum::Compare(m, x), 0) << "row " << i << " col " << c;
      }
    }
  }
}

TEST_P(AsOfJoinResidual, UnresolvableResidualColumnKeepsItsError) {
  const char* kBadRefs[] = {"q.nosuch > 0", "t > 0"};  // missing, ambiguous
  for (const char* bad : kBadRefs) {
    auto join = db_.Execute(
        session_.get(), StrCat("SELECT tr.id", kFrom, " AND ", bad));
    auto where = db_.Execute(
        session_.get(),
        StrCat("SELECT tr.id FROM tr CROSS JOIN (SELECT sym, t, bid, ex, "
               "LEAD(t) OVER (PARTITION BY sym ORDER BY t) AS nt FROM qu) q "
               "WHERE ",
               bad));
    ASSERT_FALSE(join.ok()) << bad;
    ASSERT_FALSE(where.ok()) << bad;
    EXPECT_EQ(join.status().code(), where.status().code()) << bad;
    EXPECT_EQ(join.status().message(), where.status().message()) << bad;
  }
  // A reference that never resolves but is never reached either (CASE
  // only evaluates the branch it takes; q.t is never negative) is no
  // error, and the columns the other branch reads are still gathered.
  QueryResult unreached = Run(StrCat(
      "SELECT tr.id, q.bid", kFrom,
      " AND CASE WHEN q.t < 0 THEN q.nosuch ELSE q.bid END > 0.5 "
      "ORDER BY tr.id, q.bid"));
  QueryResult reference = Run(StrCat(
      "SELECT tr.id, q.bid", kFrom,
      " AND CASE WHEN q.t < 0 THEN 0.0 ELSE q.bid END > 0.5 "
      "ORDER BY tr.id, q.bid"));
  ExpectSameData(unreached, reference, "unreached unresolvable branch");
}

INSTANTIATE_TEST_SUITE_P(Seeds, NullAwareBatchProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));
INSTANTIATE_TEST_SUITE_P(Seeds, AsOfJoinResidual,
                         ::testing::Values(3u, 7u, 31u));

}  // namespace
}  // namespace sqldb
}  // namespace hyperq
