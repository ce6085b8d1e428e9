#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/worker_pool.h"
#include "sqldb/database.h"
#include "sqldb/eval.h"
#include "sqldb/operators.h"
#include "sqldb/sql_parser.h"
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

  /// Runs `sql` inline (pool of 0 threads) and on a pool of 4, asserts the
  /// two results are identical, and returns the pooled one.
  QueryResult RunAtPoolSizes(const std::string& sql) {
    WorkerPool& pool = WorkerPool::Shared();
    const size_t restore = pool.thread_count();
    pool.Resize(0);
    QueryResult inline_run = Run(sql);
    pool.Resize(4);
    QueryResult pooled = Run(sql);
    pool.Resize(restore);
    ExpectSameData(pooled, inline_run, sql);
    return pooled;
  }

  /// Tables spanning more than two morsels, so a pool of 4 runs every
  /// shared operator in parallel. `m` keys: `k` bigint and `s` varchar
  /// with NULLs; `x` double with NULL, NaN, -0.0 and integral values (1.0
  /// groups and joins with the bigint 1). `r` is a small build side whose
  /// float key `f` holds integral values equal to `m.k` values.
  void LoadMorselTables() {
    hyperq::testing::Rng rng(GetParam() + 2);
    const size_t n = 2 * kMorselRows + 1 + rng.Below(kMorselRows);
    const double kX[] = {1.0, 2.0, 0.5, -0.0, 0.0, 7.0, std::nan("")};
    std::vector<int64_t> id(n), k(n);
    std::vector<double> x(n);
    std::vector<std::string> s(n);
    std::vector<uint8_t> k_null(n, 0), x_null(n, 0), s_null(n, 0);
    for (size_t i = 0; i < n; ++i) {
      id[i] = static_cast<int64_t>(i);
      k[i] = static_cast<int64_t>(rng.Below(40));
      k_null[i] = rng.Below(10) == 0;
      x[i] = kX[rng.Below(7)];
      x_null[i] = rng.Below(10) == 0;
      s[i] = StrCat("s", rng.Below(12));
      s_null[i] = rng.Below(10) == 0;
      if (x_null[i]) continue;
      x_classes_.insert(std::isnan(x[i]) ? "nan" : StrCat(x[i] + 0.0));
    }
    if (std::count(x_null.begin(), x_null.end(), 1) > 0) {
      x_classes_.insert("null");
    }
    StoredTable m;
    m.name = "m";
    m.columns = {{"id", SqlType::kBigInt}, {"k", SqlType::kBigInt},
                 {"x", SqlType::kDouble}, {"s", SqlType::kVarchar}};
    m.data = {Column::FromInts(SqlType::kBigInt, std::move(id)),
              Column::FromInts(SqlType::kBigInt, std::move(k),
                               std::move(k_null)),
              Column::FromFloats(SqlType::kDouble, std::move(x),
                                 std::move(x_null)),
              Column::FromStrings(SqlType::kVarchar, std::move(s),
                                  std::move(s_null))};
    m.row_count = n;
    ASSERT_TRUE(db_.CreateAndLoad(std::move(m)).ok());

    const size_t rn = 30;
    std::vector<int64_t> rid(rn);
    std::vector<double> f(rn);
    std::vector<std::string> rs(rn);
    std::vector<uint8_t> f_null(rn, 0);
    for (size_t i = 0; i < rn; ++i) {
      rid[i] = static_cast<int64_t>(i);
      f[i] = static_cast<double>(rng.Below(45));  // some match no `k`
      f_null[i] = rng.Below(8) == 0;
      rs[i] = StrCat("s", rng.Below(14));
    }
    StoredTable r;
    r.name = "r";
    r.columns = {{"rid", SqlType::kBigInt}, {"f", SqlType::kDouble},
                 {"rs", SqlType::kVarchar}};
    r.data = {Column::FromInts(SqlType::kBigInt, std::move(rid)),
              Column::FromFloats(SqlType::kDouble, std::move(f),
                                 std::move(f_null)),
              Column::FromStrings(SqlType::kVarchar, std::move(rs))};
    r.row_count = rn;
    ASSERT_TRUE(db_.CreateAndLoad(std::move(r)).ok());
  }

  /// The distinct classes of m.x: "null", "nan", or the value (-0.0 and
  /// 0.0 are one class).
  std::set<std::string> x_classes_;

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
  // not distinct from NaN (as with `=`, which orders NaN equal to itself).
  const std::vector<std::pair<std::string, std::string>> kPairs = {
      {"a", "b"}, {"x", "y"}, {"s", "r"}, {"p", "q"}, {"a", "i"},
      {"a", "x"}, {"x", "x"}, {"s", "'s1'"}, {"a", "2"}, {"NULL", "b"},
  };
  for (const auto& [l, r] : kPairs) {
    std::string equal =
        StrCat("CASE WHEN ", l, " IS NULL OR ", r, " IS NULL THEN (", l,
               " IS NULL) = (", r, " IS NULL) ELSE ", l, " = ", r, " END");
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

TEST_P(NullAwareBatchProperty, GroupTableAgreesAcrossPoolSizes) {
  LoadMorselTables();
  // Typed int key, typed string key, generic float key, multi-column and
  // expression keys (one with thousands of groups), all with NULLs.
  const char* kGroupBys[] = {
      "SELECT k, COUNT(*), SUM(x), MIN(s), MAX(id) FROM m GROUP BY k",
      "SELECT s, COUNT(x), AVG(k) FROM m GROUP BY s",
      "SELECT x, COUNT(*), MIN(id) FROM m GROUP BY x",
      "SELECT k, s, x, SUM(id) FROM m GROUP BY k, s, x",
      "SELECT k + x, COUNT(*) FROM m GROUP BY k + x",
      "SELECT id % 4999, COUNT(*), MAX(x) FROM m GROUP BY id % 4999",
  };
  for (const char* sql : kGroupBys) RunAtPoolSizes(sql);
  // NaN is one group, -0.0 groups with 0.0, and 1.0 is not split.
  QueryResult by_x = RunAtPoolSizes("SELECT x FROM m GROUP BY x");
  EXPECT_EQ(by_x.data.row_count, x_classes_.size());
  QueryResult distinct_x = RunAtPoolSizes("SELECT DISTINCT x FROM m");
  ExpectSameData(distinct_x, by_x, "DISTINCT x vs GROUP BY x");
  for (const char* sql : {"SELECT DISTINCT k FROM m",
                          "SELECT DISTINCT s, k FROM m",
                          "SELECT DISTINCT k + x, s FROM m"}) {
    RunAtPoolSizes(sql);
  }
  // Integral doubles and bigints are one class: the float key 1.0 groups
  // with the int key 1.
  QueryResult mixed = RunAtPoolSizes(
      "SELECT v, COUNT(*) FROM (SELECT k AS v FROM m WHERE k < 3 UNION ALL "
      "SELECT x AS v FROM m WHERE x = 1) t GROUP BY v");
  size_t ones = 0;
  for (size_t i = 0; i < mixed.data.row_count; ++i) {
    Datum v = mixed.data.At(i, 0);
    if (!v.is_null() && v.AsDouble() == 1.0) ++ones;
  }
  EXPECT_EQ(ones, 1u);
}

TEST_P(NullAwareBatchProperty, KernelGroupByMatchesInterpreter) {
  // Grouping over plain columns reads the ungathered input through the
  // WHERE selection. The reference moves the WHERE into a derived table,
  // whose output the outer block then groups after the gather.
  LoadMorselTables();
  struct Shape {
    const char* items;
    const char* where;
    const char* tail;
  };
  const Shape kShapes[] = {
      {"k, COUNT(*), SUM(x), MIN(s), MAX(id)", "id % 3 <> 0", "GROUP BY k"},
      {"s, COUNT(x), MAX(x)", "id > 100", "GROUP BY s"},
      {"x, COUNT(*), MIN(id), FIRST(s), LAST(k)", "s <> 's3'", "GROUP BY x"},
      {"k, s, SUM(id)", "x IS NOT NULL", "GROUP BY k, s"},
      {"COUNT(*), SUM(x), AVG(k)", "k > 1000", ""},
      {"COUNT(*), SUM(x), MEDIAN(k)", "s IN ('s1', 's4')", ""},
      {"s, COUNT(*) AS c", "((k < 20) OR (k IS NULL))",
       "GROUP BY s ORDER BY c DESC, s LIMIT 5 OFFSET 2"},
      {"k, COUNT(DISTINCT s), SUM(x)", "x BETWEEN 0 AND 2", "GROUP BY k"},
      {"s, SUM(k)", "id < 0", "GROUP BY s"},
      {"k, COUNT(*)", "k > 5", "GROUP BY k HAVING COUNT(*) > 100"},
  };
  for (const Shape& sh : kShapes) {
    const std::string sql =
        StrCat("SELECT ", sh.items, " FROM m WHERE ", sh.where, " ", sh.tail);
    const std::string ref =
        StrCat("SELECT ", sh.items, " FROM (SELECT * FROM m WHERE ", sh.where,
               ") AS m ", sh.tail);
    ExpectSameData(RunAtPoolSizes(sql), RunAtPoolSizes(ref), sql);
  }
}

TEST_P(NullAwareBatchProperty, HashJoinMatchesCrossJoinFilter) {
  LoadMorselTables();
  // Byte identity across pool sizes over all of m: int vs float keys,
  // typed string keys, a multi-column key and a null-safe key.
  const char* kJoins[] = {
      "SELECT m.id, m.k, r.rid, r.f FROM m JOIN r ON m.k = r.f",
      "SELECT r.rid, m.id FROM r JOIN m ON r.f = m.k",
      "SELECT m.id, r.rid FROM m LEFT JOIN r ON r.rs = m.s",
      "SELECT m.id, r.rid FROM m JOIN r ON m.k = r.f AND m.s = r.rs",
      "SELECT m.id, r.rid FROM m LEFT JOIN r ON m.k IS NOT DISTINCT FROM "
      "r.f",
  };
  for (const char* sql : kJoins) RunAtPoolSizes(sql);
  // The hash join keeps exactly the pairs, in the order, that a filtered
  // cross join does (left-major, right rows ascending); 1 meets 1.0.
  const char* kPrefix = "(SELECT * FROM m WHERE id < 1500) a";
  const char* kOn[] = {"a.k = r.f", "a.s = r.rs", "a.k = r.f AND a.s = r.rs",
                       "r.f = a.k"};
  size_t int_float_pairs = 0;
  for (const char* on : kOn) {
    QueryResult hashed = Run(StrCat("SELECT a.id, r.rid FROM ", kPrefix,
                                    " JOIN r ON ", on));
    QueryResult crossed = Run(StrCat("SELECT a.id, r.rid FROM ", kPrefix,
                                     " CROSS JOIN r WHERE ", on));
    ExpectSameData(hashed, crossed, on);
    if (std::string(on) == "a.k = r.f") int_float_pairs = hashed.data.row_count;
  }
  EXPECT_GT(int_float_pairs, 0u);
  // Float build keys probed by int keys, the other way round.
  ExpectSameData(
      Run(StrCat("SELECT r.rid, a.id FROM r JOIN ", kPrefix, " ON r.f = a.k")),
      Run(StrCat("SELECT r.rid, a.id FROM r CROSS JOIN ", kPrefix,
                 " WHERE r.f = a.k")),
      "r.f = a.k");
  // {NaN, 1.0, NULL} x {NaN, 1.0, NULL} on a null-safe key: NaN meets NaN
  // and NULL meets NULL as a join and as a filtered cross join alike.
  for (const char* name : {"na", "nb"}) {
    StoredTable t;
    t.name = name;
    t.columns = {{"id", SqlType::kBigInt}, {"v", SqlType::kDouble}};
    t.data = {Column::FromInts(SqlType::kBigInt, {0, 1, 2}),
              Column::FromFloats(SqlType::kDouble, {std::nan(""), 1.0, 0.0},
                                 {0, 0, 1})};
    t.row_count = 3;
    ASSERT_TRUE(db_.CreateAndLoad(std::move(t)).ok());
  }
  const char* kNanOn = "na.v IS NOT DISTINCT FROM nb.v";
  QueryResult nan_hashed =
      Run(StrCat("SELECT na.id, nb.id FROM na JOIN nb ON ", kNanOn));
  ExpectSameData(nan_hashed,
                 Run(StrCat("SELECT na.id, nb.id FROM na CROSS JOIN nb "
                            "WHERE ", kNanOn)),
                 kNanOn);
  EXPECT_EQ(nan_hashed.data.row_count, 3u);
  // The leaf equality and IN predicates follow the same rule as the
  // per-row path, which a CASE around the predicate forces.
  for (const char* pred : {"v = CAST('NaN' AS double precision)",
                           "v IN (CAST('NaN' AS double precision), 2.0)"}) {
    QueryResult leaf = Run(StrCat("SELECT id FROM na WHERE ", pred));
    ExpectSameData(leaf,
                   Run(StrCat("SELECT id FROM na WHERE CASE WHEN ", pred,
                              " THEN TRUE ELSE FALSE END")),
                   pred);
    EXPECT_EQ(leaf.data.row_count, 1u) << pred;
  }
}

TEST_P(NullAwareBatchProperty, PartitionAndOrderAgreeAcrossPoolSizes) {
  LoadMorselTables();
  RunAtPoolSizes(
      "SELECT id, ROW_NUMBER() OVER (PARTITION BY x ORDER BY id DESC), "
      "LAG(id) OVER (PARTITION BY k, s ORDER BY id) FROM m");
  // Partitions follow the group rule: the last row number of each x
  // partition is that class's row count.
  QueryResult per_x = RunAtPoolSizes(
      "SELECT x, MAX(rn) FROM (SELECT x, ROW_NUMBER() OVER (PARTITION BY x "
      "ORDER BY id) AS rn FROM m) t GROUP BY x");
  QueryResult counts = RunAtPoolSizes("SELECT x, COUNT(*) FROM m GROUP BY x");
  ExpectSameData(per_x, counts, "row_number partitions vs group counts");
  EXPECT_EQ(per_x.data.row_count, x_classes_.size());

  // ORDER BY with NULLs placed either way and NaN sorting last; every
  // LIMIT/OFFSET window is the matching slice of the full order.
  const std::string order = "SELECT id, x, k FROM m ORDER BY x DESC NULLS "
                            "FIRST, k NULLS LAST, id";
  QueryResult full = RunAtPoolSizes(order);
  const size_t n = full.data.row_count;
  for (size_t i = 1; i < n; ++i) {
    Datum a = full.data.At(i - 1, 1), b = full.data.At(i, 1);
    if (a.is_null() || b.is_null()) {
      ASSERT_TRUE(a.is_null() || !b.is_null()) << "NULL after value at " << i;
      continue;
    }
    ASSERT_GE(Datum::Compare(a, b), 0) << "x out of order at row " << i;
  }
  const int64_t kWindows[][2] = {{100, 37}, {0, 5}, {-1, 5}, {7, 0}, {5, 1},
                                 {10, static_cast<int64_t>(n) - 3},
                                 {3, static_cast<int64_t>(n) + 10}};
  for (const auto& [limit, offset] : kWindows) {
    std::string sql = StrCat(order, " LIMIT ", limit, " OFFSET ", offset);
    QueryResult window = RunAtPoolSizes(sql);
    size_t start = std::min<size_t>(static_cast<size_t>(offset), n);
    size_t end = limit < 0 ? n
                           : std::min(n, start + static_cast<size_t>(limit));
    ASSERT_EQ(window.data.row_count, end - start) << sql;
    for (size_t i = 0; i < window.data.row_count; ++i) {
      ASSERT_EQ(window.data.At(i, 0).AsInt(),
                full.data.At(start + i, 0).AsInt())
          << sql << " row " << i;
    }
  }
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

/// The band join and the window operators against references that share
/// none of their code. A band join must keep exactly the pairs, in the
/// order, of the same ON condition forced onto the nested-loop path (the
/// equality wrapped as `(...) OR FALSE` is no hash key). Window functions
/// must match a frame-by-definition evaluator written here.
class BandJoinAndWindowDifferential : public NullAwareBatchProperty {
 protected:
  /// `bq` quotes: NULL and duplicate times, NULL symbols, a float time
  /// `ft` and a column `w` that is not monotone in `t`. `bt` trades, some
  /// on a symbol no quote has (an empty bucket).
  void LoadBandTables() {
    hyperq::testing::Rng rng(GetParam() + 5);
    Run("CREATE TABLE bq (sym varchar, t bigint, ft double precision, "
        "w bigint, bid double precision)");
    Run("CREATE TABLE bt (id bigint, sym varchar, t bigint, "
        "ft double precision)");
    const char* kSyms[] = {"'A'", "'B'", "'C'", "NULL"};
    const char* kTradeSyms[] = {"'A'", "'B'", "'C'", "'D'", "NULL"};
    auto maybe_null = [&](const std::string& v) {
      return rng.Below(8) == 0 ? std::string("NULL") : v;
    };
    std::vector<std::string> qs, ts;
    for (size_t i = 0; i < 500; ++i) {
      const uint64_t t = rng.Below(300);  // ~1.7 quotes per time
      qs.push_back(StrCat("(", kSyms[rng.Below(4)], ",",
                          maybe_null(StrCat(t)), ",",
                          maybe_null(StrCat(t, ".5")), ",",
                          maybe_null(StrCat(rng.Below(300))), ",",
                          rng.NextDouble(), ")"));
    }
    for (size_t i = 0; i < 400; ++i) {
      const uint64_t t = rng.Below(320);
      ts.push_back(StrCat("(", i, ",", kTradeSyms[rng.Below(5)], ",",
                          maybe_null(StrCat(t)), ",",
                          maybe_null(StrCat(t, ".25")), ")"));
    }
    Run(StrCat("INSERT INTO bq VALUES ", Join(qs, ",")));
    Run(StrCat("INSERT INTO bt VALUES ", Join(ts, ",")));
  }

  static uint64_t ExecRows() {
    return MetricsRegistry::Global().GetCounter("exec.rows")->value();
  }
};

TEST_P(BandJoinAndWindowDifferential, BandJoinMatchesNestedLoop) {
  LoadBandTables();
  const std::string right =
      "(SELECT sym, t, ft, w, bid, LEAD(t) OVER (PARTITION BY sym ORDER BY "
      "t) AS nt, LEAD(ft) OVER (PARTITION BY sym ORDER BY ft) AS nft FROM "
      "bq) q";
  // {equality, band}: the serializer's COALESCE form, the `OR ... IS
  // NULL` form, operands either way round, a second bound that is not
  // monotone, a float-time band, and a band followed by other conjuncts.
  const std::pair<const char*, const char*> kOn[] = {
      {"bt.sym IS NOT DISTINCT FROM q.sym",
       "COALESCE((q.t <= bt.t), (q.t IS NULL)) AND "
       "(COALESCE((bt.t < q.nt), ((bt.t IS NULL) AND (q.nt IS NOT NULL))) "
       "OR (q.nt IS NULL))"},
      {"bt.sym = q.sym",
       "(q.t <= bt.t OR q.t IS NULL) AND (bt.t < q.nt OR (bt.t IS NULL AND "
       "q.nt IS NOT NULL) OR q.nt IS NULL)"},
      {"q.sym = bt.sym", "bt.t >= q.t AND q.nt > bt.t"},
      {"bt.sym = q.sym", "q.t > bt.t AND q.t <= bt.t + 0"},
      {"bt.sym IS NOT DISTINCT FROM q.sym", "q.t <= bt.t AND bt.t < q.w"},
      {"bt.sym = q.sym", "q.t < bt.t AND (q.w IS NULL OR bt.t <= q.w)"},
      {"bt.sym IS NOT DISTINCT FROM q.sym",
       "COALESCE((q.ft <= bt.ft), (q.ft IS NULL)) AND "
       "(COALESCE((bt.ft < q.nft), FALSE) OR (q.nft IS NULL))"},
      {"bt.sym = q.sym", "q.t <= bt.t AND q.bid > 0.5 AND bt.t < q.nt"},
  };
  for (const auto& [eq, band] : kOn) {
    for (const char* join : {" JOIN ", " LEFT JOIN "}) {
      const std::string sql = StrCat(
          "SELECT bt.id, bt.t, q.t, q.nt, q.w, q.bid FROM bt", join, right,
          " ON ", eq, " AND ", band);
      QueryResult looped =
          Run(StrCat("SELECT bt.id, bt.t, q.t, q.nt, q.w, q.bid FROM bt",
                     join, right, " ON ((", eq, ") OR FALSE) AND ", band));
      ExpectSameData(Run(sql), looped, sql);
    }
  }
  // The band ruled candidates out: the executor read far fewer rows than
  // with a leading TRUE conjunct, behind which no conjunct bounds.
  auto rows_read = [&](const std::string& residual) {
    const uint64_t before = ExecRows();
    Run(StrCat("SELECT bt.id, q.bid FROM bt JOIN ", right, " ON ",
               kOn[0].first, " AND ", residual));
    return ExecRows() - before;
  };
  EXPECT_LT(rows_read(kOn[0].second) * 2,
            rows_read(StrCat("TRUE AND ", kOn[0].second)));
}

/// One row of the window table, as the frame-by-definition evaluator reads
/// it.
struct WinRow {
  std::optional<int64_t> p, o, y;
  std::optional<double> x;
};

TEST_P(BandJoinAndWindowDifferential, WindowsMatchFrameDefinitions) {
  hyperq::testing::Rng rng(GetParam() + 9);
  const size_t n = 12000;
  std::vector<WinRow> rows(n);
  std::vector<int64_t> id(n), p(n), g(n), o(n), y(n);
  std::vector<double> x(n);
  std::vector<uint8_t> p_null(n), o_null(n), y_null(n), x_null(n);
  for (size_t i = 0; i < n; ++i) {
    id[i] = static_cast<int64_t>(i);
    g[i] = static_cast<int64_t>(rng.Below(10000));  // 10^4 partitions
    p[i] = static_cast<int64_t>(rng.Below(12));
    p_null[i] = rng.Below(20) == 0;
    o[i] = static_cast<int64_t>(rng.Below(40));  // ties: RANGE peers
    o_null[i] = rng.Below(10) == 0;
    y[i] = static_cast<int64_t>(rng.Below(1000)) - 500;
    y_null[i] = rng.Below(7) == 0;
    x[i] = rng.NextDouble() * 100.0 - 30.0;
    x_null[i] = rng.Below(7) == 0;
  }
  StoredTable wt;
  wt.name = "wt";
  wt.columns = {{"id", SqlType::kBigInt}, {"g", SqlType::kBigInt},
                {"p", SqlType::kBigInt},  {"o", SqlType::kBigInt},
                {"y", SqlType::kBigInt},  {"x", SqlType::kDouble}};
  auto opt_int = [](const std::vector<int64_t>& v,
                    const std::vector<uint8_t>& nulls, size_t i) {
    return nulls[i] ? std::nullopt : std::optional<int64_t>(v[i]);
  };
  std::vector<std::optional<int64_t>> gcol(n), pcol(n), ocol(n), ycol(n);
  std::vector<std::optional<double>> xcol(n);
  const std::vector<uint8_t> no_nulls(n, 0);
  for (size_t i = 0; i < n; ++i) {
    gcol[i] = g[i];
    pcol[i] = opt_int(p, p_null, i);
    ocol[i] = opt_int(o, o_null, i);
    ycol[i] = opt_int(y, y_null, i);
    xcol[i] = x_null[i] ? std::nullopt : std::optional<double>(x[i]);
  }
  wt.data = {Column::FromInts(SqlType::kBigInt, id),
             Column::FromInts(SqlType::kBigInt, g),
             Column::FromInts(SqlType::kBigInt, p, p_null),
             Column::FromInts(SqlType::kBigInt, o, o_null),
             Column::FromInts(SqlType::kBigInt, y, y_null),
             Column::FromFloats(SqlType::kDouble, x, x_null)};
  wt.row_count = n;
  ASSERT_TRUE(db_.CreateAndLoad(std::move(wt)).ok());

  // A window: partition column, order (column, ascending, nulls first;
  // none: no ORDER BY), function, value column ('x', 'y' or '*'), and a
  // ROWS frame [lo, hi] (nullopt bound: unbounded; no frame: the default).
  struct Win {
    std::string sql;
    const std::vector<std::optional<int64_t>>* part;
    std::optional<std::pair<bool, bool>> order;  // on `o`
    std::string fn;
    char arg;
    bool rows_frame;
    std::optional<int64_t> lo, hi;
    int64_t offset;
    std::optional<double> dflt;
    /// Only rows with id below 2000 (for the windows over the whole
    /// table, which the evaluator reads in quadratic time).
    bool small = false;
  };
  const std::vector<Win> kWins = {
      {"SUM(x) OVER (PARTITION BY p ORDER BY o)", &pcol,
       std::pair{true, false}, "sum", 'x', false, {}, {}, 0, {}},
      {"SUM(y) OVER (PARTITION BY p ORDER BY o DESC)", &pcol,
       std::pair{false, true}, "sum", 'y', false, {}, {}, 0, {}},
      {"AVG(x) OVER (ORDER BY o NULLS FIRST)", nullptr,
       std::pair{true, true}, "avg", 'x', false, {}, {}, 0, {}, true},
      {"MIN(x) OVER (PARTITION BY p ORDER BY o)", &pcol,
       std::pair{true, false}, "min", 'x', false, {}, {}, 0, {}},
      {"MAX(y) OVER (PARTITION BY p ORDER BY o DESC NULLS LAST)", &pcol,
       std::pair{false, false}, "max", 'y', false, {}, {}, 0, {}},
      {"COUNT(x) OVER (PARTITION BY p ORDER BY o)", &pcol,
       std::pair{true, false}, "count", 'x', false, {}, {}, 0, {}},
      {"COUNT(*) OVER (PARTITION BY p ORDER BY o)", &pcol,
       std::pair{true, false}, "count", '*', false, {}, {}, 0, {}},
      {"SUM(x) OVER (PARTITION BY p)", &pcol, std::nullopt, "sum", 'x',
       false, {}, {}, 0, {}},
      {"SUM(x) OVER (PARTITION BY p ORDER BY o ROWS BETWEEN 2 PRECEDING "
       "AND CURRENT ROW)",
       &pcol, std::pair{true, false}, "sum", 'x', true, -2, 0, 0, {}},
      {"SUM(y) OVER (PARTITION BY p ORDER BY o ROWS BETWEEN UNBOUNDED "
       "PRECEDING AND 1 FOLLOWING)",
       &pcol, std::pair{true, false}, "sum", 'y', true, {}, 1, 0, {}},
      {"AVG(x) OVER (ORDER BY o ROWS BETWEEN UNBOUNDED PRECEDING AND 2 "
       "PRECEDING)",
       nullptr, std::pair{true, false}, "avg", 'x', true, {}, -2, 0, {},
       true},
      {"MAX(x) OVER (PARTITION BY p ORDER BY o ROWS BETWEEN 1 PRECEDING "
       "AND 1 FOLLOWING)",
       &pcol, std::pair{true, false}, "max", 'x', true, -1, 1, 0, {}},
      {"COUNT(y) OVER (PARTITION BY g ORDER BY o ROWS BETWEEN UNBOUNDED "
       "PRECEDING AND UNBOUNDED FOLLOWING)",
       &gcol, std::pair{true, false}, "count", 'y', true, {}, {}, 0, {}},
      {"LAG(x, 2, -1.0) OVER (PARTITION BY p ORDER BY o)", &pcol,
       std::pair{true, false}, "lag", 'x', false, {}, {}, 2, -1.0},
      {"LEAD(y, 3, 7) OVER (PARTITION BY p ORDER BY o DESC)", &pcol,
       std::pair{false, true}, "lead", 'y', false, {}, {}, 3, 7.0},
      {"LEAD(x) OVER (PARTITION BY g ORDER BY o)", &gcol,
       std::pair{true, false}, "lead", 'x', false, {}, {}, 1, {}},
      {"ROW_NUMBER() OVER (PARTITION BY g ORDER BY o)", &gcol,
       std::pair{true, false}, "row_number", '*', false, {}, {}, 0, {}},
      {"RANK() OVER (PARTITION BY g ORDER BY o)", &gcol,
       std::pair{true, false}, "rank", '*', false, {}, {}, 0, {}},
      {"DENSE_RANK() OVER (PARTITION BY p ORDER BY o DESC)", &pcol,
       std::pair{false, true}, "dense_rank", '*', false, {}, {}, 0, {}},
      {"RANK() OVER (PARTITION BY p ORDER BY o)", &pcol,
       std::pair{true, false}, "rank", '*', false, {}, {}, 0, {}},
  };
  for (const Win& w : kWins) {
    // Partitions in row order; each ordered stably by `o`.
    const size_t rows_in = w.small ? 2000 : n;
    std::map<std::optional<int64_t>, std::vector<size_t>> parts;
    for (size_t i = 0; i < rows_in; ++i) {
      parts[w.part ? (*w.part)[i] : std::nullopt].push_back(i);
    }
    auto before = [&](size_t a, size_t b) {  // a sorts before b
      if (!w.order) return false;
      const auto& [asc, nulls_first] = *w.order;
      if (!ocol[a] || !ocol[b]) {
        return ocol[a].has_value() != ocol[b].has_value() &&
               !ocol[a].has_value() == nulls_first;
      }
      return asc ? *ocol[a] < *ocol[b] : *ocol[a] > *ocol[b];
    };
    std::vector<Datum> want(rows_in);
    for (auto& [key, seq] : parts) {
      std::stable_sort(seq.begin(), seq.end(), before);
      const int64_t m = static_cast<int64_t>(seq.size());
      auto peer = [&](int64_t a, int64_t b) {
        return !before(seq[a], seq[b]) && !before(seq[b], seq[a]);
      };
      for (int64_t pos = 0; pos < m; ++pos) {
        Datum& out = want[seq[pos]];
        auto value_at = [&](int64_t q) {
          const size_t r = seq[q];
          if (w.arg == 'x') {
            return xcol[r] ? Datum::Double(*xcol[r]) : Datum::Null();
          }
          return ycol[r] ? Datum::BigInt(*ycol[r]) : Datum::Null();
        };
        if (w.fn == "row_number") {
          out = Datum::BigInt(pos + 1);
        } else if (w.fn == "rank" || w.fn == "dense_rank") {
          int64_t first = pos, groups = 1;
          while (first > 0 && peer(first - 1, pos)) --first;
          for (int64_t q = 1; q <= first; ++q) groups += !peer(q - 1, q);
          out = Datum::BigInt(w.fn == "rank" ? first + 1 : groups);
        } else if (w.fn == "lag" || w.fn == "lead") {
          const int64_t q = w.fn == "lag" ? pos - w.offset : pos + w.offset;
          if (q >= 0 && q < m) {
            out = value_at(q);
          } else if (w.dflt) {
            out = w.arg == 'x' ? Datum::Double(*w.dflt)
                               : Datum::BigInt(static_cast<int64_t>(*w.dflt));
          }
        } else {
          int64_t lo = 0, hi = m - 1;
          if (w.rows_frame) {
            if (w.lo) lo = std::max<int64_t>(0, pos + *w.lo);
            if (w.hi) hi = std::min<int64_t>(m - 1, pos + *w.hi);
          } else if (w.order) {
            hi = pos;
            while (hi + 1 < m && peer(hi + 1, pos)) ++hi;
          }
          int64_t count = 0, isum = 0;
          double dsum = 0;
          Datum best;
          for (int64_t q = lo; q <= hi; ++q) {
            const Datum v = w.arg == '*' ? Datum::BigInt(1) : value_at(q);
            if (v.is_null()) continue;
            ++count;
            if (w.arg == 'x') {
              dsum += v.AsDouble();
            } else {
              isum += v.AsInt();
            }
            const int cmp = best.is_null() ? 0 : Datum::Compare(v, best);
            if (best.is_null() || (w.fn == "min" ? cmp < 0 : cmp > 0)) {
              best = v;
            }
          }
          if (w.fn == "count") {
            out = Datum::BigInt(count);
          } else if (count == 0) {
            out = Datum::Null();
          } else if (w.fn == "sum") {
            out = w.arg == 'x' ? Datum::Double(dsum) : Datum::BigInt(isum);
          } else if (w.fn == "avg") {
            out = Datum::Double(dsum / static_cast<double>(count));
          } else {
            out = best;
          }
        }
      }
    }
    QueryResult got = Run(StrCat("SELECT id, ", w.sql, " FROM wt",
                                 w.small ? " WHERE id < 2000" : ""));
    ASSERT_EQ(got.data.row_count, rows_in) << w.sql;
    for (size_t i = 0; i < rows_in; ++i) {
      ASSERT_EQ(got.data.At(i, 0).AsInt(), static_cast<int64_t>(i));
      const Datum v = got.data.At(i, 1);
      ASSERT_EQ(v.is_null(), want[i].is_null()) << w.sql << " row " << i;
      if (v.is_null()) continue;
      if (w.arg == 'x' && w.fn != "count" && w.fn != "row_number" &&
          w.fn != "rank" && w.fn != "dense_rank") {
        ASSERT_EQ(v.AsDouble(), want[i].AsDouble()) << w.sql << " row " << i;
      } else if (w.fn == "avg") {
        ASSERT_EQ(v.AsDouble(), want[i].AsDouble()) << w.sql << " row " << i;
      } else {
        ASSERT_EQ(v.AsInt(), want[i].AsInt()) << w.sql << " row " << i;
      }
    }
  }
}

/// Random ORDER BY input over small domains, so ties are common: `nkeys`
/// columns of int, float or string storage, NULL at `null_rate` (with no
/// null map when none came out NULL), each with a random direction and
/// NULL placement.
void RandomSortInput(hyperq::testing::Rng& rng, size_t n, size_t nkeys,
                     double null_rate, std::vector<ColumnPtr>* cols,
                     std::vector<SortKey>* keys) {
  for (size_t k = 0; k < nkeys; ++k) {
    std::vector<uint8_t> nulls(n, 0);
    bool any_null = false;
    for (uint8_t& b : nulls) {
      b = rng.NextDouble() < null_rate;
      any_null = any_null || b;
    }
    if (!any_null) nulls.clear();  // the typed no-null path
    switch (rng.Below(3)) {
      case 0: {
        std::vector<int64_t> v(n);
        for (int64_t& x : v) x = static_cast<int64_t>(rng.Below(6)) - 2;
        cols->push_back(Column::FromInts(SqlType::kBigInt, v, nulls));
        break;
      }
      case 1: {
        std::vector<double> v(n);
        for (double& x : v) x = static_cast<double>(rng.Below(5)) * 0.5;
        cols->push_back(Column::FromFloats(SqlType::kDouble, v, nulls));
        break;
      }
      default: {
        std::vector<std::string> v(n);
        for (std::string& x : v) x = StrCat("s", rng.Below(4));
        cols->push_back(Column::FromStrings(SqlType::kVarchar, v, nulls));
        break;
      }
    }
    keys->push_back({static_cast<int>(k), rng.Below(2) == 0,
                     rng.Below(2) == 0});
  }
}

/// The ORDER BY comparator, independently of the executor's: NULLs placed
/// by nulls_first, cells by Datum::Compare.
bool RowLess(const std::vector<ColumnPtr>& c, const std::vector<SortKey>& keys,
             uint32_t a, uint32_t b) {
  for (const SortKey& k : keys) {
    const Datum x = c[k.col]->At(a), y = c[k.col]->At(b);
    if (x.is_null() || y.is_null()) {
      if (x.is_null() == y.is_null()) continue;
      return x.is_null() == k.nulls_first;
    }
    const int cmp = Datum::Compare(x, y);
    if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
  }
  return false;
}

/// std::stable_sort of rows [0, n) under RowLess.
SelVector StableOrder(const std::vector<ColumnPtr>& c,
                      const std::vector<SortKey>& keys, size_t n) {
  SelVector order(n);
  for (size_t r = 0; r < n; ++r) order[r] = static_cast<uint32_t>(r);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return RowLess(c, keys, a, b);
  });
  return order;
}

/// SortPermutation's presorted shortcut against std::stable_sort with an
/// independent comparator (Datum::Compare per cell), over random keys and
/// inputs arranged sorted, almost sorted, reversed or at random.
class SortPermutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortPermutationProperty, PresortedShortcutMatchesStableSort) {
  hyperq::testing::Rng rng(GetParam());
  int shortcuts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.Below(4) == 0 ? rng.Below(4) : 2 + rng.Below(200);
    const double null_rate = rng.Below(3) * 0.2;  // 0, 0.2 or 0.4
    const size_t nkeys = 1 + rng.Below(3);
    std::vector<ColumnPtr> cols;
    std::vector<SortKey> keys;
    RandomSortInput(rng, n, nkeys, null_rate, &cols, &keys);
    auto gather = [&](const SelVector& order) {
      std::vector<ColumnPtr> out;
      for (const ColumnPtr& c : cols) {
        out.push_back(c->Gather(order.data(), order.size()));
      }
      return out;
    };
    // Arrange the rows: 0 at random, 1 sorted, 2 sorted with the last pair
    // of differing adjacent rows swapped, 3 sorted then reversed.
    const int arrangement = static_cast<int>(rng.Below(4));
    std::vector<ColumnPtr> input = cols;
    if (arrangement != 0) {
      SelVector order = StableOrder(cols, keys, n);
      if (arrangement == 2) {
        std::vector<ColumnPtr> sorted = gather(order);
        for (size_t r = n; r-- > 1;) {
          if (RowLess(sorted, keys, static_cast<uint32_t>(r - 1),
                      static_cast<uint32_t>(r))) {
            std::swap(order[r - 1], order[r]);
            break;
          }
        }
      } else if (arrangement == 3) {
        std::reverse(order.begin(), order.end());
      }
      input = gather(order);
    }

    const SelVector want = StableOrder(input, keys, n);
    bool identity = true;
    for (size_t r = 0; r < n; ++r) identity = identity && want[r] == r;
    const std::string ctx =
        StrCat("seed ", GetParam(), " trial ", trial, " n ", n, " keys ",
               nkeys, " arrangement ", arrangement);
    EXPECT_EQ(InKeyOrder(input, keys, n), identity) << ctx;
    std::optional<SelVector> got = SortPermutation(input, keys, n);
    if (got) {
      EXPECT_FALSE(identity) << ctx;
      EXPECT_EQ(*got, want) << ctx;
    } else {
      EXPECT_TRUE(identity) << ctx;
      ++shortcuts;
    }
  }
  EXPECT_GT(shortcuts, 0) << "the presorted shortcut never fired";
}

/// ORDER BY ... LIMIT: SortPermutation cut at k = offset + limit is the
/// first k entries of the stable order, and the LIMIT window is its slice
/// from the offset on; k runs from 0 to past n. Inputs up to 300 rows
/// also take the full sort's radix path for one numeric key.
TEST_P(SortPermutationProperty, LimitedSortIsStableSortPrefix) {
  hyperq::testing::Rng rng(GetParam() + 11);
  int partial = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = rng.Below(5) == 0 ? rng.Below(3) : 2 + rng.Below(300);
    std::vector<ColumnPtr> cols;
    std::vector<SortKey> keys;
    RandomSortInput(rng, n, 1 + rng.Below(2), rng.Below(3) * 0.2, &cols,
                    &keys);
    const int64_t limit = static_cast<int64_t>(rng.Below(n + 4));
    const int64_t offset =
        rng.Below(2) == 0 ? 0 : static_cast<int64_t>(rng.Below(n + 2));
    const auto [start, end] = LimitRange(n, limit, offset);
    const std::string ctx = StrCat("seed ", GetParam(), " trial ", trial,
                                   " n ", n, " limit ", limit, " offset ",
                                   offset);
    const SelVector want = StableOrder(cols, keys, n);
    if (std::optional<SelVector> full = SortPermutation(cols, keys, n)) {
      EXPECT_EQ(*full, want) << ctx << " (full sort)";
    }
    std::optional<SelVector> got = SortPermutation(cols, keys, n, end);
    if (!got) {
      for (size_t r = 0; r < n; ++r) ASSERT_EQ(want[r], r) << ctx;
      continue;
    }
    ASSERT_EQ(got->size(), std::min(n, end)) << ctx;
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want.begin())) << ctx;
    partial += end < n;
    SelVector rows(n);
    for (size_t r = 0; r < n; ++r) rows[r] = static_cast<uint32_t>(r);
    ASSERT_TRUE(SortRows(cols, keys, &rows, end)) << ctx;
    EXPECT_EQ(rows, *got) << ctx;
  }
  EXPECT_GT(partial, 100) << "too few partial sorts";
}

/// The interpreter's leaf predicates and literal folds (eval.cc), checked
/// against two references over one relation: per-row EvalExpr, and the
/// general batch path, which a predicate takes when each column is spelled
/// `COALESCE(col)` (no leaf binds to anything but a plain column). The
/// relation holds an integer, a float (NULL, NaN, -0.0), a string and a
/// boolean column with NULLs, an all-NULL (kEmpty) column and a
/// mixed-cell (kMixed) one.
class LeafPredicateProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    const size_t n = 1 + rng_.Below(300);
    const double kF[] = {0.5, 1.0, 2.0, -0.0, 0.0, std::nan("")};
    std::vector<int64_t> iv(n), bv(n);
    std::vector<double> fv(n);
    std::vector<std::string> sv(n);
    std::vector<uint8_t> in(n), fn(n), sn(n), bn(n);
    std::vector<Datum> mixed;
    for (size_t r = 0; r < n; ++r) {
      iv[r] = static_cast<int64_t>(rng_.Below(5)) - 1;
      fv[r] = kF[rng_.Below(6)];
      sv[r] = StrCat("s", rng_.Below(3));
      bv[r] = static_cast<int64_t>(rng_.Below(2));
      in[r] = rng_.Below(5) == 0;
      fn[r] = rng_.Below(5) == 0;
      sn[r] = rng_.Below(5) == 0;
      bn[r] = rng_.Below(5) == 0;
      switch (rng_.Below(4)) {
        case 0: mixed.push_back(Datum::Null()); break;
        case 1: mixed.push_back(Datum::BigInt(iv[r])); break;
        case 2: mixed.push_back(Datum::Double(fv[r])); break;
        default: mixed.push_back(Datum::Varchar(sv[r])); break;
      }
    }
    auto add = [&](const char* name, SqlType type, ColumnPtr col) {
      rel_.cols.push_back(RelColumn{"t", name, type});
      rel_.columns.push_back(std::move(col));
    };
    add("i", SqlType::kBigInt,
        Column::FromInts(SqlType::kBigInt, std::move(iv), std::move(in)));
    add("f", SqlType::kDouble,
        Column::FromFloats(SqlType::kDouble, std::move(fv), std::move(fn)));
    add("s", SqlType::kVarchar,
        Column::FromStrings(SqlType::kVarchar, std::move(sv), std::move(sn)));
    add("b", SqlType::kBoolean,
        Column::FromInts(SqlType::kBoolean, std::move(bv), std::move(bn)));
    add("e", SqlType::kVarchar, Column::Constant(Datum::Null(), n));
    add("mx", SqlType::kText, Column::FromDatums(std::move(mixed)));
    rel_.row_count = n;
    ASSERT_EQ(rel_.columns[5]->storage(), Column::Storage::kMixed);
  }

  /// A literal: plain, negated, cast (one cast fails), NULL, or of any
  /// class, so comparisons meet every storage class.
  std::string Literal() {
    static const char* const kLits[] = {
        "0", "1", "2", "-1", "1.0", "0.5", "-0.0",
        "CAST('NaN' AS double precision)", "'s0'", "'s1'", "''",
        "'s0'::varchar", "CAST('s2' AS text)", "NULL",
        "CAST(NULL AS bigint)", "'2'::bigint", "1::double precision",
        "TRUE", "FALSE", "'2024-01-02'::date", "'abc'::date"};
    return kLits[rng_.Below(std::size(kLits))];
  }

  /// A predicate over the columns, spelled `{c}` so either form can be
  /// substituted in.
  std::string Predicate(int depth) {
    static const char* const kCols[] = {"i", "f", "s", "b", "e", "mx"};
    static const char* const kOps[] = {"=", "<>", "!=", "<", ">", "<=", ">="};
    const std::string c = StrCat("{", kCols[rng_.Below(6)], "}");
    const std::string op = kOps[rng_.Below(7)];
    switch (rng_.Below(depth > 0 ? 10 : 7)) {
      case 0:
        return StrCat(c, " ", op, " ", Literal());
      case 1:
        return StrCat(Literal(), " ", op, " ", c);
      case 2: {
        std::string items = Literal();
        for (uint64_t k = rng_.Below(4); k > 0; --k) {
          items += StrCat(", ", Literal());
        }
        return StrCat(c, rng_.Below(2) ? " NOT IN (" : " IN (", items, ")");
      }
      case 3:
        return StrCat(c, rng_.Below(2) ? " NOT BETWEEN " : " BETWEEN ",
                      Literal(), " AND ", Literal());
      case 4:
        return StrCat(c, rng_.Below(2) ? " IS NOT NULL" : " IS NULL");
      case 5:
        return StrCat("((", c, " ", op, " ", Literal(), ") OR (", c,
                      " IS NULL))");
      case 6:
        return StrCat(c, " ", op, " ", c);  // no leaf: two columns
      case 7:
        return StrCat("(", Predicate(depth - 1), ") AND (",
                      Predicate(depth - 1), ")");
      case 8:
        return StrCat("(", Predicate(depth - 1), ") OR (",
                      Predicate(depth - 1), ")");
      default:
        return StrCat("NOT (", Predicate(depth - 1), ")");
    }
  }

  static std::string Spell(const std::string& text, bool general) {
    std::string out;
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] != '{') {
        out += text[i];
        continue;
      }
      const size_t end = text.find('}', i);
      const std::string col = text.substr(i + 1, end - i - 1);
      out += general ? StrCat("COALESCE(", col, ")") : col;
      i = end;
    }
    return out;
  }

  /// Every check for one predicate over the rows `sel` (null: all rows).
  void Check(const std::string& text, const SelVector* sel) {
    const std::string leaf_sql = Spell(text, false);
    Result<ExprPtr> leaf = SqlParser::ParseExpressionText(leaf_sql);
    Result<ExprPtr> general = SqlParser::ParseExpressionText(Spell(text, true));
    ASSERT_TRUE(leaf.ok() && general.ok()) << leaf_sql;
    const uint32_t* rows = sel ? sel->data() : nullptr;
    const size_t n = sel ? sel->size() : rel_.row_count;
    const std::string what =
        StrCat(leaf_sql, sel ? StrCat(" over ", n, " selected rows") : "");

    // Per-row reference: each row's value, or the first failing row.
    Binding leaf_binding, general_binding;
    BindColumns({leaf->get()}, rel_, &leaf_binding);
    BindColumns({general->get()}, rel_, &general_binding);
    std::vector<Datum> want;
    Status want_status = Status::OK();
    for (size_t k = 0; k < n && want_status.ok(); ++k) {
      EvalCtx ctx;
      ctx.rel = &rel_;
      ctx.binding = &leaf_binding;
      ctx.row_idx = rows ? rows[k] : k;
      Result<Datum> v = EvalExpr(**leaf, ctx);
      if (v.ok()) {
        want.push_back(*std::move(v));
      } else {
        want_status = v.status();
      }
    }

    const BatchCtx ctx{&rel_, &leaf_binding};
    const BatchCtx general_ctx{&rel_, &general_binding};
    Result<ColumnPtr> got = EvalBatch(**leaf, ctx, rows, n);
    Result<ColumnPtr> ref = EvalBatch(**general, general_ctx, rows, n);
    ASSERT_EQ(got.ok(), want_status.ok()) << what;
    ASSERT_EQ(got.ok(), ref.ok()) << what;
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), ref.status().ToString()) << what;
    } else {
      const Column& g = **got;
      const Column& w = **ref;
      ASSERT_EQ(g.size(), n) << what;
      ASSERT_EQ(g.storage(), w.storage()) << what;
      if (g.storage() != Column::Storage::kMixed) {
        EXPECT_EQ(g.value_type(), w.value_type()) << what;
      }
      EXPECT_EQ(g.has_nulls(), w.has_nulls()) << what;
      for (size_t k = 0; k < n; ++k) {
        const Datum gv = g.At(k);
        ASSERT_EQ(gv.is_null(), want[k].is_null()) << what << " row " << k;
        ASSERT_EQ(gv.is_null(), w.IsNull(k)) << what << " row " << k;
        if (gv.is_null()) continue;
        EXPECT_EQ(gv.type(), want[k].type()) << what << " row " << k;
        EXPECT_EQ(Datum::Compare(gv, want[k]), 0) << what << " row " << k;
      }
    }

    SelVector got_rows, ref_rows;
    Status fs = EvalFilter(**leaf, ctx, rows, n, &got_rows);
    Status rs = EvalFilter(**general, general_ctx, rows, n, &ref_rows);
    ASSERT_EQ(fs.ok(), want_status.ok()) << what;
    ASSERT_EQ(fs.ToString(), rs.ToString()) << what;
    if (!fs.ok()) return;
    EXPECT_EQ(got_rows, ref_rows) << what;
    SelVector true_rows;
    for (size_t k = 0; k < n; ++k) {
      if (DatumIsTrue(want[k])) {
        true_rows.push_back(rows ? rows[k] : static_cast<uint32_t>(k));
      }
    }
    EXPECT_EQ(got_rows, true_rows) << what;
  }

  hyperq::testing::Rng rng_{GetParam()};
  Relation rel_;
};

TEST_P(LeafPredicateProperty, BatchAndFilterMatchPerRowEvaluation) {
  for (int round = 0; round < 400; ++round) {
    const std::string text = Predicate(2);
    Check(text, nullptr);
    SelVector sel;
    for (uint32_t r = 0; r < rel_.row_count; ++r) {
      if (rng_.Below(3) == 0) sel.push_back(r);
    }
    Check(text, &sel);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NullAwareBatchProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));
INSTANTIATE_TEST_SUITE_P(Seeds, SortPermutationProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));
INSTANTIATE_TEST_SUITE_P(Seeds, AsOfJoinResidual,
                         ::testing::Values(3u, 7u, 31u));
INSTANTIATE_TEST_SUITE_P(Seeds, BandJoinAndWindowDifferential,
                         ::testing::Values(3u, 7u, 31u));
INSTANTIATE_TEST_SUITE_P(Seeds, LeafPredicateProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));

}  // namespace
}  // namespace sqldb
}  // namespace hyperq
