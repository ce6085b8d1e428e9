#include <gtest/gtest.h>

#include "algebrizer/binder.h"
#include "core/loader.h"
#include "core/mdi.h"
#include "kdb/engine.h"
#include "qlang/parser.h"
#include "serializer/serializer.h"
#include "sqldb/sql_parser.h"
#include "xformer/xformer.h"

namespace hyperq {
namespace {

class SerializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kdb::Interpreter loader;
    ASSERT_TRUE(
        loader.EvalText("t: ([] sym:`a`b; px:1.0 2.0; ts:09:30:00.000 "
                        "09:30:01.000)")
            .ok());
    ASSERT_TRUE(LoadQTable(&db_, "t", *loader.GetGlobal("t")).ok());
    ASSERT_TRUE(loader
                    .EvalText("trades: ([] Sym:`S1`S2`S3; Price:10.0 20.0 "
                              "30.0; Size:5 50 500)")
                    .ok());
    ASSERT_TRUE(
        LoadQTable(&db_, "trades", *loader.GetGlobal("trades")).ok());
    ASSERT_TRUE(loader.EvalText("d: ([sym:`a`b] w:3 4)").ok());
    ASSERT_TRUE(LoadQTable(&db_, "d", *loader.GetGlobal("d")).ok());
    mdi_ = std::make_unique<SqldbMetadata>(&db_, nullptr);
    scopes_ = std::make_unique<VariableScopes>(mdi_.get());
  }

  std::string Sql(const std::string& q) {
    Binder binder(mdi_.get(), scopes_.get());
    auto ast = Parser::ParseExpression(q);
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    auto bound = binder.BindQuery(*ast);
    EXPECT_TRUE(bound.ok()) << q << ": " << bound.status().ToString();
    if (!bound.ok()) return "";
    Xformer xformer;
    EXPECT_TRUE(xformer.Transform(bound->root, true).ok());
    Serializer serializer;
    auto sql = serializer.Serialize(bound->root);
    EXPECT_TRUE(sql.ok()) << sql.status().ToString();
    return sql.ok() ? *sql : "";
  }

  sqldb::Database db_;
  std::unique_ptr<SqldbMetadata> mdi_;
  std::unique_ptr<VariableScopes> scopes_;
};

TEST_F(SerializerTest, GeneratedSqlAlwaysReparses) {
  // Property: everything the serializer emits must be accepted by the SQL
  // parser (the contract between Hyper-Q and the PG-compatible backend).
  const char* queries[] = {
      "select from t",
      "select px from t where sym=`a",
      "select mx: max px by sym from t",
      "select s: sums px from t",
      "update px: 2*px from t where sym=`b",
      "delete sym from t",
      "`px xdesc t",
      "2#t",
      "-1#t",
      "distinct select sym from t",
      "exec max px from t",
      "select from t where px within 0.5 1.5",
      "select from t where sym like \"a*\"",
  };
  for (const char* q : queries) {
    std::string sql = Sql(q);
    ASSERT_FALSE(sql.empty()) << q;
    auto parsed = sqldb::SqlParser::Parse(sql);
    EXPECT_TRUE(parsed.ok()) << q << "\nSQL: " << sql << "\n"
                             << parsed.status().ToString();
  }
}

TEST_F(SerializerTest, QuotingPreservesCase) {
  std::string sql = Sql("select px from t");
  EXPECT_NE(sql.find("\"px\""), std::string::npos);
  EXPECT_NE(sql.find("\"t\""), std::string::npos);
}

TEST_F(SerializerTest, ConstRendering) {
  // Scalar constant rendering via bound expressions.
  std::string sql = Sql("select from t where px > 1.5");
  EXPECT_NE(sql.find("1.5"), std::string::npos);
  std::string syms = Sql("select from t where sym=`a");
  EXPECT_NE(syms.find("'a'::varchar"), std::string::npos);
  std::string times = Sql("select from t where ts >= 09:30:01.000");
  EXPECT_NE(times.find("TIME '09:30:01.000'"), std::string::npos);
}

TEST_F(SerializerTest, FloatDivisionGetsCast) {
  // q's % always divides as floats; PG integer division truncates, so the
  // serializer must force a float division.
  std::string sql = Sql("select r: px%2 from t");
  EXPECT_NE(sql.find("CAST("), std::string::npos) << sql;
  EXPECT_NE(sql.find("double precision"), std::string::npos) << sql;
}

TEST_F(SerializerTest, TypeNameMapping) {
  EXPECT_STREQ(Serializer::SqlTypeNameFor(QType::kLong), "bigint");
  EXPECT_STREQ(Serializer::SqlTypeNameFor(QType::kSymbol), "varchar");
  EXPECT_STREQ(Serializer::SqlTypeNameFor(QType::kFloat),
               "double precision");
  EXPECT_STREQ(Serializer::SqlTypeNameFor(QType::kTimestamp), "timestamp");
}

TEST_F(SerializerTest, QuoteHelpers) {
  EXPECT_EQ(Serializer::QuoteIdent("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(Serializer::QuoteLiteral("it's"), "'it''s'");
}

TEST_F(SerializerTest, InListExpansion) {
  std::string sql = Sql("select from t where sym in `a`b");
  EXPECT_NE(sql.find("IN ('a'::varchar, 'b'::varchar)"), std::string::npos)
      << sql;
}

TEST_F(SerializerTest, LimitMergesWithSort) {
  std::string sql = Sql("2#`px xdesc t");
  // ORDER BY and LIMIT must land in the same SELECT so LIMIT applies to
  // the ordered rows.
  size_t order_pos = sql.find("ORDER BY");
  size_t limit_pos = sql.find("LIMIT 2");
  ASSERT_NE(order_pos, std::string::npos) << sql;
  ASSERT_NE(limit_pos, std::string::npos) << sql;
  EXPECT_LT(order_pos, limit_pos);
}

TEST_F(SerializerTest, NullConstantsAreTyped) {
  std::string sql = Sql("update gap: 0N from t");
  EXPECT_NE(sql.find("CAST(NULL AS bigint)"), std::string::npos) << sql;
}

TEST_F(SerializerTest, PerfbenchTemplatesAreOneBlock) {
  // The hot dashboard and live ingest shapes: each single-table template
  // is one SELECT block, with no derived table.
  const std::pair<const char*, const char*> cases[] = {
      {"select Sym, Price, Size from trades where Price>100.5",
       "SELECT \"Sym\", \"Price\", \"Size\", \"ordcol\" FROM \"trades\" WHERE "
       "(\"Price\" > 100.5) ORDER BY \"ordcol\""},
      {"select from trades where Sym=`S1",
       "SELECT \"Sym\", \"Price\", \"Size\", \"ordcol\" FROM \"trades\" WHERE "
       "(\"Sym\" = 'S1'::varchar) ORDER BY \"ordcol\""},
      {"select Sym, Price from trades where Sym in `S1`S2`S3",
       "SELECT \"Sym\", \"Price\", \"ordcol\" FROM \"trades\" WHERE (\"Sym\" "
       "IN ('S1'::varchar, 'S2'::varchar, 'S3'::varchar)) ORDER BY \"ordcol\""},
      {"select s: sum Price, n: count Price by Sym from trades where Size>50",
       "SELECT \"Sym\", SUM(\"Price\") AS \"s\", COUNT(*) AS \"n\" FROM "
       "\"trades\" WHERE (\"Size\" > 50) GROUP BY \"Sym\" ORDER BY \"Sym\""},
      {"exec avg Price from trades where Sym=`S2",
       "SELECT AVG(\"Price\") AS \"Price\" FROM \"trades\" WHERE (\"Sym\" = "
       "'S2'::varchar)"},
      {"select Sym, chg: deltas Price from trades where Sym=`S1",
       "SELECT \"Sym\", (\"Price\" - COALESCE(LAG(\"Price\") OVER (ORDER BY "
       "\"ordcol\"), 0)) AS \"chg\", \"ordcol\" FROM \"trades\" WHERE "
       "(\"Sym\" = 'S1'::varchar) ORDER BY \"ordcol\""},
  };
  for (const auto& [q, want] : cases) {
    std::string sql = Sql(q);
    EXPECT_EQ(sql, want) << q;
    EXPECT_EQ(sql.find("FROM ("), std::string::npos) << q;
  }
}

TEST_F(SerializerTest, StackedFiltersAndOneWhere) {
  EXPECT_EQ(Sql("select from t where px>1.0, sym=`a"),
            "SELECT \"sym\", \"px\", \"ts\", \"ordcol\" FROM \"t\" WHERE "
            "(\"px\" > 1.0) AND (\"sym\" = 'a'::varchar) ORDER BY "
            "\"ordcol\"");
}

TEST_F(SerializerTest, FilterOverLimitKeepsDerivedTable) {
  // WHERE would otherwise run before the LIMIT it must follow.
  EXPECT_EQ(Sql("select from (2#t) where px>1.0"),
            "SELECT t0.\"sym\" AS \"sym\", t0.\"px\" AS \"px\", t0.\"ts\" AS "
            "\"ts\", t0.\"ordcol\" AS \"ordcol\" FROM (SELECT \"sym\", "
            "\"px\", \"ts\", \"ordcol\" FROM \"t\" ORDER BY \"ordcol\" LIMIT "
            "2) AS t0 WHERE (t0.\"px\" > 1.0) ORDER BY \"ordcol\"");
}

TEST_F(SerializerTest, FilterOverAggregateKeepsDerivedTable) {
  // WHERE over an aggregate output is not a WHERE over its input.
  EXPECT_EQ(Sql("select from (select mx: max px by sym from t) where mx>1.0"),
            "SELECT t0.\"sym\" AS \"sym\", t0.\"mx\" AS \"mx\" FROM (SELECT "
            "\"sym\", MAX(\"px\") AS \"mx\" FROM \"t\" GROUP BY \"sym\" ORDER "
            "BY \"sym\") AS t0 WHERE (t0.\"mx\" > 1.0)");
}

TEST_F(SerializerTest, FilterOverComputedColumnKeepsDerivedTable) {
  // Only plain column references substitute into a merged block.
  EXPECT_EQ(Sql("select from (update r: 2*px from t) where r>1.0"),
            "SELECT t0.\"sym\" AS \"sym\", t0.\"px\" AS \"px\", t0.\"ts\" AS "
            "\"ts\", t0.\"ordcol\" AS \"ordcol\", t0.\"r\" AS \"r\" FROM "
            "(SELECT \"sym\", \"px\", \"ts\", \"ordcol\", (2 * \"px\") AS "
            "\"r\" FROM \"t\") AS t0 WHERE (t0.\"r\" > 1.0) ORDER BY "
            "\"ordcol\"");
}

TEST_F(SerializerTest, JoinInputsStayDerivedTables) {
  EXPECT_EQ(Sql("select sym, w from t lj d"),
            "SELECT t0.\"sym\" AS \"sym\", t1.\"w\" AS \"w\", t0.\"ordcol\" "
            "AS \"ordcol\" FROM (SELECT \"sym\", \"ordcol\" FROM \"t\") AS t0 "
            "LEFT JOIN (SELECT \"sym\", \"w\" FROM \"d\") AS t1 ON "
            "(t0.\"sym\" IS NOT DISTINCT FROM t1.\"sym\") ORDER BY \"ordcol\"");
}

TEST_F(SerializerTest, FinalOrderOverUnionAllKeepsOneWrapper) {
  // A UNION ALL block cannot take the q-order ORDER BY itself.
  auto scan = [](xtra::ColId first) {
    return xtra::MakeGet("t",
                         {{first, "sym", QType::kSymbol, true},
                          {first + 1, "ordcol", QType::kLong, false}},
                         first + 1);
  };
  xtra::XtraPtr left = scan(1);
  xtra::XtraPtr u = xtra::MakeUnionAll(left, scan(3), left->output);
  u->ord_col = 2;
  Serializer serializer;
  Result<std::string> sql = serializer.Serialize(u);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(*sql,
            "SELECT * FROM (SELECT \"sym\", \"ordcol\" FROM \"t\" UNION "
            "ALL SELECT \"sym\", \"ordcol\" FROM \"t\") AS hq_final ORDER "
            "BY \"ordcol\"");
}

}  // namespace
}  // namespace hyperq
