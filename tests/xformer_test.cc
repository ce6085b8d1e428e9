#include <gtest/gtest.h>

#include "algebrizer/binder.h"
#include "core/hyperq.h"
#include "kdb/engine.h"
#include "qlang/parser.h"
#include "serializer/serializer.h"
#include "xformer/xformer.h"

namespace hyperq {
namespace {

/// Builds bound XTRA trees from q text against a small catalog, so the
/// Xformer rules can be tested in isolation.
class XformerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kdb::Interpreter loader;
    ASSERT_TRUE(loader
                    .EvalText("t: ([] sym:`a`b; px:1.0 2.0; qty:10 20;"
                              " extra1:1 2; extra2:3 4)")
                    .ok());
    ASSERT_TRUE(LoadQTable(&db_, "t", *loader.GetGlobal("t")).ok());
    mdi_ = std::make_unique<SqldbMetadata>(&db_, nullptr);
    scopes_ = std::make_unique<VariableScopes>(mdi_.get());
  }

  BoundQuery Bind(const std::string& q) {
    Binder binder(mdi_.get(), scopes_.get());
    auto ast = Parser::ParseExpression(q);
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    auto bound = binder.BindQuery(*ast);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound.ok() ? std::move(bound).value() : BoundQuery{};
  }

  std::string SerializeWith(const std::string& q, Xformer::Options opts,
                            bool order_required = true) {
    BoundQuery bound = Bind(q);
    Xformer xformer(opts);
    Status s = xformer.Transform(bound.root, order_required);
    EXPECT_TRUE(s.ok()) << s.ToString();
    Serializer serializer;
    auto sql = serializer.Serialize(bound.root);
    EXPECT_TRUE(sql.ok()) << sql.status().ToString();
    return sql.ok() ? *sql : "";
  }

  /// The columns the transformed tree scans from its base table. The
  /// serializer reads only the columns a flat statement references, so
  /// pruning is observed on the tree rather than in the SQL text.
  std::string ScanColumns(const std::string& q, Xformer::Options opts,
                          bool order_required = true) {
    BoundQuery bound = Bind(q);
    Xformer xformer(opts);
    Status s = xformer.Transform(bound.root, order_required);
    EXPECT_TRUE(s.ok()) << s.ToString();
    xtra::XtraPtr op = bound.root;
    while (op != nullptr && op->kind != xtra::XtraKind::kGet) {
      op = op->children.empty() ? nullptr : op->children[0];
    }
    std::string cols;
    if (op == nullptr) return cols;
    for (const auto& c : op->output) cols += c.name + ",";
    return cols;
  }

  sqldb::Database db_;
  std::unique_ptr<SqldbMetadata> mdi_;
  std::unique_ptr<VariableScopes> scopes_;
};

TEST_F(XformerTest, NullSemanticsRuleRewritesEquality) {
  // A projected comparison yields a boolean per row, null cells included.
  Xformer::Options on;
  std::string sql = SerializeWith("select b: sym=`a from t", on);
  EXPECT_NE(sql.find("IS NOT DISTINCT FROM"), std::string::npos) << sql;
  EXPECT_EQ(sql.find(" = "), std::string::npos) << sql;

  Xformer::Options off;
  off.null_semantics = false;
  std::string plain = SerializeWith("select b: sym=`a from t", off);
  EXPECT_EQ(plain.find("IS NOT DISTINCT FROM"), std::string::npos) << plain;
  EXPECT_NE(plain.find("="), std::string::npos);
}

TEST_F(XformerTest, NullSemanticsKeepsFiltersPlain) {
  // A filter keeps only TRUE rows, so a NULL verdict may stand for FALSE:
  // against a literal, `=`, `>` and `>=` stay plain, and `<`, `<=` and
  // `<>` only add the null cells q orders first.
  Xformer::Options on;
  std::string sql = SerializeWith("select from t where sym=`a", on);
  EXPECT_NE(sql.find("WHERE (\"sym\" = 'a'::varchar)"), std::string::npos)
      << sql;
  sql = SerializeWith("select from t where px>1.5, 2<qty", on);
  EXPECT_NE(sql.find("WHERE (\"px\" > 1.5) AND (\"qty\" > 2)"),
            std::string::npos)
      << sql;
  sql = SerializeWith("select from t where (px<1.5)|sym<>`a", on);
  EXPECT_NE(sql.find("WHERE (((\"px\" < 1.5) OR (\"px\" IS NULL)) OR "
                     "((\"sym\" <> 'a'::varchar) OR (\"sym\" IS NULL)))"),
            std::string::npos)
      << sql;
  // A null literal leaves only the operand's nullness.
  sql = SerializeWith("select from t where qty>0N", on);
  EXPECT_NE(sql.find("WHERE (\"qty\" IS NOT NULL)"), std::string::npos)
      << sql;
  // `<` against a null literal holds for no row, `>=` for every row: the
  // filter empties or goes away.
  sql = SerializeWith("select from t where qty<0N", on);
  EXPECT_NE(sql.find("WHERE FALSE"), std::string::npos) << sql;
  sql = SerializeWith("select from t where px>1.5, qty>=0N", on);
  EXPECT_NE(sql.find("WHERE (\"px\" > 1.5) ORDER BY"), std::string::npos)
      << sql;
  sql = SerializeWith("select from t where (qty>=0N)&px>1.5", on);
  EXPECT_NE(sql.find("WHERE (\"px\" > 1.5) ORDER BY"), std::string::npos)
      << sql;
  sql = SerializeWith("select px from t where qty>=0N", on);
  EXPECT_EQ(sql.find("WHERE"), std::string::npos) << sql;
  // Under `not` a NULL verdict would turn TRUE: the null-aware form stays.
  sql = SerializeWith("select from t where not sym=`a", on);
  EXPECT_NE(sql.find("(NOT (\"sym\" IS NOT DISTINCT FROM 'a'::varchar))"),
            std::string::npos)
      << sql;
  // Across q types `=` would raise an error where q says "unequal".
  sql = SerializeWith("select from t where sym=\"a\"", on);
  EXPECT_EQ(sql.find(" = "), std::string::npos) << sql;
}

TEST_F(XformerTest, NullSemanticsLeavesNonNullableAlone) {
  // ordcol is non-nullable; comparisons against it stay strict. Exercised
  // indirectly: constants are non-nullable, so const=const stays '='.
  BoundQuery bound = Bind("select from t where px>1.5");
  Xformer xformer{Xformer::Options{}};
  ASSERT_TRUE(xformer.Transform(bound.root, true).ok());
  Serializer serializer;
  std::string sql = *serializer.Serialize(bound.root);
  // Ordering comparisons are never rewritten (IS NOT DISTINCT FROM only
  // replaces eq/ne).
  EXPECT_NE(sql.find(">"), std::string::npos);
}

TEST_F(XformerTest, ColumnPruningDropsUnusedWideColumns) {
  // A column list narrows the scan at bind time; pruning then drops the
  // order column an aggregate does not need.
  Xformer::Options on;
  Xformer::Options off;
  off.column_pruning = false;
  EXPECT_EQ(ScanColumns("select mx: max px by sym from t", off),
            "sym,px,ordcol,");
  EXPECT_EQ(ScanColumns("select mx: max px by sym from t", on), "sym,px,");

  // xcol renames by position, so its scan binds every column: there
  // pruning is what drops the unused ones.
  const std::string renamed =
      "select mx: max px by sym from `sym`px`qty`e1`e2 xcol t";
  std::string unpruned = ScanColumns(renamed, off);
  EXPECT_NE(unpruned.find("extra1"), std::string::npos) << unpruned;
  std::string pruned = ScanColumns(renamed, on);
  EXPECT_EQ(pruned, "sym,px,") << pruned;
}

TEST_F(XformerTest, PruningKeepsPredicateColumns) {
  std::string sql =
      SerializeWith("select mx: max px by sym from t where qty>5",
                    Xformer::Options{});
  EXPECT_NE(sql.find("qty"), std::string::npos);
  EXPECT_EQ(sql.find("extra1"), std::string::npos);
}

TEST_F(XformerTest, OrderElisionUnderScalarAggregate) {
  // A scalar aggregate result does not depend on row order; the rule
  // removes the ordering requirement so no ORDER BY is emitted.
  Xformer::Options on;
  std::string sql = SerializeWith("select max px from t", on,
                                  /*order_required=*/false);
  EXPECT_EQ(sql.find("ORDER BY"), std::string::npos) << sql;
}

TEST_F(XformerTest, OrderKeptForRowResults) {
  std::string sql = SerializeWith("select px from t", Xformer::Options{});
  EXPECT_NE(sql.find("ORDER BY"), std::string::npos) << sql;
  EXPECT_NE(sql.find("ordcol"), std::string::npos) << sql;
}

TEST_F(XformerTest, OrderElisionDisabledKeepsOrdcolAlive) {
  // With elision off the scalar aggregate still carries the ordering
  // machinery (the ablation's cost).
  Xformer::Options off;
  off.order_elision = false;
  // ordcol survives pruning because order_required stayed true below.
  std::string scan = ScanColumns("select max px from t", off,
                                 /*order_required=*/false);
  EXPECT_NE(scan.find("ordcol"), std::string::npos) << scan;
}

TEST_F(XformerTest, AppliedRulesAreReported) {
  BoundQuery bound = Bind("select b: sym=`a from t");
  Xformer xformer{Xformer::Options{}};
  ASSERT_TRUE(xformer.Transform(bound.root, true).ok());
  const auto& rules = xformer.applied_rules();
  EXPECT_NE(std::find(rules.begin(), rules.end(), "null_semantics"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "column_pruning"),
            rules.end());
}

TEST_F(XformerTest, PrunedTreeStillExecutes) {
  // End-to-end safety: aggressive pruning must not break execution.
  HyperQSession session(&db_);
  auto r = session.Query("select mx: max px by sym from t where qty>5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->IsKeyedTable());
}

}  // namespace
}  // namespace hyperq
