#include <gtest/gtest.h>

#include "core/hyperq.h"
#include "kdb/engine.h"

namespace hyperq {
namespace {

/// §5: "error messages in Hyper-Q are more verbose and informative than
/// those provided by kdb+". Every untranslatable or invalid construct must
/// produce an error that names the offending element — never a bare 'nyi.
class TranslatorErrorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kdb::Interpreter loader;
    ASSERT_TRUE(
        loader.EvalText("t: ([] sym:`a`b; px:1.0 2.0; qty:10 20)").ok());
    ASSERT_TRUE(LoadQTable(&db_, "t", *loader.GetGlobal("t")).ok());
    session_ = std::make_unique<HyperQSession>(&db_);
  }

  Status Fails(const std::string& q) {
    auto r = session_->Query(q);
    EXPECT_FALSE(r.ok()) << q << " unexpectedly succeeded";
    return r.ok() ? Status::OK() : r.status();
  }

  sqldb::Database db_;
  std::unique_ptr<HyperQSession> session_;
};

TEST_F(TranslatorErrorsTest, UnknownTableNamesTheScopes) {
  Status s = Fails("select from ghost");
  EXPECT_NE(s.message().find("ghost"), std::string::npos);
  EXPECT_NE(s.message().find("scope"), std::string::npos) << s.ToString();
}

TEST_F(TranslatorErrorsTest, UnknownColumnListsAvailable) {
  Status s = Fails("select nope from t");
  EXPECT_NE(s.message().find("nope"), std::string::npos);
  EXPECT_NE(s.message().find("sym"), std::string::npos);  // lists columns
}

TEST_F(TranslatorErrorsTest, ParseErrorCarriesLocation) {
  Status s = Fails("select px from t where");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find(":"), std::string::npos);  // line:col
}

TEST_F(TranslatorErrorsTest, UntranslatableFunctionNamesIt) {
  Status s = Fails("select reciprocal px from t");
  EXPECT_NE(s.message().find("reciprocal"), std::string::npos)
      << s.ToString();
}

TEST_F(TranslatorErrorsTest, MixedAggAndRowExprExplained) {
  Status s = Fails("select px, max px from t");
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  EXPECT_NE(s.message().find("aggregat"), std::string::npos);
}

TEST_F(TranslatorErrorsTest, ScalarUsedAsTableExplained) {
  Status s = Fails("X: 5; select from X");
  EXPECT_NE(s.message().find("scalar"), std::string::npos) << s.ToString();
}

TEST_F(TranslatorErrorsTest, LjWithoutKeysExplained) {
  Status s = Fails("t lj t");
  EXPECT_NE(s.message().find("keyed"), std::string::npos) << s.ToString();
}

TEST_F(TranslatorErrorsTest, WrongAjArityExplained) {
  Status s = Fails("aj[`sym; t]");
  EXPECT_NE(s.message().find("3 arguments"), std::string::npos)
      << s.ToString();
}

TEST_F(TranslatorErrorsTest, FunctionArityChecked) {
  Status s = Fails("f: {[a;b] a+b}; f[1;2;3]");
  EXPECT_NE(s.message().find("2"), std::string::npos) << s.ToString();
}

TEST_F(TranslatorErrorsTest, NonConstantFunctionArgExplained) {
  Status s = Fails("f: {[S] :exec max px from t where sym=S}; f[t]");
  EXPECT_NE(s.message().find("constant"), std::string::npos)
      << s.ToString();
}

// The translation cache never changes an error: every query above fails
// with the same code and message with the cache on and off, on its first
// and on a repeated request.
TEST_F(TranslatorErrorsTest, CacheDoesNotChangeAnyError) {
  const char* kQueries[] = {
      "select from ghost",
      "select nope from t",
      "select px from t where",
      "select reciprocal px from t",
      "select px, max px from t",
      "X: 5; select from X",
      "t lj t",
      "aj[`sym; t]",
      "f: {[a;b] a+b}; f[1;2;3]",
      "f: {[S] :exec max px from t where sym=S}; f[t]",
  };
  HyperQSession::Options off;
  off.translation_cache.enabled = false;
  for (const char* q : kQueries) {
    HyperQSession cached(&db_);
    HyperQSession uncached(&db_, off);
    for (int round = 0; round < 2; ++round) {
      Result<QValue> on = cached.Query(q);
      Result<QValue> reference = uncached.Query(q);
      ASSERT_FALSE(on.ok()) << q;
      ASSERT_FALSE(reference.ok()) << q;
      EXPECT_EQ(on.status().code(), reference.status().code()) << q;
      EXPECT_EQ(on.status().message(), reference.status().message()) << q;
    }
  }
}

TEST_F(TranslatorErrorsTest, ConnectionStateSurvivesErrors) {
  (void)Fails("select from ghost");
  (void)Fails("select nope from t");
  auto ok = session_->Query("exec max px from t");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_DOUBLE_EQ(ok->AsFloat(), 2.0);
}

TEST_F(TranslatorErrorsTest, LogicalMaterializationMode) {
  HyperQSession::Options opts;
  opts.translator.materialize = MaterializeMode::kLogical;
  HyperQSession logical(&db_, opts);
  auto r = logical.Query(
      "dt: select px from t where qty>15; exec max px from dt");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->AsFloat(), 2.0);
  // The setup statement created a view, not a table.
  auto tr = logical.Translate("dt: select px from t; exec max px from dt");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  ASSERT_FALSE(tr->setup_sql.empty());
  EXPECT_NE(tr->setup_sql[0].find("CREATE TEMPORARY VIEW"),
            std::string::npos)
      << tr->setup_sql[0];
}

TEST_F(TranslatorErrorsTest, PhysicalMaterializationCreatesTables) {
  auto tr = session_->Translate("dt: select px from t; exec max px from dt");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  ASSERT_FALSE(tr->setup_sql.empty());
  EXPECT_NE(tr->setup_sql[0].find("CREATE TEMPORARY TABLE"),
            std::string::npos);
}

}  // namespace
}  // namespace hyperq
