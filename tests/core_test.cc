#include <gtest/gtest.h>

#include <thread>

#include "core/fsm.h"
#include "core/hyperq.h"
#include "core/loader.h"
#include "core/metadata_cache.h"
#include "kdb/engine.h"

namespace hyperq {
namespace {

// ---------------------------------------------------------------------------
// FSM (§3.4)
// ---------------------------------------------------------------------------

enum class S { kIdle, kWorking, kDone };
enum class E { kStart, kFinish };

TEST(FsmTest, TransitionsRunCallbacksInOrder) {
  std::vector<int> trace;
  TransitionTable<S, E> table("test");
  table.Add(S::kIdle, E::kStart, S::kWorking, [&]() {
    trace.push_back(1);
    return Status::OK();
  });
  table.Add(S::kWorking, E::kFinish, S::kDone, [&]() {
    trace.push_back(2);
    return Status::OK();
  });
  Fsm<S, E> fsm(S::kIdle, &table);
  ASSERT_TRUE(fsm.Fire(E::kStart).ok());
  EXPECT_EQ(fsm.state(), S::kWorking);
  ASSERT_TRUE(fsm.Fire(E::kFinish).ok());
  EXPECT_EQ(fsm.state(), S::kDone);
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
}

TEST(FsmTest, UndefinedTransitionIsProtocolError) {
  TransitionTable<S, E> table("test");
  Fsm<S, E> fsm(S::kIdle, &table);
  Status s = fsm.Fire(E::kFinish);
  EXPECT_EQ(s.code(), StatusCode::kProtocolError);
  EXPECT_EQ(fsm.state(), S::kIdle);
}

TEST(FsmTest, FailingCallbackKeepsSourceState) {
  TransitionTable<S, E> table("test");
  table.Add(S::kIdle, E::kStart, S::kWorking,
            []() { return InternalError("boom"); });
  Fsm<S, E> fsm(S::kIdle, &table);
  EXPECT_FALSE(fsm.Fire(E::kStart).ok());
  EXPECT_EQ(fsm.state(), S::kIdle);  // not committed
}

// ---------------------------------------------------------------------------
// Metadata cache (§6)
// ---------------------------------------------------------------------------

class CountingMdi : public MetadataInterface {
 public:
  Result<TableMetadataPtr> LookupTable(const std::string& name) override {
    ++lookups;
    if (name == "missing") return NotFound("missing");
    return TableMetadataPtr(std::make_shared<TableMetadata>(
        name, std::vector<ColumnMetadata>{{"a", QType::kLong}}));
  }
  bool HasTable(const std::string& name) override {
    // Only these names exist in the "server catalog".
    return name == "trades" || name == "t";
  }
  int lookups = 0;
};

TEST(MetadataCacheTest, HitsAvoidInnerLookups) {
  CountingMdi inner;
  MetadataCache cache(&inner, MetadataCache::Options{});
  ASSERT_TRUE(cache.LookupTable("t").ok());
  ASSERT_TRUE(cache.LookupTable("t").ok());
  ASSERT_TRUE(cache.LookupTable("t").ok());
  EXPECT_EQ(inner.lookups, 1);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MetadataCacheTest, DisabledAlwaysDelegates) {
  CountingMdi inner;
  MetadataCache::Options opts;
  opts.enabled = false;
  MetadataCache cache(&inner, opts);
  ASSERT_TRUE(cache.LookupTable("t").ok());
  ASSERT_TRUE(cache.LookupTable("t").ok());
  EXPECT_EQ(inner.lookups, 2);
}

TEST(MetadataCacheTest, TtlExpiry) {
  CountingMdi inner;
  MetadataCache::Options opts;
  opts.ttl = std::chrono::milliseconds(20);
  MetadataCache cache(&inner, opts);
  ASSERT_TRUE(cache.LookupTable("t").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(cache.LookupTable("t").ok());
  EXPECT_EQ(inner.lookups, 2);  // expired entry refetched
}

TEST(MetadataCacheTest, VersionChangeFlushes) {
  CountingMdi inner;
  MetadataCache cache(&inner, MetadataCache::Options{});
  uint64_t version = 1;
  cache.SetVersionProvider([&]() { return version; });
  ASSERT_TRUE(cache.LookupTable("t").ok());
  ASSERT_TRUE(cache.LookupTable("t").ok());
  EXPECT_EQ(inner.lookups, 1);
  version = 2;  // a DDL happened
  ASSERT_TRUE(cache.LookupTable("t").ok());
  EXPECT_EQ(inner.lookups, 2);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(MetadataCacheTest, ExplicitInvalidation) {
  CountingMdi inner;
  MetadataCache cache(&inner, MetadataCache::Options{});
  ASSERT_TRUE(cache.LookupTable("t").ok());
  cache.InvalidateTable("t");
  ASSERT_TRUE(cache.LookupTable("t").ok());
  EXPECT_EQ(inner.lookups, 2);
}

TEST(MetadataCacheTest, MissesPropagate) {
  CountingMdi inner;
  MetadataCache cache(&inner, MetadataCache::Options{});
  EXPECT_FALSE(cache.LookupTable("missing").ok());
}

// ---------------------------------------------------------------------------
// Variable scopes (§3.2.3, Figure 3)
// ---------------------------------------------------------------------------

TEST(ScopesTest, HierarchyLookupOrder) {
  CountingMdi mdi;
  VariableScopes scopes(&mdi);

  // Server scope: any table the MDI knows.
  auto server = scopes.Lookup("trades");
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->kind, VarBinding::Kind::kRelation);

  // Session scope shadows server.
  VarBinding scalar;
  scalar.kind = VarBinding::Kind::kScalar;
  scalar.scalar = QValue::Long(1);
  scopes.Upsert("trades", scalar);
  auto shadowed = scopes.Lookup("trades");
  ASSERT_TRUE(shadowed.ok());
  EXPECT_EQ(shadowed->kind, VarBinding::Kind::kScalar);

  // Local scope shadows session.
  scopes.PushLocal();
  VarBinding local;
  local.kind = VarBinding::Kind::kScalar;
  local.scalar = QValue::Long(99);
  scopes.Upsert("trades", local);
  EXPECT_EQ(scopes.Lookup("trades")->scalar.AsInt(), 99);
  scopes.PopLocal();
  EXPECT_EQ(scopes.Lookup("trades")->scalar.AsInt(), 1);
}

TEST(ScopesTest, LocalUpsertsNeverPromote) {
  CountingMdi mdi;
  VariableScopes scopes(&mdi);
  scopes.PushLocal();
  VarBinding b;
  b.kind = VarBinding::Kind::kScalar;
  b.scalar = QValue::Long(5);
  scopes.Upsert("x", b);
  scopes.PopLocal();
  // §3.2.3: "local upsert calls never get promoted to higher scopes".
  EXPECT_FALSE(scopes.Lookup("x").ok());
  EXPECT_TRUE(scopes.session_vars().empty());
}

TEST(ScopesTest, SessionUpsertsVisibleAfterFunctionExit) {
  CountingMdi mdi;
  VariableScopes scopes(&mdi);
  VarBinding b;
  b.kind = VarBinding::Kind::kScalar;
  b.scalar = QValue::Long(7);
  scopes.Upsert("y", b);  // outside any function -> session
  scopes.PushLocal();
  EXPECT_TRUE(scopes.Lookup("y").ok());  // visible inside
  scopes.PopLocal();
  EXPECT_EQ(scopes.session_vars().count("y"), 1u);
}

// ---------------------------------------------------------------------------
// Loader round trip
// ---------------------------------------------------------------------------

TEST(LoaderTest, AllTypesRoundTripThroughBackend) {
  kdb::Interpreter q;
  auto table = q.EvalText(
      "([] b:101b; s:`x`y`z; j:1 0N 3; f:1.5 0n 2.5;"
      " d:2016.06.26 2016.06.27 2016.06.28;"
      " t:09:30:00.000 09:30:01.000 09:30:02.000)");
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  sqldb::Database db;
  ASSERT_TRUE(LoadQTable(&db, "rt", *table).ok());

  HyperQSession session(&db);
  auto back = session.Query("select from rt");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(QValue::Match(*table, *back))
      << "in:  " << table->ToString() << "\nout: " << back->ToString();
}

TEST(LoaderTest, KeyedTableRecordsKeys) {
  kdb::Interpreter q;
  auto kt = q.EvalText("([sym:`a`b] px:1.0 2.0)");
  ASSERT_TRUE(kt.ok());
  sqldb::Database db;
  ASSERT_TRUE(LoadQTable(&db, "ref", *kt).ok());
  auto stored = db.catalog().GetTable("ref");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*stored)->key_columns, (std::vector<std::string>{"sym"}));
}

TEST(LoaderTest, OrdcolAddedAndStripped) {
  kdb::Interpreter q;
  auto t = q.EvalText("([] a: 1 2 3)");
  sqldb::Database db;
  ASSERT_TRUE(LoadQTable(&db, "t", *t).ok());
  auto stored = db.catalog().GetTable("t");
  ASSERT_TRUE(stored.ok());
  EXPECT_GE((*stored)->FindColumn("ordcol"), 0);

  HyperQSession session(&db);
  auto back = session.Query("select from t");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Table().FindColumn("ordcol"), -1);
}

}  // namespace
}  // namespace hyperq
