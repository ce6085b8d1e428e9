// Fused-kernel execution battery (src/sqldb/kernel.h): byte-identity of
// kernel results against the interpreted executor across null patterns,
// empty/all-filtered/skewed/parallel-sized tables, per-statement compiles
// against the table each statement reads, fault-site fallback, and
// deadline behavior.

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/worker_pool.h"
#include "sqldb/database.h"
#include "testing/market_data.h"

namespace hyperq {
namespace sqldb {
namespace {

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Cell-level byte identity: same null mask, same Datum type, and for
/// floats the same bit pattern (NaN payloads and signed zeros included).
void ExpectCellEq(const Datum& a, const Datum& b, const std::string& ctx) {
  ASSERT_EQ(a.is_null(), b.is_null()) << ctx;
  if (a.is_null()) return;
  ASSERT_EQ(static_cast<int>(a.type()), static_cast<int>(b.type())) << ctx;
  if (a.type() == SqlType::kDouble || a.type() == SqlType::kReal) {
    double x = a.AsDouble(), y = b.AsDouble();
    ASSERT_EQ(0, std::memcmp(&x, &y, sizeof(x))) << ctx << " " << x
                                                 << " vs " << y;
  } else if (IsStringType(a.type())) {
    ASSERT_EQ(a.AsString(), b.AsString()) << ctx;
  } else {
    ASSERT_EQ(a.AsInt(), b.AsInt()) << ctx;
  }
}

void ExpectResultEq(const Result<QueryResult>& a, const Result<QueryResult>& b,
                    const std::string& sql) {
  ASSERT_EQ(a.ok(), b.ok()) << sql << "\n  kernel: " << a.status().ToString()
                            << "\n  interp: " << b.status().ToString();
  if (!a.ok()) {
    ASSERT_EQ(a.status().ToString(), b.status().ToString()) << sql;
    return;
  }
  const QueryResult& ka = *a;
  const QueryResult& kb = *b;
  ASSERT_EQ(ka.command_tag, kb.command_tag) << sql;
  ASSERT_EQ(ka.columns.size(), kb.columns.size()) << sql;
  for (size_t c = 0; c < ka.columns.size(); ++c) {
    ASSERT_EQ(ka.columns[c].name, kb.columns[c].name) << sql;
    ASSERT_EQ(static_cast<int>(ka.columns[c].type),
              static_cast<int>(kb.columns[c].type))
        << sql << " col " << ka.columns[c].name;
  }
  ASSERT_EQ(ka.data.row_count, kb.data.row_count) << sql;
  for (size_t r = 0; r < ka.data.row_count; ++r) {
    for (size_t c = 0; c < ka.columns.size(); ++c) {
      ExpectCellEq(ka.data.At(r, c), kb.data.At(r, c),
                   StrCat(sql, " row ", r, " col ", c));
    }
  }
}

/// Builds one random table and loads the SAME column buffers into both
/// databases (columns are immutable here), so any result divergence is the
/// executor's fault, never the fixture's.
struct TableSpec {
  size_t rows = 0;
  double null_rate = 0.0;  ///< px/qty null density
  int sym_card = 8;        ///< 1 = total skew
  bool with_nan = false;
};

StoredTable MakeTable(const TableSpec& spec, uint64_t seed) {
  hyperq::testing::Rng rng(seed);
  std::vector<std::string> sym(spec.rows);
  std::vector<uint8_t> sym_nulls(spec.rows, 0);
  std::vector<double> px(spec.rows);
  std::vector<uint8_t> px_nulls(spec.rows, 0);
  std::vector<int64_t> qty(spec.rows);
  std::vector<uint8_t> qty_nulls(spec.rows, 0);
  for (size_t i = 0; i < spec.rows; ++i) {
    if (rng.NextDouble() < spec.null_rate / 2) {
      sym_nulls[i] = 1;
    } else {
      sym[i] = StrCat("S", rng.Below(spec.sym_card));
    }
    if (rng.NextDouble() < spec.null_rate) {
      px_nulls[i] = 1;
    } else if (spec.with_nan && rng.Below(16) == 0) {
      px[i] = std::nan("");
    } else {
      px[i] = rng.NextDouble() * 1000.0 - 200.0;
    }
    if (rng.NextDouble() < spec.null_rate) {
      qty_nulls[i] = 1;
    } else {
      qty[i] = static_cast<int64_t>(rng.Below(10000)) - 2000;
    }
  }
  StoredTable t;
  t.name = "facts";
  t.columns = {{"sym", SqlType::kVarchar},
               {"px", SqlType::kDouble},
               {"qty", SqlType::kBigInt}};
  t.data = {Column::FromStrings(SqlType::kVarchar, std::move(sym),
                                std::move(sym_nulls)),
            Column::FromFloats(SqlType::kDouble, std::move(px),
                               std::move(px_nulls)),
            Column::FromInts(SqlType::kBigInt, std::move(qty),
                             std::move(qty_nulls))};
  t.row_count = spec.rows;
  return t;
}

class KernelExec : public ::testing::Test {
 protected:
  void Load(const TableSpec& spec, uint64_t seed) {
    StoredTable t = MakeTable(spec, seed);
    ASSERT_TRUE(kdb_.CreateAndLoad(t).ok());
    ASSERT_TRUE(idb_.CreateAndLoad(std::move(t)).ok());
    idb_.set_kernel_enabled(false);
    ksession_ = kdb_.CreateSession();
    isession_ = idb_.CreateSession();
  }

  /// Runs `sql` on both databases and asserts byte-identical results.
  void Check(const std::string& sql) {
    ExpectResultEq(kdb_.Execute(ksession_.get(), sql),
                   idb_.Execute(isession_.get(), sql), sql);
  }

  Database kdb_;  ///< kernels enabled (default)
  Database idb_;  ///< interpreted only
  std::unique_ptr<Session> ksession_;
  std::unique_ptr<Session> isession_;
};

const char* const kSupportedQueries[] = {
    "SELECT sym, SUM(px) AS s, COUNT(*) AS n FROM facts WHERE qty > 1000 "
    "GROUP BY sym",
    "SELECT sym, COUNT(px), MIN(px), MAX(px), AVG(px) FROM facts GROUP BY sym",
    "SELECT COUNT(*) FROM facts",
    "SELECT SUM(qty), MIN(sym), MAX(sym), COUNT(sym) FROM facts "
    "WHERE px >= 10.5",
    "SELECT sym, qty FROM facts WHERE px BETWEEN 100 AND 500.5",
    "SELECT * FROM facts WHERE sym = 'S3'",
    "SELECT * FROM facts",
    "SELECT qty FROM facts WHERE sym <> 'S1' AND qty <= 5000 "
    "AND px IS NOT NULL",
    "SELECT sym FROM facts WHERE px IS NULL",
    "SELECT px, sym, px AS px2 FROM facts WHERE qty NOT BETWEEN 10 AND 2000",
    "SELECT sym, px, COUNT(*) FROM facts GROUP BY sym, px",
    "SELECT qty, COUNT(*) AS c, SUM(px) FROM facts GROUP BY qty",
    "SELECT px, COUNT(*) FROM facts GROUP BY px",
    "SELECT sym, SUM(px) FROM facts WHERE qty > 99999999 GROUP BY sym",
    "SELECT SUM(px), AVG(qty), COUNT(*) FROM facts WHERE qty > 99999999",
    "SELECT sym, MEDIAN(px), STDDEV(px) FROM facts GROUP BY sym",
    "SELECT sym, FIRST(px), LAST(qty) FROM facts GROUP BY sym",
    "SELECT qty FROM facts WHERE 500 < qty AND qty < 600",
    "SELECT sym, COUNT(*) FROM facts WHERE qty = -17 GROUP BY sym",
    "SELECT px FROM facts WHERE px > -50.25 AND sym IS NOT NULL",
    // --- v2 grammar: ORDER BY / LIMIT / OFFSET ---
    "SELECT sym FROM facts ORDER BY sym",
    "SELECT sym, qty FROM facts ORDER BY qty DESC, sym",
    "SELECT sym, px FROM facts WHERE qty > 0 ORDER BY 2 DESC",
    "SELECT sym FROM facts LIMIT 3",
    "SELECT sym, qty FROM facts LIMIT 5 OFFSET 2",
    "SELECT qty FROM facts ORDER BY qty LIMIT 4 OFFSET 1",
    "SELECT px FROM facts WHERE qty > 100 LIMIT 7",
    "SELECT sym, COUNT(*) AS c FROM facts GROUP BY sym ORDER BY sym LIMIT 3",
    "SELECT sym, SUM(px) FROM facts GROUP BY sym ORDER BY 1 DESC",
    // --- v2 grammar: IN lists ---
    "SELECT sym FROM facts WHERE qty IN (1, 2, 3)",
    "SELECT sym FROM facts WHERE sym NOT IN ('S1', 'S2')",
    "SELECT qty FROM facts WHERE qty IN (100, NULL, 200)",
    "SELECT qty FROM facts WHERE qty NOT IN (100, NULL)",
    "SELECT sym FROM facts WHERE px IN (0.5, 1, 'x')",
    // --- the translator's filter comparisons that hold for a null cell
    // (q orders null first): `((col op lit) OR (col IS NULL))` ---
    "SELECT sym FROM facts WHERE ((qty < 100) OR (qty IS NULL))",
    "SELECT sym FROM facts WHERE ((qty <= 500) OR (qty IS NULL))",
    "SELECT sym FROM facts WHERE ((qty <> 7) OR (qty IS NULL))",
    "SELECT sym FROM facts WHERE ((px < 10.5) OR (px IS NULL))",
    "SELECT qty FROM facts WHERE ((px <= 500) OR (px IS NULL)) AND qty > 10",
    "SELECT qty FROM facts WHERE ((px <> 0.5) OR (px IS NULL))",
    "SELECT qty FROM facts WHERE ((sym < 'S3') OR (sym IS NULL))",
    "SELECT sym, COUNT(*) FROM facts "
    "WHERE ((sym <= 'S2') OR (sym IS NULL)) GROUP BY sym",
    "SELECT qty FROM facts WHERE ((sym <> 'S1') OR (sym IS NULL))",
    "SELECT sym FROM facts WHERE ((100 > qty) OR (qty IS NULL))",
    "SELECT sym FROM facts WHERE ((qty < NULL) OR (qty IS NULL))",
    // --- v2 grammar: the serializer's merged blocks (stacked filters ANDed,
    // quoted names, an aggregate over a filter) ---
    "SELECT sym, qty FROM facts WHERE qty > 10 AND qty < 5000",
    "SELECT \"sym\", \"px\" FROM \"facts\" WHERE \"px\" >= 0",
    "SELECT sym, SUM(px) AS s FROM facts WHERE qty > 0 GROUP BY sym",
    // --- the translator's ungrouped q `sum`: 0 over no rows ---
    "SELECT COALESCE(SUM(qty), 0) AS s FROM facts WHERE qty > 99999999",
    "SELECT COALESCE(SUM(px), 0.0) AS s, COUNT(*) FROM facts "
    "WHERE sym = 'S1'",
    // --- a filter against a null literal that folds to FALSE ---
    "SELECT COUNT(*), AVG(px) FROM facts WHERE FALSE",
    "SELECT sym FROM facts WHERE qty > 10 AND FALSE",
    "SELECT sym, COUNT(*) FROM facts WHERE FALSE GROUP BY sym",
};

class KernelIdentity
    : public KernelExec,
      public ::testing::WithParamInterface<std::tuple<int, uint64_t>> {};

TEST_P(KernelIdentity, ByteIdenticalToInterpreter) {
  static const TableSpec kSpecs[] = {
      {0, 0.0, 8, false},         // empty table
      {1, 0.5, 8, false},         // single row
      {7, 0.3, 3, true},          // tiny, nulls + NaN
      {1000, 0.25, 8, true},      // mid-size
      {1000, 1.0, 1, false},      // everything NULL / one symbol
      {40000, 0.2, 8, true},      // crosses the 32K parallel threshold
      {40000, 0.05, 1, false},    // parallel + total key skew
  };
  const TableSpec& spec = kSpecs[std::get<0>(GetParam())];
  Load(spec, std::get<1>(GetParam()));
  int64_t h0 = CounterValue("kernel.hits");
  int64_t m0 = CounterValue("kernel.misses");
  for (const char* sql : kSupportedQueries) Check(sql);
  // Second pass: every run compiles its own plan again.
  for (const char* sql : kSupportedQueries) Check(sql);
  EXPECT_GT(CounterValue("kernel.misses"), m0) << "kernel never compiled";
  EXPECT_GT(CounterValue("kernel.hits"), h0) << "kernel never ran";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelIdentity,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(1ull, 42ull, 20260807ull)));

TEST_F(KernelExec, UnsupportedShapesFallBackWithIdenticalResults) {
  Load({500, 0.2, 6, true}, 7);
  int64_t f0 = CounterValue("kernel.fallbacks");
  const char* const unsupported[] = {
      "SELECT DISTINCT sym FROM facts",
      "SELECT UPPER(sym) FROM facts WHERE qty > 0",
      "SELECT sym FROM facts WHERE px + 1 > 2",
      "SELECT sym FROM facts WHERE sym = 'S1' OR qty = 1",
      "SELECT sym, COUNT(*) FROM facts GROUP BY sym HAVING COUNT(*) > 2",
      "SELECT a.sym FROM facts a, facts b WHERE a.qty = b.qty AND a.qty = 1",
      "SELECT COUNT(DISTINCT sym) FROM facts",
      "SELECT sym FROM facts ORDER BY px + 1",
      "SELECT sym FROM facts LIMIT 1 + 2",
      "SELECT sym FROM facts WHERE qty IN (1, px)",
      "SELECT COALESCE(SUM(qty), 1) FROM facts WHERE qty > 99999999",
      "SELECT COALESCE(SUM(px), -0.0) FROM facts WHERE qty > 99999999",
      // Null-aware comparisons the translator now emits only outside a
      // filter's positive positions.
      "SELECT sym FROM facts WHERE sym IS NOT DISTINCT FROM 'S1'",
      "SELECT sym FROM facts WHERE px IS DISTINCT FROM NULL",
      "SELECT qty FROM facts WHERE qty IS DISTINCT FROM 7",
      "SELECT sym FROM facts WHERE COALESCE((qty < 100), (qty IS NULL))",
      "SELECT sym FROM facts "
      "WHERE COALESCE((px > 10.5), ((10.5 IS NULL) AND (px IS NOT NULL)))",
      "SELECT sym FROM facts WHERE COALESCE((qty <= 500), (qty IS NULL))",
      // OR passes null cells only of the compared column.
      "SELECT sym FROM facts WHERE ((qty < 100) OR (px IS NULL))",
      "SELECT sym FROM facts WHERE ((qty < 100) OR (qty IS NOT NULL))",
  };
  for (const char* sql : unsupported) Check(sql);
  EXPECT_GE(CounterValue("kernel.fallbacks") - f0,
            static_cast<int64_t>(std::size(unsupported)));
}

TEST_F(KernelExec, DataDependentTypeErrorsStayOnInterpretedPath) {
  Load({50, 0.1, 4, false}, 11);
  // String column vs numeric literal: the interpreter raises a comparison
  // type error on the first non-null row; the kernel must reject the shape
  // at compile so both paths report the identical error.
  Check("SELECT sym FROM facts WHERE sym > 5");
  Check("SELECT qty FROM facts WHERE qty = 'S1'");
  Check("SELECT sym FROM facts WHERE px BETWEEN 'a' AND 'b'");
  // NULL literals never error (three-valued logic short-circuits).
  Check("SELECT sym FROM facts WHERE sym > NULL");
  Check("SELECT qty FROM facts WHERE qty BETWEEN NULL AND 100");
}

TEST_F(KernelExec, EveryRunCompilesItsOwnPlan) {
  Load({200, 0.1, 4, false}, 3);
  // Statements that differ only in a literal, and a repeat of the same
  // text, each compile one plan with their literals bound in and run it:
  // nothing is kept between statements.
  const std::string q1 = "SELECT sym, SUM(px) FROM facts WHERE qty > 100 "
                         "GROUP BY sym";
  const std::string q2 = "SELECT sym, SUM(px) FROM facts WHERE qty > 2500 "
                         "GROUP BY sym";
  for (const std::string& q : {q1, q2, q1}) {
    int64_t h0 = CounterValue("kernel.hits");
    int64_t m0 = CounterValue("kernel.misses");
    Check(q);
    EXPECT_EQ(CounterValue("kernel.hits"), h0 + 1) << q;
    EXPECT_EQ(CounterValue("kernel.misses"), m0 + 1) << q;
  }
}

TEST_F(KernelExec, StaleKernelAfterSchemaChangeRecompiles) {
  Load({100, 0.0, 4, false}, 5);
  const std::string q = "SELECT sym, COUNT(*), SUM(qty) FROM facts GROUP BY "
                        "sym";
  Check(q);
  // Same statement text, new schema underneath: qty is now a double and
  // the column order moved. The plan compiles against the table the
  // statement reads, so it reads the new buffers.
  for (Database* db : {&kdb_, &idb_}) {
    Session* s = (db == &kdb_ ? ksession_ : isession_).get();
    ASSERT_TRUE(db->Execute(s, "DROP TABLE facts").ok());
    ASSERT_TRUE(db->Execute(s, "CREATE TABLE facts (qty double precision, "
                               "sym varchar)")
                    .ok());
    ASSERT_TRUE(db->Execute(s, "INSERT INTO facts VALUES (1.5, 'a'), "
                               "(2.5, 'a'), (NULL, 'b')")
                    .ok());
  }
  Check(q);
  // DML bumps the catalog version too: appended rows must be visible.
  for (Database* db : {&kdb_, &idb_}) {
    Session* s = (db == &kdb_ ? ksession_ : isession_).get();
    ASSERT_TRUE(db->Execute(s, "INSERT INTO facts VALUES (9.25, 'c')").ok());
  }
  Check(q);
}

TEST_F(KernelExec, SessionTempTablesShadowTheKernelTable) {
  Load({100, 0.0, 4, false}, 9);
  Check("SELECT COUNT(*) FROM facts");
  // A session temp table named `facts` must shadow the catalog table on
  // both paths, though its schema differs: the kernel compiles against the
  // shadow itself.
  for (Database* db : {&kdb_, &idb_}) {
    Session* s = (db == &kdb_ ? ksession_ : isession_).get();
    ASSERT_TRUE(db->Execute(s, "CREATE TEMP TABLE facts (sym varchar)").ok());
    ASSERT_TRUE(db->Execute(s, "INSERT INTO facts VALUES ('only')").ok());
  }
  Check("SELECT COUNT(*) FROM facts");
  Check("SELECT sym FROM facts");
}

/// Installs `table` as session temp table `name` on both sides.
void ShadowBoth(Session* ks, Session* is, const std::string& name,
                const StoredTable& table) {
  ks->temp_tables()[name] = std::make_shared<StoredTable>(table);
  is->temp_tables()[name] = std::make_shared<StoredTable>(table);
}

TEST_F(KernelExec, SameSchemaTempTableShadowRunsOnTheKernel) {
  Load({2000, 0.2, 8, true}, 47);
  // A same-schema temp table over different rows: the kernel resolves the
  // shadow like the executor does and compiles against its buffers. The
  // second shadow declares the same schema, but its px column is all NULL
  // (empty storage): it compiles against that storage too.
  StoredTable shadow = MakeTable({3000, 0.1, 5, true}, 48);
  StoredTable all_null_px = MakeTable({400, 0.1, 4, false}, 54);
  all_null_px.data[1] = Column::Constant(Datum::Null(), all_null_px.row_count);
  for (const StoredTable* t : {&shadow, &all_null_px}) {
    ShadowBoth(ksession_.get(), isession_.get(), "facts", *t);
    int64_t h0 = CounterValue("kernel.hits");
    int64_t m0 = CounterValue("kernel.misses");
    int64_t f0 = CounterValue("kernel.fallbacks");
    for (const char* sql : kSupportedQueries) Check(sql);
    for (const char* sql : kSupportedQueries) Check(sql);
    EXPECT_GT(CounterValue("kernel.misses"), m0) << "kernel never compiled";
    EXPECT_EQ(CounterValue("kernel.hits") - h0,
              static_cast<int64_t>(2 * std::size(kSupportedQueries)))
        << "every shadowed read must run on the kernel";
    EXPECT_EQ(CounterValue("kernel.fallbacks"), f0);
  }
}

TEST_F(KernelExec, ShadowWithDifferentStorageClassFallsBack) {
  Load({500, 0.1, 4, false}, 53);
  const std::string q = "SELECT sym, SUM(px) FROM facts WHERE qty > 0 "
                        "GROUP BY sym";
  Check(q);  // the catalog's float px buffer runs on the kernel
  // Same declared schema, but px holds mixed cells (doubles and integers):
  // a storage class no kernel reads, so the statement compiles to a
  // rejection and the interpreter answers.
  StoredTable shadow = MakeTable({400, 0.1, 4, false}, 54);
  std::vector<Datum> mixed;
  for (size_t r = 0; r < shadow.row_count; ++r) {
    mixed.push_back(r % 3 == 0 ? Datum::BigInt(static_cast<int64_t>(r))
                               : shadow.data[1]->At(r));
  }
  shadow.data[1] = Column::FromDatums(std::move(mixed));
  ASSERT_EQ(shadow.data[1]->storage(), Column::Storage::kMixed);
  ShadowBoth(ksession_.get(), isession_.get(), "facts", shadow);
  int64_t h0 = CounterValue("kernel.hits");
  int64_t f0 = CounterValue("kernel.fallbacks");
  int64_t c0 = CounterValue("kernel.reject.compile");
  Check(q);
  EXPECT_EQ(CounterValue("kernel.fallbacks"), f0 + 1);
  EXPECT_EQ(CounterValue("kernel.reject.compile"), c0 + 1);
  EXPECT_EQ(CounterValue("kernel.hits"), h0);
}

TEST_F(KernelExec, TempViewStepsAside) {
  Load({300, 0.1, 4, false}, 59);
  for (Database* db : {&kdb_, &idb_}) {
    Session* s = (db == &kdb_ ? ksession_ : isession_).get();
    ASSERT_TRUE(db->Execute(s, "CREATE TEMP VIEW pos AS SELECT sym, qty "
                               "FROM facts WHERE qty > 0")
                    .ok());
  }
  int64_t m0 = CounterValue("kernel.misses");
  int64_t c0 = CounterValue("kernel.reject.compile");
  int64_t f0 = CounterValue("kernel.fallbacks");
  Check("SELECT sym, qty FROM pos WHERE qty < 5000");
  Check("SELECT sym, COUNT(*) FROM pos GROUP BY sym");
  EXPECT_EQ(CounterValue("kernel.fallbacks"), f0 + 2);
  EXPECT_EQ(CounterValue("kernel.misses"), m0) << "no compile attempt";
  EXPECT_EQ(CounterValue("kernel.reject.compile"), c0);
}

TEST_F(KernelExec, TempOnlyTableRunsOnTheKernel) {
  Load({300, 0.1, 4, false}, 61);
  // A temp table with no catalog table of that name (eager-materialized
  // pipeline variables, the shard/hybrid partials table) is a table like
  // any other: each statement compiles against it.
  ShadowBoth(ksession_.get(), isession_.get(), "scratch",
             MakeTable({200, 0.1, 4, false}, 62));
  int64_t h0 = CounterValue("kernel.hits");
  int64_t m0 = CounterValue("kernel.misses");
  int64_t f0 = CounterValue("kernel.fallbacks");
  Check("SELECT sym, SUM(px) FROM scratch GROUP BY sym");
  Check("SELECT sym, SUM(px) FROM scratch GROUP BY sym");
  EXPECT_EQ(CounterValue("kernel.hits"), h0 + 2);
  EXPECT_EQ(CounterValue("kernel.misses"), m0 + 2);
  EXPECT_EQ(CounterValue("kernel.fallbacks"), f0);
}

TEST_F(KernelExec, DisabledRegistryNeverRuns) {
  Load({100, 0.0, 4, false}, 17);
  kdb_.set_kernel_enabled(false);
  int64_t h0 = CounterValue("kernel.hits");
  int64_t m0 = CounterValue("kernel.misses");
  Check("SELECT COUNT(*) FROM facts");
  EXPECT_EQ(CounterValue("kernel.hits"), h0);
  EXPECT_EQ(CounterValue("kernel.misses"), m0);
  kdb_.set_kernel_enabled(true);
}

TEST_F(KernelExec, ArmedFaultFallsBackToInterpreter) {
  Load({500, 0.1, 4, false}, 19);
  const std::string q = "SELECT sym, SUM(px) FROM facts WHERE qty > 0 "
                        "GROUP BY sym";
  Check(q);  // on the kernel while faults are disarmed

  ASSERT_TRUE(FaultInjector::Global().Arm("backend.kernel=error,once").ok());
  int64_t f0 = CounterValue("kernel.fallbacks");
  int64_t fired0 = CounterValue("fault.fired.backend.kernel");
  Check(q);  // fault fires -> interpreted path, identical result
  FaultInjector::Global().Clear();
  EXPECT_EQ(CounterValue("kernel.fallbacks"), f0 + 1);
  EXPECT_EQ(CounterValue("fault.fired.backend.kernel"), fired0 + 1);

  // Delay action: the kernel path slows down but still runs.
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.kernel=delay:1,once").ok());
  int64_t h0 = CounterValue("kernel.hits");
  Check(q);
  FaultInjector::Global().Clear();
  EXPECT_EQ(CounterValue("kernel.hits"), h0 + 1);
}

TEST_F(KernelExec, ExpiredDeadlineReturnsTimeoutFromKernel) {
  Load({40000, 0.1, 8, false}, 23);
  const std::string q = "SELECT sym, SUM(px) FROM facts WHERE qty > 0 "
                        "GROUP BY sym";
  Check(q);  // hot kernel
  {
    ScopedDeadline sd(Deadline::After(0));
    Result<QueryResult> r = kdb_.Execute(ksession_.get(), q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << r.status().ToString();
  }
  Check(q);  // connection state stays healthy afterwards
}

TEST_F(KernelExec, ThreadCountSweepIsByteIdentical) {
  Load({40000, 0.15, 6, true}, 29);
  for (int threads : {0, 1, 4}) {
    WorkerPool::Shared().Resize(threads);
    for (const char* sql : kSupportedQueries) Check(sql);
  }
  WorkerPool::Shared().Resize(0);
}

/// Loads a table shaped like the Q loader's output: an `ordcol` scan-order
/// column (0..n-1, sorted, NULL-free) plus payload columns, into both
/// databases.
class KernelWrapperExec : public KernelExec {
 protected:
  void LoadOrdered(size_t rows, double null_rate, uint64_t seed) {
    hyperq::testing::Rng rng(seed);
    std::vector<int64_t> ord(rows);
    std::vector<std::string> sym(rows);
    std::vector<uint8_t> sym_nulls(rows, 0);
    std::vector<double> px(rows);
    std::vector<uint8_t> px_nulls(rows, 0);
    for (size_t i = 0; i < rows; ++i) {
      ord[i] = static_cast<int64_t>(i);
      if (rng.NextDouble() < null_rate) {
        sym_nulls[i] = 1;
      } else {
        sym[i] = StrCat("S", rng.Below(6));
      }
      if (rng.NextDouble() < null_rate) {
        px_nulls[i] = 1;
      } else {
        px[i] = rng.NextDouble() * 100.0 - 20.0;
      }
    }
    StoredTable t;
    t.name = "qsrc";
    t.columns = {{"ordcol", SqlType::kBigInt},
                 {"sym", SqlType::kVarchar},
                 {"px", SqlType::kDouble}};
    t.data = {Column::FromInts(SqlType::kBigInt, std::move(ord),
                               std::vector<uint8_t>(rows, 0)),
              Column::FromStrings(SqlType::kVarchar, std::move(sym),
                                  std::move(sym_nulls)),
              Column::FromFloats(SqlType::kDouble, std::move(px),
                                 std::move(px_nulls))};
    t.row_count = rows;
    ASSERT_TRUE(kdb_.CreateAndLoad(t).ok());
    ASSERT_TRUE(idb_.CreateAndLoad(std::move(t)).ok());
    idb_.set_kernel_enabled(false);
    ksession_ = kdb_.CreateSession();
    isession_ = idb_.CreateSession();
  }
};

/// The serializer's flat shapes — a filter merged into the scan, the final
/// q-order attached to the block, a rename folded over an aggregate — run as
/// kernel-shaped scans, byte-identical at every thread count.
TEST_F(KernelWrapperExec, TranslatorWrapperShapesRunOnTheKernel) {
  LoadOrdered(40000, 0.2, 41);
  const char* const flat[] = {
      // Final order straight over the scan: the ORDER BY elides.
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" ORDER BY \"ordcol\"",
      // Filter merged under the final order.
      "SELECT \"ordcol\", \"px\" FROM \"qsrc\" WHERE \"px\" > 0 "
      "ORDER BY \"ordcol\"",
      // Rename folded over an aggregate.
      "SELECT \"sym\", COUNT(*) AS \"n\" FROM \"qsrc\" GROUP BY \"sym\"",
      // Limit over the elided scan order (early-exit path).
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" WHERE \"px\" IS NOT NULL "
      "ORDER BY \"ordcol\" LIMIT 10",
  };
  int64_t h0 = CounterValue("kernel.hits");
  for (int threads : {0, 4}) {
    WorkerPool::Shared().Resize(threads);
    for (const char* sql : flat) {
      Check(sql);
      Check(sql);  // hot second run
    }
  }
  WorkerPool::Shared().Resize(0);
  // Every flat shape ran on a kernel.
  EXPECT_GE(CounterValue("kernel.hits") - h0,
            static_cast<int64_t>(std::size(flat)));
}

/// Hand-nested SQL — derived tables the serializer no longer emits — runs
/// on the interpreter, byte-identical, and counts as a genuine derived
/// table.
TEST_F(KernelWrapperExec, HandNestedSqlRunsInterpreted) {
  LoadOrdered(40000, 0.2, 59);
  const char* const nested[] = {
      "SELECT * FROM (SELECT \"ordcol\", \"sym\" FROM \"qsrc\") AS hq_final "
      "ORDER BY \"ordcol\"",
      "SELECT * FROM (SELECT t0.\"ordcol\" AS \"ordcol\", t0.\"px\" AS \"px\" "
      "FROM (SELECT \"ordcol\", \"px\" FROM \"qsrc\") AS t0 "
      "WHERE t0.\"px\" > 0) AS hq_final ORDER BY \"ordcol\"",
      "SELECT t1.\"sym\" AS \"sym\", t1.\"n\" AS \"n\" "
      "FROM (SELECT \"sym\", COUNT(*) AS \"n\" FROM \"qsrc\" "
      "GROUP BY \"sym\") AS t1",
      "SELECT * FROM (SELECT sym, px FROM qsrc WHERE px > 10) t "
      "WHERE px < 50",
  };
  int64_t h0 = CounterValue("kernel.hits");
  int64_t r0 = CounterValue("kernel.reject.subquery");
  for (const char* sql : nested) {
    Check(sql);
    Check(sql);
  }
  EXPECT_EQ(CounterValue("kernel.hits"), h0);
  EXPECT_EQ(CounterValue("kernel.reject.subquery") - r0,
            static_cast<int64_t>(2 * std::size(nested)));
}

/// A sort skipped because the rows were already in order must be done
/// once the data underneath changes.
TEST_F(KernelWrapperExec, ElidedOrderRecompilesAfterDataChange) {
  LoadOrdered(1000, 0.1, 43);
  const std::string q =
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" ORDER BY \"ordcol\"";
  Check(q);
  Check(q);
  // Append an out-of-order ordcol value: the rows are no longer in key
  // order, so the sort must really run.
  for (Database* db : {&kdb_, &idb_}) {
    Session* s = (db == &kdb_ ? ksession_ : isession_).get();
    ASSERT_TRUE(
        db->Execute(s, "INSERT INTO qsrc VALUES (-1, 'zz', 0.5)").ok());
  }
  Check(q);
  Check(q);
}

/// Sort elision is decided over the rows a statement actually reads. A
/// same-schema shadow whose ordcol is out of order must be sorted (and must
/// not take the LIMIT early exit, which assumes scan order).
TEST_F(KernelWrapperExec, ElidedSortOverSwappedBufferSorts) {
  LoadOrdered(40000, 0.1, 67);
  const char* const ordered[] = {
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" ORDER BY \"ordcol\"",
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" WHERE \"px\" IS NOT NULL "
      "ORDER BY \"ordcol\" LIMIT 10",
      "SELECT \"ordcol\", \"px\" FROM \"qsrc\" WHERE \"px\" > 0 "
      "ORDER BY \"ordcol\" LIMIT 5 OFFSET 3",
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" ORDER BY \"ordcol\" "
      "LIMIT 7 OFFSET 2",
  };
  for (const char* sql : ordered) Check(sql);  // compile the elided plans

  // Same schema and storage classes; ordcol reversed and then two blocks
  // swapped, so a scan-order prefix is never the sorted prefix.
  auto cat = kdb_.catalog().GetTable("qsrc");
  ASSERT_TRUE(cat.ok());
  StoredTable shadow = **cat;
  const size_t n = shadow.row_count;
  std::vector<int64_t> ord(n);
  for (size_t i = 0; i < n; ++i) {
    ord[i] = static_cast<int64_t>((n - 1 - i + n / 3) % n);
  }
  shadow.data[0] = Column::FromInts(SqlType::kBigInt, std::move(ord),
                                    std::vector<uint8_t>(n, 0));
  ShadowBoth(ksession_.get(), isession_.get(), "qsrc", shadow);

  int64_t h0 = CounterValue("kernel.hits");
  int64_t f0 = CounterValue("kernel.fallbacks");
  for (int threads : {0, 4}) {
    WorkerPool::Shared().Resize(threads);
    for (const char* sql : ordered) Check(sql);
  }
  WorkerPool::Shared().Resize(0);
  EXPECT_EQ(CounterValue("kernel.hits") - h0,
            static_cast<int64_t>(2 * std::size(ordered)));
  EXPECT_EQ(CounterValue("kernel.fallbacks"), f0);

  // Dropping the shadow puts the sorted catalog buffer back under the
  // statements, and the elision with it.
  ksession_->temp_tables().erase("qsrc");
  isession_->temp_tables().erase("qsrc");
  for (const char* sql : ordered) Check(sql);
}

TEST_F(KernelExec, CompileRejectIsCountedOnEveryRun) {
  Load({100, 0.0, 4, false}, 31);
  // In the kernel grammar, but the table does not fit it (string column
  // vs integer literal): every run compiles, is rejected and falls back,
  // with the interpreter's answer (here its type error).
  const std::string q = "SELECT sym FROM facts WHERE sym > 5";
  for (int run = 1; run <= 2; ++run) {
    int64_t m0 = CounterValue("kernel.misses");
    int64_t c0 = CounterValue("kernel.reject.compile");
    int64_t f0 = CounterValue("kernel.fallbacks");
    Check(q);
    EXPECT_EQ(CounterValue("kernel.misses"), m0 + 1) << "run " << run;
    EXPECT_EQ(CounterValue("kernel.reject.compile"), c0 + 1) << "run " << run;
    EXPECT_EQ(CounterValue("kernel.fallbacks"), f0 + 1) << "run " << run;
  }
}

TEST_F(KernelExec, RejectReasonsAreCounted) {
  Load({50, 0.0, 4, false}, 37);
  int64_t d0 = CounterValue("kernel.reject.distinct");
  int64_t e0 = CounterValue("kernel.reject.expr");
  int64_t j0 = CounterValue("kernel.reject.join");
  int64_t o0 = CounterValue("kernel.reject.order_by");
  Check("SELECT DISTINCT sym FROM facts");
  Check("SELECT UPPER(sym) FROM facts");
  Check("SELECT a.sym FROM facts a, facts b WHERE a.qty = b.qty AND "
        "a.qty = 1");
  Check("SELECT sym FROM facts ORDER BY px + 1");
  EXPECT_EQ(CounterValue("kernel.reject.distinct"), d0 + 1);
  EXPECT_EQ(CounterValue("kernel.reject.expr"), e0 + 1);
  EXPECT_EQ(CounterValue("kernel.reject.join"), j0 + 1);
  EXPECT_EQ(CounterValue("kernel.reject.order_by"), o0 + 1);
  // A rejection by the table (the shape is in the grammar, the types do
  // not line up) is labeled separately, once per run.
  int64_t c0 = CounterValue("kernel.reject.compile");
  Check("SELECT qty FROM facts WHERE qty = 'S1'");
  EXPECT_EQ(CounterValue("kernel.reject.compile"), c0 + 1);
  Check("SELECT qty FROM facts WHERE qty = 'S1'");
  EXPECT_EQ(CounterValue("kernel.reject.compile"), c0 + 2);
  // A statement outside the grammar is labeled by its grammar construct
  // even when an earlier item misfits the table, and compiles nothing.
  int64_t m0 = CounterValue("kernel.misses");
  int64_t p0 = CounterValue("kernel.reject.predicate");
  Check("SELECT qty FROM facts WHERE qty = 'S1' ORDER BY px + 1");
  Check("SELECT nosuch, UPPER(sym) FROM facts");
  Check("SELECT qty FROM facts WHERE qty = 'S1' AND UPPER(sym) = 'S1'");
  EXPECT_EQ(CounterValue("kernel.reject.order_by"), o0 + 2);
  EXPECT_EQ(CounterValue("kernel.reject.expr"), e0 + 2);
  EXPECT_EQ(CounterValue("kernel.reject.predicate"), p0 + 1);
  EXPECT_EQ(CounterValue("kernel.reject.compile"), c0 + 2);
  EXPECT_EQ(CounterValue("kernel.misses"), m0);
}

}  // namespace
}  // namespace sqldb
}  // namespace hyperq
