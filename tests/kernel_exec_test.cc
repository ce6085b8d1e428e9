// Executor battery for the hot single-table shapes (docs/PERFORMANCE.md):
// every statement runs as written, where its leaf predicates filter the
// stored columns in place and grouping reads the input through the WHERE
// selection, and is compared byte for byte with a reference form of
// itself that evaluates the WHERE row by row and gathers before grouping.
// The sweep covers null patterns, empty, all-filtered, skewed and
// parallel-sized tables, temp-table shadows, the backend SELECT fault site
// and deadline behavior. (The suite names come from the fused-kernel tier
// these shapes once ran on; it compared against the same executor.)

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
#include "sqldb/sql_parser.h"
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
  ASSERT_EQ(a.ok(), b.ok()) << sql << "\n  as written: "
                            << a.status().ToString()
                            << "\n  reference:  " << b.status().ToString();
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

/// The reference form of a single-SELECT statement: the WHERE is wrapped in
/// `CASE WHEN <where> THEN TRUE ELSE FALSE END`, which evaluates it row by
/// row, and over a named table it moves into a derived table, so the outer
/// block groups the gathered survivors. Any other FROM keeps the wrapped
/// WHERE in place.
Result<QueryResult> RunReference(Database* db, Session* session,
                                 const std::string& sql) {
  HQ_ASSIGN_OR_RETURN(std::vector<SqlStatement> stmts, SqlParser::Parse(sql));
  SqlStatement& stmt = stmts.at(0);
  SelectStmt& select = *stmt.select;
  if (select.where != nullptr) {
    auto per_row = std::make_shared<Expr>();
    per_row->kind = ExprKind::kCase;
    per_row->args = {select.where, MakeConst(Datum::Bool(true)),
                     MakeConst(Datum::Bool(false))};
    per_row->has_else = true;
    select.where = per_row;
    if (select.from != nullptr &&
        select.from->kind == TableRef::Kind::kNamed) {
      auto inner = std::make_shared<SelectStmt>();
      inner->items.push_back(SelectItem{MakeStar(""), ""});
      inner->from = select.from;
      inner->where = per_row;
      auto derived = std::make_shared<TableRef>();
      derived->kind = TableRef::Kind::kSubquery;
      derived->subquery = inner;
      derived->alias = select.from->alias.empty() ? select.from->name
                                                  : select.from->alias;
      select.from = derived;
      select.where = nullptr;
    }
  }
  return db->ExecuteStatement(session, stmt);
}

/// Builds one random table.
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
    ASSERT_TRUE(db_.CreateAndLoad(MakeTable(spec, seed)).ok());
    session_ = db_.CreateSession();
  }

  /// Runs `sql` as written and in its reference form, and asserts
  /// byte-identical results (or the identical error).
  void Check(const std::string& sql) {
    ExpectResultEq(db_.Execute(session_.get(), sql),
                   RunReference(&db_, session_.get(), sql), sql);
  }

  /// Runs a setup statement that must succeed.
  void Exec(const std::string& sql) {
    ASSERT_TRUE(db_.Execute(session_.get(), sql).ok()) << sql;
  }

  /// Installs `table` as the session temp table `name`.
  void Shadow(const std::string& name, const StoredTable& table) {
    session_->temp_tables()[name] = std::make_shared<StoredTable>(table);
  }

  Database db_;
  std::unique_ptr<Session> session_;
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
  for (const char* sql : kSupportedQueries) Check(sql);
  // Second pass: nothing a run leaves behind changes the next one.
  for (const char* sql : kSupportedQueries) Check(sql);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelIdentity,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(1ull, 42ull, 20260807ull)));

TEST_F(KernelExec, UnsupportedShapesFallBackWithIdenticalResults) {
  Load({500, 0.2, 6, true}, 7);
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
}

TEST_F(KernelExec, DataDependentTypeErrorsStayOnInterpretedPath) {
  Load({50, 0.1, 4, false}, 11);
  // String column vs numeric literal: the per-row path raises a comparison
  // type error on the first non-null row. A leaf predicate never binds to
  // such a pair, so both forms report the identical error.
  const char* const failing[] = {
      "SELECT sym FROM facts WHERE sym > 5",
      "SELECT qty FROM facts WHERE qty = 'S1'",
      "SELECT sym FROM facts WHERE px BETWEEN 'a' AND 'b'",
      "SELECT sym, COUNT(*) FROM facts WHERE 'S1' < qty GROUP BY sym",
      // A literal whose cast fails is not folded.
      "SELECT sym FROM facts WHERE qty > 'x'::date",
      "SELECT sym FROM facts WHERE sym IN ('S1', 'x'::date)",
  };
  for (const char* sql : failing) {
    Check(sql);
    EXPECT_FALSE(db_.Execute(session_.get(), sql).ok()) << sql;
  }
  // NULL literals never error (three-valued logic short-circuits).
  Check("SELECT sym FROM facts WHERE sym > NULL");
  Check("SELECT qty FROM facts WHERE qty BETWEEN NULL AND 100");
  // Rows no predicate reaches raise nothing: zero rows, and an IN list
  // whose failing item comes after a matching one.
  Check("SELECT sym FROM facts WHERE sym IN ('S0', 'S1', 'S2', 'S3', "
        "'x'::date)");
  Exec("DROP TABLE facts");
  Exec("CREATE TABLE facts (sym varchar, px double precision, qty bigint)");
  for (const char* sql : failing) {
    Check(sql);
    EXPECT_TRUE(db_.Execute(session_.get(), sql).ok()) << sql;
  }
}

TEST_F(KernelExec, EveryRunCompilesItsOwnPlan) {
  Load({200, 0.1, 4, false}, 3);
  // Statements that differ only in a literal, and a repeat of the same
  // text: each folds its own literals, and nothing is kept between
  // statements.
  const std::string q1 = "SELECT sym, SUM(px) FROM facts WHERE qty > 100 "
                         "GROUP BY sym";
  const std::string q2 = "SELECT sym, SUM(px) FROM facts WHERE qty > 2500 "
                         "GROUP BY sym";
  for (const std::string& q : {q1, q2, q1}) Check(q);
}

TEST_F(KernelExec, StaleKernelAfterSchemaChangeRecompiles) {
  Load({100, 0.0, 4, false}, 5);
  const std::string q = "SELECT sym, COUNT(*), SUM(qty) FROM facts GROUP BY "
                        "sym";
  Check(q);
  // Same statement text, new schema underneath: qty is now a double and
  // the column order moved. Each run binds to the table it reads.
  Exec("DROP TABLE facts");
  Exec("CREATE TABLE facts (qty double precision, sym varchar)");
  Exec("INSERT INTO facts VALUES (1.5, 'a'), (2.5, 'a'), (NULL, 'b')");
  Check(q);
  // Appended rows must be visible.
  Exec("INSERT INTO facts VALUES (9.25, 'c')");
  Check(q);
}

TEST_F(KernelExec, SessionTempTablesShadowTheKernelTable) {
  Load({100, 0.0, 4, false}, 9);
  Check("SELECT COUNT(*) FROM facts");
  // A session temp table named `facts` must shadow the catalog table,
  // though its schema differs.
  Exec("CREATE TEMP TABLE facts (sym varchar)");
  Exec("INSERT INTO facts VALUES ('only')");
  Check("SELECT COUNT(*) FROM facts");
  Check("SELECT sym FROM facts");
  Check("SELECT sym FROM facts WHERE sym = 'only'");
}

TEST_F(KernelExec, SameSchemaTempTableShadowRunsOnTheKernel) {
  Load({2000, 0.2, 8, true}, 47);
  // A same-schema temp table over different rows, read in place like a
  // catalog table. The second shadow declares the same schema, but its px
  // column is all NULL (empty storage).
  StoredTable shadow = MakeTable({3000, 0.1, 5, true}, 48);
  StoredTable all_null_px = MakeTable({400, 0.1, 4, false}, 54);
  all_null_px.data[1] = Column::Constant(Datum::Null(), all_null_px.row_count);
  for (const StoredTable* t : {&shadow, &all_null_px}) {
    Shadow("facts", *t);
    for (const char* sql : kSupportedQueries) Check(sql);
    for (const char* sql : kSupportedQueries) Check(sql);
  }
}

TEST_F(KernelExec, ShadowWithDifferentStorageClassFallsBack) {
  Load({500, 0.1, 4, false}, 53);
  const std::string q = "SELECT sym, SUM(px) FROM facts WHERE qty > 0 "
                        "GROUP BY sym";
  Check(q);  // the catalog's float px buffer
  // Same declared schema, but px holds mixed cells (doubles and integers):
  // a storage class no leaf predicate reads, so those take the general
  // path.
  StoredTable shadow = MakeTable({400, 0.1, 4, false}, 54);
  std::vector<Datum> mixed;
  for (size_t r = 0; r < shadow.row_count; ++r) {
    mixed.push_back(r % 3 == 0 ? Datum::BigInt(static_cast<int64_t>(r))
                               : shadow.data[1]->At(r));
  }
  shadow.data[1] = Column::FromDatums(std::move(mixed));
  ASSERT_EQ(shadow.data[1]->storage(), Column::Storage::kMixed);
  Shadow("facts", shadow);
  Check(q);
  Check("SELECT qty FROM facts WHERE px > 10 AND px IS NOT NULL");
  Check("SELECT qty FROM facts WHERE px IN (1, 2.5)");
}

TEST_F(KernelExec, TempViewStepsAside) {
  Load({300, 0.1, 4, false}, 59);
  Exec("CREATE TEMP VIEW pos AS SELECT sym, qty FROM facts WHERE qty > 0");
  Check("SELECT sym, qty FROM pos WHERE qty < 5000");
  Check("SELECT sym, COUNT(*) FROM pos GROUP BY sym");
  Check("SELECT sym, COUNT(*) FROM pos WHERE sym <> 'S1' GROUP BY sym");
}

TEST_F(KernelExec, TempOnlyTableRunsOnTheKernel) {
  Load({300, 0.1, 4, false}, 61);
  // A temp table with no catalog table of that name (eager-materialized
  // pipeline variables, the shard/hybrid partials table) is a table like
  // any other.
  Shadow("scratch", MakeTable({200, 0.1, 4, false}, 62));
  Check("SELECT sym, SUM(px) FROM scratch GROUP BY sym");
  Check("SELECT sym, SUM(px) FROM scratch WHERE qty > 0 GROUP BY sym");
}

TEST_F(KernelExec, DisabledRegistryNeverRuns) {
  Load({100, 0.0, 4, false}, 17);
  Check("SELECT COUNT(*) FROM facts");
}

TEST_F(KernelExec, ArmedFaultFallsBackToInterpreter) {
  Load({500, 0.1, 4, false}, 19);
  const std::string q = "SELECT sym, SUM(px) FROM facts WHERE qty > 0 "
                        "GROUP BY sym";
  Check(q);  // faults disarmed

  // An armed error fails the SELECT it fires on as the backend being
  // unavailable, and only that one.
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.select=error,once").ok());
  int64_t fired0 = CounterValue("fault.fired.backend.select");
  Result<QueryResult> failed = db_.Execute(session_.get(), q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  Check(q);
  FaultInjector::Global().Clear();
  EXPECT_EQ(CounterValue("fault.fired.backend.select"), fired0 + 1);

  // Delay action: the SELECT slows down but answers the same.
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.select=delay:1,once").ok());
  Check(q);
  FaultInjector::Global().Clear();
}

TEST_F(KernelExec, ExpiredDeadlineReturnsTimeoutFromKernel) {
  Load({40000, 0.1, 8, false}, 23);
  const std::string q = "SELECT sym, SUM(px) FROM facts WHERE qty > 0 "
                        "GROUP BY sym";
  Check(q);
  {
    ScopedDeadline sd(Deadline::After(0));
    Result<QueryResult> r = db_.Execute(session_.get(), q);
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
/// column (0..n-1, sorted, NULL-free) plus payload columns.
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
    ASSERT_TRUE(db_.CreateAndLoad(std::move(t)).ok());
    session_ = db_.CreateSession();
  }
};

/// The serializer's flat shapes — a filter merged into the scan, the final
/// q-order attached to the block, a rename folded over an aggregate — are
/// byte-identical to their reference form at every thread count.
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
      // Limit over the elided scan order.
      "SELECT \"ordcol\", \"sym\" FROM \"qsrc\" WHERE \"px\" IS NOT NULL "
      "ORDER BY \"ordcol\" LIMIT 10",
  };
  for (int threads : {0, 4}) {
    WorkerPool::Shared().Resize(threads);
    for (const char* sql : flat) {
      Check(sql);
      Check(sql);  // second run
    }
  }
  WorkerPool::Shared().Resize(0);
}

/// Hand-nested SQL — derived tables the serializer no longer emits — is
/// byte-identical to its reference form.
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
  for (const char* sql : nested) {
    Check(sql);
    Check(sql);
  }
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
  Exec("INSERT INTO qsrc VALUES (-1, 'zz', 0.5)");
  Check(q);
  Check(q);
}

/// Sort elision is decided over the rows a statement actually reads. A
/// same-schema shadow whose ordcol is out of order must be sorted before
/// its LIMIT is taken.
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
  for (const char* sql : ordered) Check(sql);  // the sorted catalog table

  // Same schema and storage classes; ordcol reversed and then two blocks
  // swapped, so a scan-order prefix is never the sorted prefix.
  auto cat = db_.catalog().GetTable("qsrc");
  ASSERT_TRUE(cat.ok());
  StoredTable shadow = **cat;
  const size_t n = shadow.row_count;
  std::vector<int64_t> ord(n);
  for (size_t i = 0; i < n; ++i) {
    ord[i] = static_cast<int64_t>((n - 1 - i + n / 3) % n);
  }
  shadow.data[0] = Column::FromInts(SqlType::kBigInt, std::move(ord),
                                    std::vector<uint8_t>(n, 0));
  Shadow("qsrc", shadow);

  for (int threads : {0, 4}) {
    WorkerPool::Shared().Resize(threads);
    for (const char* sql : ordered) Check(sql);
  }
  WorkerPool::Shared().Resize(0);

  // Dropping the shadow puts the sorted catalog buffer back under the
  // statements, and the elision with it.
  session_->temp_tables().erase("qsrc");
  for (const char* sql : ordered) Check(sql);
}

TEST_F(KernelExec, CompileRejectIsCountedOnEveryRun) {
  Load({100, 0.0, 4, false}, 31);
  // A string column against an integer literal: every run takes the
  // general path and reports its type error.
  const std::string q = "SELECT sym FROM facts WHERE sym > 5";
  for (int run = 1; run <= 2; ++run) Check(q);
}

TEST_F(KernelExec, RejectReasonsAreCounted) {
  Load({50, 0.0, 4, false}, 37);
  // Shapes around the hot ones (DISTINCT, a scalar function, a join, an
  // expression sort key, a type mismatch, an unknown column): each answers
  // as its reference form does, result or error.
  Check("SELECT DISTINCT sym FROM facts");
  Check("SELECT UPPER(sym) FROM facts");
  Check("SELECT a.sym FROM facts a, facts b WHERE a.qty = b.qty AND "
        "a.qty = 1");
  Check("SELECT sym FROM facts ORDER BY px + 1");
  Check("SELECT qty FROM facts WHERE qty = 'S1'");
  Check("SELECT qty FROM facts WHERE qty = 'S1' ORDER BY px + 1");
  Check("SELECT nosuch, UPPER(sym) FROM facts");
  Check("SELECT qty FROM facts WHERE qty = 'S1' AND UPPER(sym) = 'S1'");
  Check("SELECT qty FROM facts WHERE nosuch = 1");
}

}  // namespace
}  // namespace sqldb
}  // namespace hyperq
