#include "bench/workload.h"

#include "algebrizer/metadata.h"
#include "common/strings.h"
#include "testing/market_data.h"

namespace hyperq {
namespace bench {

namespace {

using sqldb::Datum;
using sqldb::SqlType;
using sqldb::StoredTable;
using sqldb::TableColumn;

/// Builds one wide table directly in backend format (bypasses the QValue
/// loader for speed at 500 columns x thousands of rows).
StoredTable BuildWide(const std::string& name, const char* prefix,
                      size_t rows, size_t cols, size_t symbols,
                      bool with_time, bool keyed, testing::Rng* rng) {
  StoredTable t;
  t.name = name;
  t.columns.push_back(TableColumn{"sym", SqlType::kVarchar});
  if (with_time) t.columns.push_back(TableColumn{"t", SqlType::kTime});
  for (size_t c = 0; c < cols; ++c) {
    t.columns.push_back(
        TableColumn{StrCat(prefix, c), SqlType::kDouble});
  }
  t.columns.push_back(TableColumn{kOrdColName, SqlType::kBigInt});

  // Generate row-major (same RNG draw order as ever) into columnar
  // buffers, then adopt them as the stored columns.
  int64_t time_ms = 9 * 3600000;
  std::vector<std::string> syms(rows);
  std::vector<int64_t> times(with_time ? rows : 0);
  std::vector<std::vector<double>> vals(cols, std::vector<double>(rows));
  std::vector<int64_t> ord(rows);
  for (size_t r = 0; r < rows; ++r) {
    size_t sym = keyed ? r % symbols : rng->Below(symbols);
    syms[r] = StrCat("S", sym);
    if (with_time) {
      time_ms += static_cast<int64_t>(rng->Below(250));
      times[r] = time_ms;
    }
    for (size_t c = 0; c < cols; ++c) {
      vals[c][r] = rng->NextDouble();
    }
    ord[r] = static_cast<int64_t>(r);
  }
  t.data.push_back(
      sqldb::Column::FromStrings(SqlType::kVarchar, std::move(syms)));
  if (with_time) {
    t.data.push_back(sqldb::Column::FromInts(SqlType::kTime,
                                             std::move(times)));
  }
  for (size_t c = 0; c < cols; ++c) {
    t.data.push_back(
        sqldb::Column::FromFloats(SqlType::kDouble, std::move(vals[c])));
  }
  t.data.push_back(sqldb::Column::FromInts(SqlType::kBigInt,
                                           std::move(ord)));
  t.row_count = rows;
  if (keyed) t.key_columns = {"sym"};
  return t;
}

}  // namespace

Status LoadAnalyticalWorkload(sqldb::Database* db,
                              const WorkloadOptions& options) {
  testing::Rng rng(options.seed);
  HQ_RETURN_IF_ERROR(db->CreateAndLoad(
      BuildWide("wide_facts", "f", options.fact_rows, options.wide_cols,
                options.symbols, /*with_time=*/true, /*keyed=*/false,
                &rng)));
  HQ_RETURN_IF_ERROR(db->CreateAndLoad(
      BuildWide("wide_dims", "d", options.dim_rows, options.wide_cols,
                options.symbols, /*with_time=*/false, /*keyed=*/true,
                &rng)));
  HQ_RETURN_IF_ERROR(db->CreateAndLoad(
      BuildWide("wide_dims2", "g", options.dim_rows, options.wide_cols,
                options.symbols, /*with_time=*/false, /*keyed=*/true,
                &rng)));
  HQ_RETURN_IF_ERROR(db->CreateAndLoad(
      BuildWide("wide_events", "e", options.event_rows, options.wide_cols,
                options.symbols, /*with_time=*/true, /*keyed=*/false,
                &rng)));
  return Status::OK();
}

std::vector<std::string> AnalyticalQueries() {
  return {
      // q1-q5: single wide table, filters + aggregates.
      /*q1*/ "select s0: sum f0, s1: sum f1, mx: max f2 by sym from "
             "wide_facts",
      /*q2*/ "select sym, f0, f1, f2 from wide_facts where f0>0.5, f1<0.3",
      /*q3*/ "select a3: avg f3, d4: dev f4 by sym from wide_facts where "
             "f4>0.2",
      /*q4*/ "exec max f5 from wide_facts",
      /*q5*/ "select vwap: f6 wavg f7, n: count f6 by sym from wide_facts",
      // q6-q9: two-table joins.
      /*q6*/ "select sym, f0, d0 from (select sym, f0 from wide_facts) lj "
             "wide_dims",
      /*q7*/ "select mx: max d0 by sym from (select sym, f2 from "
             "wide_facts where f2>0.1) lj wide_dims",
      /*q8*/ "select n: count f0, s: sum d1 by sym from (select sym, f0 "
             "from wide_facts) lj wide_dims",
      /*q9*/ "aj[`sym`t; select sym, t, f0 from wide_facts; select sym, t, "
             "e0, e1 from wide_events]",
      // q10: three tables (flagged in Figure 6 as translation-heavy).
      /*q10*/ "select tot: sum f0, dd: avg d0, gg: max g0 by sym from "
              "((select sym, f0 from wide_facts) lj wide_dims) lj "
              "wide_dims2",
      // q11-q17: analytic mixes.
      /*q11*/ "select m: med f8, v: var f9 by sym from wide_facts",
      /*q12*/ "select sym, run: sums f10 from wide_facts where sym=`S1",
      /*q13*/ "select sym, chg: deltas f11 from wide_facts where sym=`S2",
      /*q14*/ "update hot: f12>0.9 from wide_facts where f13>0.5",
      /*q15*/ "select lo: min f14, hi: max f15, spread: (max f15) - min f14 "
              "by sym from wide_facts",
      /*q16*/ "100#`f16 xdesc wide_facts",
      /*q17*/ "select f17, f18 from wide_facts where f17 within 0.25 0.75",
      // q18-q20: three-or-more-table joins (translation-heavy per Fig. 6).
      /*q18*/ "select s: sum e0, d: avg d2, g: avg g2 by sym from "
              "((select sym, t, e0 from wide_events) lj wide_dims) lj "
              "wide_dims2",
      /*q19*/ "select n: count f0, mx: max f1, dsum: sum d3, "
              "gsum: sum g3 by sym from ((select sym, f0, f1 from "
              "wide_facts where f0>0.05) lj wide_dims) lj wide_dims2",
      /*q20*/ "aj[`sym`t; select sym, t, f0, f1 from wide_facts where "
              "f1>0.2; select sym, t, e2, e3 from wide_events]",
      // q21-q25: remaining mixes.
      /*q21*/ "select c: count f20 by bucket: 10 xbar 100*f21 from "
              "wide_facts",
      /*q22*/ "exec sum f22 from wide_facts where sym in `S0`S1`S2",
      /*q23*/ "select first f23, last f24 by sym from wide_facts",
      /*q24*/ "delete from wide_facts where f25<0.01",
      /*q25*/ "select avg f26 by sym from wide_facts where f27>0.1, "
              "f28<0.9",
  };
}

}  // namespace bench
}  // namespace hyperq
