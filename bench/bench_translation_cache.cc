// The translation cache's hot path: per-query translation latency with the
// cache off (full parse/bind/xform/serialize), on a cache miss (the cache
// cleared before every call: the cold pipeline plus the lookup and the
// insert, the path ad-hoc traffic takes) and hot (replay of the cached
// text, no parse). The acceptance bar is a >=5x reduction hot vs cold.
// A second gate holds cold translation independent of table width: the
// three-table joins q10, q18 and q19 read a handful of the 500-column
// tables' columns, so each must translate cold within 8x the mean of the
// one-table q1-q5 of the same run. The bench exits non-zero when either
// gate fails. `--json=FILE` writes the evidence, stamped with the host's
// CPU count and build type, as an artifact (scripts/bench.sh commits it as
// BENCH_translation.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "core/hyperq.h"

namespace hyperq {
namespace bench {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-N latency of one Translate call. `clear_cache` empties the
/// session's translation cache before every call, outside the timing.
double MeasureUs(HyperQSession* session, const std::string& q, int iters,
                 bool clear_cache = false) {
  double best = 1e18;
  for (int it = 0; it < iters; ++it) {
    if (clear_cache) session->translation_cache().Clear();
    double start = NowUs();
    auto t = session->Translate(q);
    double elapsed = NowUs() - start;
    if (!t.ok()) {
      std::fprintf(stderr, "translate failed: %s\n  %s\n", q.c_str(),
                   t.status().ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, elapsed);
  }
  return best;
}

int Run(const std::string& json_path, int iters, bool smoke) {
  sqldb::Database db;
  Status load = LoadAnalyticalWorkload(&db, WorkloadOptions{});
  if (!load.ok()) {
    std::fprintf(stderr, "workload load failed: %s\n",
                 load.ToString().c_str());
    return 1;
  }

  HyperQSession::Options cold_opts;
  cold_opts.translation_cache.enabled = false;
  HyperQSession cold(&db, cold_opts);
  HyperQSession miss(&db);
  HyperQSession hot(&db);

  std::vector<std::string> queries = AnalyticalQueries();

  // Warm both metadata caches and the hot session's translation cache.
  for (const auto& q : queries) {
    auto c = cold.Translate(q);
    auto m = miss.Translate(q);
    auto h = hot.Translate(q);
    if (!c.ok() || !m.ok() || !h.ok()) {
      std::fprintf(stderr, "warmup translate failed for: %s\n", q.c_str());
      return 1;
    }
  }

  std::printf(
      "Translation cache hot path (Analytical Workload, %d iterations, "
      "best-of)\n",
      iters);
  std::printf("%-5s %12s %12s %14s %10s\n", "query", "cold_us", "miss_us",
              "hot_exact_us", "speedup");

  double sum_cold = 0;
  double sum_miss = 0;
  double sum_exact = 0;
  std::vector<double> per_query_cold, per_query_miss, per_query_exact;
  for (size_t i = 0; i < queries.size(); ++i) {
    double cold_us = MeasureUs(&cold, queries[i], iters);
    double miss_us = MeasureUs(&miss, queries[i], iters, /*clear_cache=*/true);
    double exact_us = MeasureUs(&hot, queries[i], iters);
    sum_cold += cold_us;
    sum_miss += miss_us;
    sum_exact += exact_us;
    per_query_cold.push_back(cold_us);
    per_query_miss.push_back(miss_us);
    per_query_exact.push_back(exact_us);
    std::printf("q%-4zu %12.1f %12.1f %14.1f %9.1fx\n", i + 1, cold_us,
                miss_us, exact_us, cold_us / exact_us);
  }

  double speedup_exact = sum_cold / sum_exact;
  double base_cold = 0;
  for (size_t i = 0; i < 5; ++i) base_cold += per_query_cold[i] / 5;
  const size_t kJoinQueries[] = {10, 18, 19};
  bool width_ok = true;
  for (size_t q : kJoinQueries) {
    width_ok = width_ok && per_query_cold[q - 1] <= 8.0 * base_cold;
  }
  std::printf(
      "\naggregate: cold %.1fus/query, miss %.1fus/query, hot-exact "
      "%.1fus/query (speedup %.1fx)\n",
      sum_cold / queries.size(), sum_miss / queries.size(),
      sum_exact / queries.size(), speedup_exact);
  std::printf("acceptance bar: >=5x hot vs cold — %s\n",
              speedup_exact >= 5.0 ? "PASS" : "FAIL");
  std::printf(
      "width gate: cold q10 %.1fx, q18 %.1fx, q19 %.1fx the q1-q5 mean "
      "(%.1fus), bar <=8x — %s\n",
      per_query_cold[9] / base_cold, per_query_cold[17] / base_cold,
      per_query_cold[18] / base_cold, base_cold, width_ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"name\": \"translation_cache_hot_path\",\n");
    std::fprintf(f,
                 "  \"num_cpus\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"smoke\": %s,\n",
                 std::thread::hardware_concurrency(), HQ_BUILD_TYPE,
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"iterations\": %d,\n  \"queries\": [\n", iters);
    for (size_t i = 0; i < per_query_cold.size(); ++i) {
      std::fprintf(f,
                   "    {\"query\": %zu, \"cold_us\": %.1f, "
                   "\"miss_us\": %.1f, \"hot_exact_us\": %.1f, "
                   "\"speedup\": %.1f}%s\n",
                   i + 1, per_query_cold[i], per_query_miss[i],
                   per_query_exact[i], per_query_cold[i] / per_query_exact[i],
                   i + 1 < per_query_cold.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"avg_cold_us\": %.1f,\n"
                 "  \"avg_miss_us\": %.1f,\n"
                 "  \"avg_hot_exact_us\": %.1f,\n"
                 "  \"speedup_exact\": %.1f,\n"
                 "  \"acceptance_5x\": %s,\n"
                 "  \"q1_q5_mean_cold_us\": %.1f,\n"
                 "  \"width_ratio_q10\": %.2f,\n"
                 "  \"width_ratio_q18\": %.2f,\n"
                 "  \"width_ratio_q19\": %.2f,\n"
                 "  \"width_gate_8x\": %s\n}\n",
                 sum_cold / queries.size(), sum_miss / queries.size(),
                 sum_exact / queries.size(), speedup_exact,
                 speedup_exact >= 5.0 ? "true" : "false", base_cold,
                 per_query_cold[9] / base_cold,
                 per_query_cold[17] / base_cold,
                 per_query_cold[18] / base_cold,
                 width_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return speedup_exact >= 5.0 && width_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace hyperq

int main(int argc, char** argv) {
  std::string json_path;
  int iters = 25;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--smoke") {
      iters = 3;
      smoke = true;
    } else if (a.rfind("--iters=", 0) == 0) {
      iters = std::max(1, std::atoi(a.c_str() + 8));
    } else {
      std::fprintf(stderr, "usage: %s [--json=FILE] [--smoke] [--iters=N]\n",
                   argv[0]);
      return 2;
    }
  }
  return hyperq::bench::Run(json_path, iters, smoke);
}
