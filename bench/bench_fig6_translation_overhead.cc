// Reproduces Figure 6: "Efficiency of query translation" — per-query
// translation time as a fraction of total query execution time over the
// 25-query Analytical Workload, with metadata caching enabled (§6).
//
// Paper shape to reproduce: average overhead ~0.5% of execution time,
// maximum ~4%; the join-heavy queries (10, 18, 19, 20) take the longest to
// translate because they algebrize more tables, look up more metadata and
// serialize larger SQL.

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

struct Fig6Row {
  double translate_us;
  double execute_us;
  double pct;
};

int RunFig6(const std::string& json_path, int iters, bool smoke) {
  sqldb::Database db;
  Status load = LoadAnalyticalWorkload(&db, WorkloadOptions{});
  if (!load.ok()) {
    std::fprintf(stderr, "workload load failed: %s\n",
                 load.ToString().c_str());
    return 1;
  }
  // Metadata caching on (the paper's steady state); translation caching
  // off — this figure measures the translation work itself.
  HyperQSession::Options opts;
  opts.translation_cache.enabled = false;
  HyperQSession session(&db, opts);

  std::vector<std::string> queries = AnalyticalQueries();

  // Warm the metadata cache (the paper's experiments run with caching
  // enabled, i.e. steady state).
  for (const auto& q : queries) {
    auto t = session.Translate(q);
    if (!t.ok()) {
      std::fprintf(stderr, "translate failed for: %s\n  %s\n", q.c_str(),
                   t.status().ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "Figure 6: Efficiency of query translation "
      "(Analytical Workload, 25 queries, metadata cache warm)\n");
  std::printf("%-5s %15s %15s %12s\n", "query", "translate_us",
              "execute_us", "overhead");

  double sum_pct = 0;
  double max_pct = 0;
  int max_q = 0;
  std::vector<Fig6Row> rows;
  for (size_t i = 0; i < queries.size(); ++i) {
    double best_translate = 1e18;
    double best_execute = 1e18;
    for (int it = 0; it < iters; ++it) {
      auto t = session.Translate(queries[i]);
      if (!t.ok()) return 1;
      best_translate = std::min(best_translate, t->timings.total_us());
      double start = NowUs();
      auto r = session.gateway().Execute(t->result_sql);
      double elapsed = NowUs() - start;
      if (!r.ok()) {
        std::fprintf(stderr, "execution failed for q%zu: %s\n", i + 1,
                     r.status().ToString().c_str());
        return 1;
      }
      best_execute = std::min(best_execute, elapsed);
    }
    double pct = 100.0 * best_translate / (best_translate + best_execute);
    rows.push_back(Fig6Row{best_translate, best_execute, pct});
    sum_pct += pct;
    if (pct > max_pct) {
      max_pct = pct;
      max_q = static_cast<int>(i) + 1;
    }
    std::printf("q%-4zu %15.1f %15.1f %11.2f%%\n", i + 1, best_translate,
                best_execute, pct);
  }
  std::printf("\naverage translation overhead: %.2f%%   max: %.2f%% (q%d)\n",
              sum_pct / queries.size(), max_pct, max_q);
  std::printf(
      "paper reference: average ~0.5%% of execution time, max ~4%%; "
      "queries 10/18/19/20 translate slowest (more tables to join)\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"name\": \"fig6_translation_overhead\",\n");
    std::fprintf(f,
                 "  \"num_cpus\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"smoke\": %s,\n",
                 std::thread::hardware_concurrency(), HQ_BUILD_TYPE,
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"iterations\": %d,\n  \"queries\": [\n", iters);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"query\": %zu, \"translate_us\": %.1f, "
                   "\"execute_us\": %.1f, \"overhead_pct\": %.3f}%s\n",
                   i + 1, rows[i].translate_us, rows[i].execute_us,
                   rows[i].pct, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"avg_overhead_pct\": %.3f,\n"
                 "  \"max_overhead_pct\": %.3f,\n  \"max_query\": %d\n}\n",
                 sum_pct / rows.size(), max_pct, max_q);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hyperq

int main(int argc, char** argv) {
  std::string json_path;
  int iters = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--smoke") {
      iters = 1;
      smoke = true;
    } else if (a.rfind("--iters=", 0) == 0) {
      iters = std::max(1, std::atoi(a.c_str() + 8));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=FILE] [--smoke] [--iters=N]\n",
                   argv[0]);
      return 2;
    }
  }
  return hyperq::bench::RunFig6(json_path, iters, smoke);
}
