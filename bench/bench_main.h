#ifndef HYPERQ_BENCH_BENCH_MAIN_H_
#define HYPERQ_BENCH_BENCH_MAIN_H_

// Shared main() for the google-benchmark binaries. Adds two convenience
// flags on top of the stock --benchmark_* set so every bench in the suite
// shares one artifact interface (scripts/bench.sh relies on it):
//   --json[=FILE]  emit JSON — to stdout, or to FILE while keeping the
//                  console table on stdout
//   --smoke        minimal per-benchmark run time (CI smoke mode)
// The JSON context carries the host stamp: google-benchmark's num_cpus
// plus this build's `build_type` and whether the run was a `smoke` run.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

namespace hyperq {
namespace bench {

/// Rewrites the convenience flags; returns whether `--smoke` was given.
inline bool RewriteBenchArgs(int argc, char** argv,
                             std::vector<std::string>* out) {
  bool smoke = false;
  out->push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json") {
      out->push_back("--benchmark_format=json");
    } else if (a.rfind("--json=", 0) == 0) {
      out->push_back("--benchmark_out=" + a.substr(7));
      out->push_back("--benchmark_out_format=json");
    } else if (a == "--smoke") {
      out->push_back("--benchmark_min_time=0.01");
      smoke = true;
    } else {
      out->push_back(std::move(a));
    }
  }
  return smoke;
}

}  // namespace bench
}  // namespace hyperq

#define HQ_BENCH_MAIN()                                                     \
  int main(int argc, char** argv) {                                         \
    std::vector<std::string> rewritten;                                     \
    const bool smoke =                                                      \
        hyperq::bench::RewriteBenchArgs(argc, argv, &rewritten);            \
    std::vector<char*> args;                                                \
    for (std::string& a : rewritten) args.push_back(a.data());              \
    int n = static_cast<int>(args.size());                                  \
    ::benchmark::Initialize(&n, args.data());                               \
    ::benchmark::AddCustomContext("build_type", HQ_BUILD_TYPE);             \
    ::benchmark::AddCustomContext("smoke", smoke ? "true" : "false");       \
    if (::benchmark::ReportUnrecognizedArguments(n, args.data())) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                                  \
    ::benchmark::Shutdown();                                                \
    return 0;                                                               \
  }

#endif  // HYPERQ_BENCH_BENCH_MAIN_H_
