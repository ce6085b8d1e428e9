#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, then the concurrency
# battery (endpoint stress, metrics, worker pool, concurrent executors,
# fault injection, shard scatter-gather, ingest hybrid, chaos soak)
# rebuilt and re-run under ThreadSanitizer.
# Any TSAN report fails the run via -DHYPERQ_SANITIZE instrumentation and
# halt_on_error.
#
# Usage: scripts/ci.sh [--skip-tsan] [--bench-smoke] [--chaos-smoke]
#                      [--kernel-coverage] [--oversubscribe]
#
#   --chaos-smoke  re-runs the chaos/soak battery (non-TSAN binary) with a
#                  pinned seed and a short wall-clock budget; part of the
#                  default flow already via ctest, this flag runs it again
#                  standalone with the canonical CI seed so a failure
#                  reproduces with: HYPERQ_SOAK_SEED=42 HYPERQ_SOAK_MS=1500
#
#   --kernel-coverage  builds and runs ONLY the fused-kernel coverage sweep
#                  (the KernelCoverageOnTranslatedHotCorpus fuzz battery):
#                  translator-emitted hot SELECTs must be served by
#                  compiled kernels at >= 80% or the run fails. Fast
#                  standalone check for kernel-grammar regressions.
#
#   --oversubscribe  builds and runs ONLY the oversubscription stress gate:
#                  2 x nproc concurrent copies of each of the worker pool,
#                  kernel, shard and chaos-soak tests, once per
#                  HYPERQ_EXEC_THREADS value in 1/4/16. Lost wakeups and
#                  other hangs TSAN cannot see show up as a copy that
#                  exceeds its 300 s timeout; any non-zero exit fails.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_TSAN=0
BENCH_SMOKE=0
CHAOS_SMOKE=0
KERNEL_COVERAGE=0
OVERSUBSCRIBE=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos-smoke) CHAOS_SMOKE=1 ;;
    --kernel-coverage) KERNEL_COVERAGE=1 ;;
    --oversubscribe) OVERSUBSCRIBE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$KERNEL_COVERAGE" == 1 ]]; then
  echo "==> kernel-coverage: configure + build"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target side_by_side_fuzz_test >/dev/null
  echo "==> kernel-coverage: translated hot-corpus sweep (floor: 80%)"
  ./build/tests/side_by_side_fuzz_test \
    --gtest_filter='*KernelCoverageOnTranslatedHotCorpus*'
  echo "==> kernel-coverage: green"
  exit 0
fi

if [[ "$OVERSUBSCRIBE" == 1 ]]; then
  STRESS_TESTS=(worker_pool_test kernel_exec_test shard_exec_test
                chaos_soak_test)
  COPIES=$((2 * JOBS))
  echo "==> oversubscribe: configure + build"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target "${STRESS_TESTS[@]}" >/dev/null
  LOG_DIR="$(mktemp -d)"
  FAILED=0
  for threads in 1 4 16; do
    for t in "${STRESS_TESTS[@]}"; do
      echo "==> oversubscribe: $COPIES x $t, HYPERQ_EXEC_THREADS=$threads"
      pids=()
      for ((i = 0; i < COPIES; ++i)); do
        HYPERQ_EXEC_THREADS="$threads" timeout 300 "./build/tests/$t" \
          >"$LOG_DIR/$t.$threads.$i.log" 2>&1 &
        pids+=("$!")
      done
      for i in "${!pids[@]}"; do
        rc=0
        wait "${pids[$i]}" || rc=$?
        if [[ "$rc" != 0 ]]; then
          echo "FAILED: $t copy $i exited $rc (124 = 300 s timeout)," \
               "HYPERQ_EXEC_THREADS=$threads" >&2
          tail -20 "$LOG_DIR/$t.$threads.$i.log" >&2
          FAILED=1
        fi
      done
    done
  done
  rm -rf "$LOG_DIR"
  if [[ "$FAILED" != 0 ]]; then
    echo "==> oversubscribe: FAILED" >&2
    exit 1
  fi
  echo "==> oversubscribe: green"
  exit 0
fi

# fd preflight: the endpoint tests open thousands of sockets (idle-churn,
# C10K smoke). Raise the soft RLIMIT_NOFILE toward the hard limit, capped
# at 8192, and warn when even that is unavailable (tests self-scale, but a
# tiny limit weakens their coverage).
HARD_FD="$(ulimit -Hn)"
TARGET_FD=8192
if [[ "$HARD_FD" != "unlimited" && "$HARD_FD" -lt "$TARGET_FD" ]]; then
  TARGET_FD="$HARD_FD"
fi
if [[ "$(ulimit -Sn)" -lt "$TARGET_FD" ]]; then
  ulimit -Sn "$TARGET_FD" || true
fi
if [[ "$(ulimit -Sn)" -lt 1024 ]]; then
  echo "warning: open-file limit is only $(ulimit -Sn); connection-scale" \
       "tests will run with reduced connection counts" >&2
fi
echo "==> fd limit: $(ulimit -Sn) (hard: $HARD_FD)"

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "==> tier-1: full test suite"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$BENCH_SMOKE" == 1 ]]; then
  echo "==> bench: smoke (tiny iteration counts, artifacts at repo root)"
  scripts/bench.sh --smoke
fi

if [[ "$CHAOS_SMOKE" == 1 ]]; then
  echo "==> chaos: smoke soak (pinned seed 42, 1500 ms)"
  HYPERQ_SOAK_SEED=42 HYPERQ_SOAK_MS=1500 ./build/tests/chaos_soak_test
fi

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "==> tsan: skipped (--skip-tsan)"
  exit 0
fi

echo "==> tsan: configure + build (build-tsan)"
cmake -B build-tsan -S . -DHYPERQ_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target endpoint_stress_test metrics_test endpoint_test \
  event_loop_test protocol_test \
  translation_cache_test worker_pool_test exec_stress_test \
  kernel_exec_test \
  wire_path_test qipc_property_test fault_injection_test chaos_soak_test \
  shard_exec_test side_by_side_fuzz_test ingest_hybrid_test

echo "==> tsan: concurrency battery"
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
./build-tsan/tests/metrics_test
./build-tsan/tests/event_loop_test
./build-tsan/tests/protocol_test
./build-tsan/tests/endpoint_test
./build-tsan/tests/endpoint_stress_test
./build-tsan/tests/translation_cache_test
./build-tsan/tests/worker_pool_test
./build-tsan/tests/exec_stress_test
./build-tsan/tests/kernel_exec_test
./build-tsan/tests/wire_path_test
./build-tsan/tests/qipc_property_test
./build-tsan/tests/fault_injection_test
./build-tsan/tests/shard_exec_test
./build-tsan/tests/side_by_side_fuzz_test
./build-tsan/tests/ingest_hybrid_test
HYPERQ_SOAK_MS=1500 ./build-tsan/tests/chaos_soak_test

echo "==> ci: all green"
