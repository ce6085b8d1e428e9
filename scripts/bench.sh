#!/usr/bin/env bash
# Bench runner: builds the headline benches and writes their JSON artifacts
# at the repo root (BENCH_translation.json, BENCH_fig6.json,
# BENCH_backend.json, BENCH_wire.json, BENCH_shard.json,
# BENCH_endpoint.json, BENCH_asof.json). The translation-cache bench
# exits non-zero if the hot path is not at least 5x faster than cold
# translation or if the three-table joins q10, q18 or q19 translate cold
# in more than 8x the mean of the one-table q1-q5 (translation must not
# grow with table width), the wire bench exits non-zero if bulk encode is
# not at least 4x faster than the element-wise baseline, and this script
# exits non-zero if the routed 4-shard filter+agg is not at least 2x faster
# than 1 shard, if the C10K endpoint bench shows the idle fleet taxing
# active clients (p99 latency above the idle-free baseline), an idle
# connection refused on a full run, or more than 8 KiB of server RSS per
# idle connection, or if the translated as-of join over 50k quotes
# (BM_HyperQTranslatedAj/50000, the band join) takes more than 20 ms, or
# if selecting every column of a 500-column table (BM_WideSelect/500/0)
# costs more than 14x the same query over 50 columns, so it doubles as a
# perf gate.
#
# Usage: scripts/bench.sh [--smoke]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SMOKE=()
[[ "${1:-}" == "--smoke" ]] && SMOKE=(--smoke)

echo "==> bench: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" \
  --target bench_translation_cache bench_fig6_translation_overhead \
  bench_backend_exec bench_wire \
  bench_shard_scatter bench_ingest_hybrid bench_endpoint_c10k \
  bench_asof_join >/dev/null

echo "==> bench: translation cache hot path"
./build/bench/bench_translation_cache --json=BENCH_translation.json \
  "${SMOKE[@]}"

echo "==> bench: figure 6 translation overhead"
./build/bench/bench_fig6_translation_overhead --json=BENCH_fig6.json \
  "${SMOKE[@]}"

echo "==> bench: backend executor (columnar + morsel parallelism)"
./build/bench/bench_backend_exec --json=BENCH_backend.json "${SMOKE[@]}"

echo "==> bench: wire path (vectorized encode + scatter egress)"
./build/bench/bench_wire --json=BENCH_wire.json "${SMOKE[@]}"

echo "==> bench: shard scatter-gather (partition routing + shard scaling)"
./build/bench/bench_shard_scatter --json=BENCH_shard.json "${SMOKE[@]}"

echo "==> bench: ingest + hybrid live/historical queries"
./build/bench/bench_ingest_hybrid --json=BENCH_ingest.json "${SMOKE[@]}"

echo "==> bench: C10K endpoint (idle fleet vs idle-free baseline)"
./build/bench/bench_endpoint_c10k --json=BENCH_endpoint.json "${SMOKE[@]}"

echo "==> bench: as-of join (band join vs native aj)"
./build/bench/bench_asof_join --json=BENCH_asof.json "${SMOKE[@]}"

echo "==> bench: artifacts"
grep -o '"speedup_[a-z]*": [0-9.]*' BENCH_translation.json
grep -o '"avg_overhead_pct": [0-9.]*' BENCH_fig6.json
grep -c '"name": "BM_' BENCH_backend.json
grep -o '"encode_speedup": [0-9.]*' BENCH_wire.json
# Gate: a live tail must be nearly free for readers — the hybrid split
# (snapshot + historical/tail partials + merge, each over the part it
# reads) over the same rows, with one publisher sustaining ingest
# into another live table, must stay within 1.3x of the plain bulk-loaded
# table's latency. Single runs of this pair swing 0.7-2.1x on a shared
# host, so the gate compares the medians of repeated runs.
awk -F': ' '
  /"name": "BM_StaticFilterAgg\/repeats:[0-9]+_median"/ { wants = 1 }
  wants && /"real_time"/ { s = $2 + 0; wants = 0 }
  /"name": "BM_HybridFilterAgg\/1\/repeats:[0-9]+_median"/ { wanth = 1 }
  wanth && /"real_time"/ { h = $2 + 0; wanth = 0 }
  END {
    if (s <= 0 || h <= 0) {
      print "ingest bench: static/hybrid medians missing from BENCH_ingest.json"
      exit 1
    }
    printf "hybrid filter+agg at 1 publisher: %.2fx static baseline (medians)\n", h / s
    if (h > s * 1.3) {
      print "FAIL: hybrid query latency above 1.3x the static table at 1 publisher"
      exit 1
    }
  }' BENCH_ingest.json
# Gate: the routed symbol-pinned filter+agg at 4 shards scans ~1/4 of the
# rows, so it must beat the 1-shard run by at least 2x even on one core.
awk -F': ' '
  /"name": "BM_FilterAggRouted\/1"/ { want1 = 1 }
  want1 && /"real_time"/ { t1 = $2 + 0; want1 = 0 }
  /"name": "BM_FilterAggRouted\/4"/ { want4 = 1 }
  want4 && /"real_time"/ { t4 = $2 + 0; want4 = 0 }
  END {
    if (t1 <= 0 || t4 <= 0) {
      print "shard bench: routed timings missing from BENCH_shard.json"
      exit 1
    }
    printf "shard routed 4-shard speedup: %.2fx\n", t1 / t4
    if (t1 / t4 < 2.0) {
      print "FAIL: routed 4-shard filter+agg speedup below 2x"
      exit 1
    }
  }' BENCH_shard.json
# Gate: holding the idle fleet must not tax active clients. The active
# p99, measured WITH the idle fleet parked, must stay within 15% of the
# same workload's p99 on a fresh server with no idle load; run-to-run
# noise swings the sign, and the slack absorbs that without letting a
# real regression (reactor stall, lost wakeup, drain bug) through. 25% in
# smoke mode, where tiny sample counts make p99 noisier still. Full runs
# must also sustain every idle connection of the fd-scaled target, and
# each idle connection may cost at most 8 KiB of server RSS.
SLACK=1.15
[[ "${1:-}" == "--smoke" ]] && SLACK=1.25
awk -F': ' -v slack="$SLACK" '
  /"idle_target"/ { target = $2 + 0 }
  /"idle_sustained_event"/ { sustained = $2 + 0 }
  /"rss_per_idle_conn_bytes"/ { rss = $2 + 0 }
  /"event_p99_us"/ { ep99 = $2 + 0 }
  /"event_noidle_p99_us"/ { np99 = $2 + 0 }
  /"smoke"/ { smoke = ($2 ~ /true/) }
  END {
    if (ep99 <= 0 || np99 <= 0) {
      print "endpoint bench: p99 timings missing from BENCH_endpoint.json"
      exit 1
    }
    printf "endpoint p99 %.0f us with %d idle vs %.0f us idle-free; %d B RSS per idle conn\n", \
      ep99, sustained, np99, rss
    if (ep99 > np99 * slack) {
      print "FAIL: active p99 under idle load above the idle-free baseline"
      exit 1
    }
    if (!smoke && sustained != target) {
      print "FAIL: event loop refused idle connections below the fd-scaled target"
      exit 1
    }
    if (rss > 8192) {
      print "FAIL: server RSS per idle connection above 8 KiB"
      exit 1
    }
  }' BENCH_endpoint.json
# Gate: the translated as-of join runs as a band join (each trade
# binary-searches its symbol's quotes sorted by time), so 50k quotes must
# take at most 20 ms (the bench reports milliseconds); the pair filter it
# replaced took over 100 ms.
awk -F': ' '
  /"name": "BM_HyperQTranslatedAj\/50000"/ { want = 1 }
  want && /"real_time"/ { t = $2 + 0; want = 0 }
  END {
    if (t <= 0) {
      print "as-of bench: BM_HyperQTranslatedAj/50000 missing from BENCH_asof.json"
      exit 1
    }
    printf "translated aj over 50k quotes: %.2f ms\n", t
    if (t > 20) {
      print "FAIL: translated as-of join over 50k quotes above 20 ms"
      exit 1
    }
  }' BENCH_asof.json
# Gate: each SELECT binds its column names once, through a by-name index,
# so selecting every column of a 500-column table must cost at most 14x
# the same query over 50 columns (10x the columns; the per-reference
# linear name search it replaced read 22x).
awk -F': ' '
  /"name": "BM_WideSelect\/50\/0"/ { want50 = 1 }
  want50 && /"real_time"/ { t50 = $2 + 0; want50 = 0 }
  /"name": "BM_WideSelect\/500\/0"/ { want500 = 1 }
  want500 && /"real_time"/ { t500 = $2 + 0; want500 = 0 }
  END {
    if (t50 <= 0 || t500 <= 0) {
      print "backend bench: BM_WideSelect timings missing from BENCH_backend.json"
      exit 1
    }
    printf "all-column select, 500 vs 50 columns: %.1fx\n", t500 / t50
    if (t500 > t50 * 14) {
      print "FAIL: all-column select over 500 columns above 14x 50 columns"
      exit 1
    }
  }' BENCH_backend.json
