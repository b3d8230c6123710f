#!/usr/bin/env sh
# Builds the library, runs the full test suite, and regenerates every paper
# artifact (Table 1 blocks, Figures 1-2, §3-§7 properties).
#
# Outputs, at the repository root:
#   test_output.txt     — ctest log
#   bench_output.txt    — human-readable bench tables
#   BENCH_results.json  — one aggregated JSON document: every bench binary's
#                         structured rows plus the Table-1 bound-conformance
#                         verdicts (pim::BoundCheck). The script exits
#                         non-zero if any bench reports bounds_pass=false.
set -e
cd "$(dirname "$0")/.."
cmake -B build
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# Each bench binary writes $PIMKD_BENCH_JSON_DIR/<name>.json (bench_util.hpp).
PIMKD_BENCH_JSON_DIR="$PWD/build/bench_json"
export PIMKD_BENCH_JSON_DIR
rm -rf "$PIMKD_BENCH_JSON_DIR"
mkdir -p "$PIMKD_BENCH_JSON_DIR"

for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then "$b"; fi
done 2>&1 | tee bench_output.txt

# Aggregate the per-bench files into one document.
out=BENCH_results.json
{
  printf '{"benches":['
  first=1
  for f in "$PIMKD_BENCH_JSON_DIR"/*.json; do
    [ -f "$f" ] || continue
    if [ "$first" -eq 1 ]; then first=0; else printf ','; fi
    tr -d '\n' < "$f"
  done
  printf ']}\n'
} > "$out"
echo "wrote $out"

# Fail loudly if any Table-1 conformance check regressed.
fail=0
for f in "$PIMKD_BENCH_JSON_DIR"/*.json; do
  [ -f "$f" ] || continue
  if grep -q '"bounds_pass":false' "$f"; then
    echo "BOUND CHECK FAILED: $(basename "$f" .json)" >&2
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "Table-1 conformance failed; see bench_output.txt for details." >&2
  exit 1
fi
echo "all Table-1 bound checks passed"

# Wall-clock regression gate: the timing rows must actually have landed in
# the aggregate (an empty bench_wallclock report means the reporter wiring
# broke and timings silently stopped being tracked).
wc_json="$PIMKD_BENCH_JSON_DIR/bench_wallclock.json"
if [ ! -f "$wc_json" ] || ! grep -q '"real_time_ns"' "$wc_json"; then
  echo "bench_wallclock produced no timing rows; wall-clock tracking is broken." >&2
  exit 1
fi
echo "wall-clock timings recorded ($(grep -o '"real_time_ns"' "$wc_json" | wc -l) rows)"

# SIMD kernel gate: the per-kernel micro-bench rows must be present, and on
# AVX2 hardware the directly-timed leaf-scan speedup must clear 1.5x over
# forced-scalar (bit-identical results; the gate is wall-clock only). On a
# host without AVX2 bench_wallclock marks the gate vacuously ok and says so.
if ! grep -q '"name":"BM_KernelLeafScan' "$wc_json"; then
  echo "bench_wallclock is missing the SIMD kernel micro-bench rows." >&2
  exit 1
fi
if grep -q '"simd_gate_ok":0' "$wc_json"; then
  echo "SIMD leaf-scan speedup fell below the 1.5x gate:" >&2
  grep -o '"simd_leafscan_speedup":[0-9.eE+-]*' "$wc_json" >&2
  exit 1
fi
if grep -q '"simd_leafscan_speedup"' "$wc_json"; then
  echo "simd gate passed ($(grep -o '"simd_leafscan_speedup":[0-9.eE+-]*' "$wc_json"))"
else
  echo "simd gate vacuous (no AVX2 on this host; scalar kernels only)"
fi

# Serving-layer gate: bench_serve must have emitted latency rows (p50/p99 +
# throughput) for at least 3 workload mixes.
serve_json="$PIMKD_BENCH_JSON_DIR/bench_serve.json"
if [ ! -f "$serve_json" ] || [ "$(grep -o '"p99_us"' "$serve_json" | wc -l)" -lt 3 ]; then
  echo "bench_serve produced fewer than 3 latency rows; serving bench is broken." >&2
  exit 1
fi
echo "serving latency rows recorded ($(grep -o '"p99_us"' "$serve_json" | wc -l) mixes)"

# Sharded-router gate (DESIGN.md §12): the K=1 vs K=4 read-heavy legs must
# have run through router::Frontend, and sharding must pay off in the PIM
# model — K=4's largest per-shard comm_time <= 0.5x K=1's, at most 5% of
# reads needing a second kNN phase, and every response equal to K=1's. All
# three are deterministic. Wall-clock K=4/K=1 throughput (router_speedup) is
# recorded but not gated: the shards share this host's cores.
if ! grep -q '"mix":"router_k4"' "$serve_json" || \
   ! grep -q '"mix":"router_gate"' "$serve_json"; then
  echo "bench_serve is missing the sharded router legs." >&2
  exit 1
fi
router_row() { grep -o "\"$1\":[^,}]*" "$serve_json" | head -1; }
if ! grep -q '"router_gate_ok":true' "$serve_json"; then
  echo "sharded router gate failed:" >&2
  for k in comm_time_ratio comm_time_ok knn_second_phase_frac \
           second_phase_ok responses_equal; do
    router_row "$k" >&2
  done
  exit 1
fi
echo "router gate passed ($(router_row comm_time_ratio), $(router_row knn_second_phase_frac), $(router_row responses_equal); ungated $(router_row router_speedup))"

echo "Examples:"
for e in build/examples/*; do
  if [ -f "$e" ] && [ -x "$e" ]; then echo "--- $e"; "$e"; fi
done
