#!/usr/bin/env bash
# Builds and runs the benchmark binaries — each writes its own
# BENCH_<name>.json into OUT_DIR, next to its log — then gates the
# results against the floors in tools/bench_baseline.json
# (tools/check_bench.py).
#
# Usage: tools/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build directory (default: build)
#   OUT_DIR    where BENCH_*.json and *.log land (default: bench-results)
#
# Set DESCEND_BENCH_QUICK=1 to skip the (slow) Figure 8 run.

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
ROOT_DIR="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT_DIR"

# Benchmark numbers taken with fault injection armed would be garbage —
# an injected delay or trap skews every timing and can poison a device
# mid-bench. Refuse to run rather than produce silently-wrong results.
if [ -n "${DESCEND_FAULTS:-}" ]; then
  echo "run_benches.sh: error: DESCEND_FAULTS is set ('${DESCEND_FAULTS}');" \
       "benchmarks must run with fault injection disabled" >&2
  exit 2
fi

# Results of an earlier run must not pass for this one's.
mkdir -p "$OUT_DIR"
rm -f "$OUT_DIR"/BENCH_*.json "$OUT_DIR"/*.log

BENCHES=(safety)
if [ "${DESCEND_BENCH_QUICK:-0}" != "1" ]; then
  BENCHES+=(fig8)
else
  echo "== bench_fig8 skipped (DESCEND_BENCH_QUICK=1) =="
fi
BENCHES+=(matmul_sweep throughput)

cmake -B "$BUILD_DIR" -S . >/dev/null
# bench_ablations exists only where CMake found google-benchmark; when it
# exists it must build like every other bench.
if cmake --build "$BUILD_DIR" --target help \
    | grep -w bench_ablations >/dev/null; then
  BENCHES+=(ablations)
else
  echo "== bench_ablations skipped (google-benchmark not available) =="
fi
cmake --build "$BUILD_DIR" -j --target "${BENCHES[@]/#/bench_}" >/dev/null

for name in "${BENCHES[@]}"; do
  echo "== bench_$name =="
  "$BUILD_DIR/bench_$name" "$OUT_DIR" | tee "$OUT_DIR/bench_$name.log"
done

python3 tools/check_bench.py "$OUT_DIR" "${BENCHES[@]}"
echo "all benches done; results in $OUT_DIR/"
