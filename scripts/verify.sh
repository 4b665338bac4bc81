#!/usr/bin/env bash
# One-shot verification: everything a change must survive before merge.
#
#   1. tier-1: default configure with warnings as errors, full build,
#      complete ctest run (unit + property tests, tsan_smoke and
#      asan_smoke sub-builds, perf gates);
#   2. an SEGROUTE_OBS=OFF configure (warnings as errors) + build + test
#      run, proving the tree compiles and passes with all
#      instrumentation compiled out;
#   3. explicit re-runs of the tsan_smoke, asan_smoke and perf_obs/
#      perf_smoke/perf_engine gates from the tier-1 build, so a perf,
#      race or memory-safety regression fails loudly even if step 1's
#      summary scrolled by.
#
# Usage: scripts/verify.sh [build-dir]     (default: build)
# Exits nonzero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [1/3] tier-1: configure + build + ctest ($BUILD) =="
cmake -B "$BUILD" -S . -DSEGROUTE_WERROR=ON
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== [2/3] SEGROUTE_OBS=OFF build + ctest ($BUILD-obs-off) =="
cmake -B "$BUILD-obs-off" -S . -DSEGROUTE_OBS=OFF -DSEGROUTE_WERROR=ON
cmake --build "$BUILD-obs-off" -j "$JOBS"
ctest --test-dir "$BUILD-obs-off" --output-on-failure -j "$JOBS" \
  -E '^(tsan|asan)_smoke$'  # identical sanitizer sub-builds to tier-1's; skip the repeat

echo "== [3/3] sanitizer + perf gates (tier-1 build) =="
ctest --test-dir "$BUILD" --output-on-failure \
  -R '^(tsan_smoke|asan_smoke|perf_smoke|perf_engine|perf_fabric|perf_obs|perf_svc|perf_incremental|svc_smoke)$'

echo "verify.sh: all gates passed"
