#!/bin/sh
# The full CI gauntlet, loudest-failure-first. Each stage prints an exact
# repro command when it fails so a red run is immediately actionable.
#
#   1. tier-1:   plain build + ctest (the correctness floor)
#   2. checked:  the same ctest suite with RKO_CHECK=1, arming every gated
#                inline protocol assertion (busy-bit audits, waiter dedup,
#                post-revoke sweeps) — keeps the soak/invariant results of
#                later stages trustworthy — then once more with 4-way
#                sharded homes (RKO_HOME_SHARDS=4)
#   3. race:     the suite again with RKO_RACE=1 RKO_CHECK=1 (lockset /
#                lock-order / await-atomicity detector armed; a finding
#                fails the run via the "race" invariant family), plus
#                race-armed explore sweeps over every scenario at both
#                shard settings: the one-shard home map (10 seeds) and
#                4-way sharded homes (RKO_HOME_SHARDS=4, 5 seeds) — both
#                run the same protocol code, at different map shapes
#   4. lint:     scripts/lint.sh (self-test + lint_rko.py + clang-tidy if
#                installed)
#   5. asan/tsan: scripts/check.sh (ASan+UBSan tree, then TSan tree)
#   6. explore:  200-seed schedule-exploration sweep over every scenario
#                with invariant audits armed (RKO_CHECK=1), then a 25-seed
#                sweep with 4-way sharded homes (RKO_HOME_SHARDS=4);
#                failures print the offending seed and its repro line
#   7. bench:    quick page-fault + rebalance + futex + migration + mmap-scale
#                benches vs the committed baselines — virtual time is exactly
#                reproducible, so any >10% drift in a key protocol latency
#                is a real regression
#
# Usage: scripts/ci.sh [--quick]   (--quick: 25 explore seeds, skip sanitizers)
set -e
cd "$(dirname "$0")/.."

QUICK=0
[ "$1" = "--quick" ] && QUICK=1
JOBS="$(nproc 2>/dev/null || echo 4)"
EXPLORE_SEEDS=200
[ "$QUICK" = 1 ] && EXPLORE_SEEDS=25

fail() {
  echo "" >&2
  echo "ci.sh: FAILED at stage '$1'" >&2
  echo "  repro: $2" >&2
  exit 1
}

echo "=== ci.sh stage 1/7: tier-1 build + tests ==="
cmake -B build -S . >/dev/null || fail tier-1 "cmake -B build -S ."
cmake --build build -j "$JOBS" || fail tier-1 "cmake --build build -j"
ctest --test-dir build --output-on-failure -j "$JOBS" \
  || fail tier-1 "ctest --test-dir build --output-on-failure"

echo "=== ci.sh stage 2/7: tier-1 tests with RKO_CHECK=1, then RKO_HOME_SHARDS=4 ==="
RKO_CHECK=1 ctest --test-dir build --output-on-failure -j "$JOBS" \
  || fail checked "RKO_CHECK=1 ctest --test-dir build --output-on-failure"
RKO_HOME_SHARDS=4 ctest --test-dir build --output-on-failure -j "$JOBS" \
  || fail checked "RKO_HOME_SHARDS=4 ctest --test-dir build --output-on-failure"

echo "=== ci.sh stage 3/7: race detector (RKO_RACE=1) ==="
RKO_RACE=1 RKO_CHECK=1 ctest --test-dir build --output-on-failure -j "$JOBS" \
  || fail race "RKO_RACE=1 RKO_CHECK=1 ctest --test-dir build --output-on-failure"
RKO_CHECK=1 ./build/tools/rko_explore --race --seeds 10 \
  || fail race "RKO_CHECK=1 ./build/tools/rko_explore --race --seeds 10"
RKO_HOME_SHARDS=4 RKO_CHECK=1 ./build/tools/rko_explore --race --seeds 5 \
  || fail race "RKO_HOME_SHARDS=4 RKO_CHECK=1 ./build/tools/rko_explore --race --seeds 5"

echo "=== ci.sh stage 4/7: lint ==="
scripts/lint.sh || fail lint "scripts/lint.sh"

if [ "$QUICK" = 1 ]; then
  echo "=== ci.sh stage 5/7: sanitizers skipped (--quick) ==="
else
  echo "=== ci.sh stage 5/7: ASan+UBSan and TSan ==="
  scripts/check.sh || fail sanitizers "scripts/check.sh"
fi

echo "=== ci.sh stage 6/7: ${EXPLORE_SEEDS}-seed schedule exploration ==="
RKO_CHECK=1 ./build/tools/rko_explore --seeds "$EXPLORE_SEEDS" \
  || fail explore "RKO_CHECK=1 ./build/tools/rko_explore --seeds $EXPLORE_SEEDS"
RKO_HOME_SHARDS=4 RKO_CHECK=1 ./build/tools/rko_explore --seeds 25 \
  || fail explore "RKO_HOME_SHARDS=4 RKO_CHECK=1 ./build/tools/rko_explore --seeds 25"

echo "=== ci.sh stage 7/7: bench regression gate ==="
mkdir -p build/bench_out
./build/bench/bench_pagefault --quick \
    --json=build/bench_out/bench_pagefault_quick.json >/dev/null \
  || fail bench "./build/bench/bench_pagefault --quick --json=..."
scripts/bench_compare.py bench/baselines/bench_pagefault_quick.json \
    build/bench_out/bench_pagefault_quick.json \
  || fail bench "scripts/bench_compare.py bench/baselines/bench_pagefault_quick.json build/bench_out/bench_pagefault_quick.json"
./build/bench/bench_rebalance --quick \
    --json=build/bench_out/bench_rebalance_quick.json >/dev/null \
  || fail bench "./build/bench/bench_rebalance --quick --json=..."
scripts/bench_compare.py bench/baselines/bench_rebalance_quick.json \
    build/bench_out/bench_rebalance_quick.json \
    --key "burst.*.migrate_ns" --key "burst.*.auto_*_ns" \
    --key "degraded.*_round_ns" \
  || fail bench "scripts/bench_compare.py bench/baselines/bench_rebalance_quick.json build/bench_out/bench_rebalance_quick.json --key 'burst.*.migrate_ns' --key 'burst.*.auto_*_ns' --key 'degraded.*_round_ns'"
./build/bench/bench_futex --quick \
    --json=build/bench_out/bench_futex_quick.json >/dev/null \
  || fail bench "./build/bench/bench_futex --quick --json=..."
scripts/bench_compare.py bench/baselines/bench_futex_quick.json \
    build/bench_out/bench_futex_quick.json \
    --key "wake.*_ns" --key "mutex.*_ns_per_acq" \
  || fail bench "scripts/bench_compare.py bench/baselines/bench_futex_quick.json build/bench_out/bench_futex_quick.json --key 'wake.*_ns' --key 'mutex.*_ns_per_acq'"
./build/bench/bench_migration --quick \
    --json=build/bench_out/bench_migration_quick.json >/dev/null \
  || fail bench "./build/bench/bench_migration --quick --json=..."
scripts/bench_compare.py bench/baselines/bench_migration_quick.json \
    build/bench_out/bench_migration_quick.json \
    --key "workset.*_ns" \
  || fail bench "scripts/bench_compare.py bench/baselines/bench_migration_quick.json build/bench_out/bench_migration_quick.json --key 'workset.*_ns'"
./build/bench/bench_mmap_scale --quick \
    --json=build/bench_out/bench_mmap_scale_quick.json >/dev/null \
  || fail bench "./build/bench/bench_mmap_scale --quick --json=..."
scripts/bench_compare.py bench/baselines/bench_mmap_scale_quick.json \
    build/bench_out/bench_mmap_scale_quick.json \
    --key "multiproc.*.smp_lock_wait_ns" --key "multiproc.*.popcorn_lock_wait_ns" \
  || fail bench "scripts/bench_compare.py bench/baselines/bench_mmap_scale_quick.json build/bench_out/bench_mmap_scale_quick.json --key 'multiproc.*.smp_lock_wait_ns' --key 'multiproc.*.popcorn_lock_wait_ns'"

echo ""
echo "ci.sh: all stages green"
