#!/usr/bin/env bash
# Tier-1 verification plus AddressSanitizer and ThreadSanitizer passes.
#
# Usage:
#   scripts/check.sh            # normal build + ctest, ASan, then TSan
#   scripts/check.sh --tsan-only
#
# The ASan pass rebuilds into build-asan/ with MIO_SANITIZE=address and
# runs the shutdown- and recovery-heavy tests (shared-pool shard
# teardown, WAL recovery in both modes) and the checksum-kernel tests
# (CRC32C's unaligned-word hardware path and its portable path, value
# log payload verification) under the memory checker.
# The TSan pass rebuilds into build-tsan/ with MIO_SANITIZE=thread and
# runs the concurrency-sensitive tests (writer-group handoff, lock-free
# readers, recovery) under the race detector. Set MIO_TSAN_TESTS to a
# ctest -R regex to widen/narrow the TSan selection.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
# buffer_cap_test is excluded by default: its "throttling engaged"
# assertion needs the writer to outrun background migration, which
# TSan's slowdown prevents (no race involved -- it runs in the
# normal-build suite).
TSAN_TESTS="${MIO_TSAN_TESTS:-group_commit_test|miodb_concurrency_test|multiwriter_test|miodb_recovery_test|failpoint_test|bloom_summary_test|fault_soak_test|sched_test|sharded_store_test|snapshot_iterator_test|value_log_test|instant_recovery_test|read_cache_test}"

if [ "${1:-}" != "--tsan-only" ]; then
    echo "=== tier-1: build + full test suite"
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    (cd build && ctest --output-on-failure -j "$JOBS")
    # Focused suites, one ctest label per subsystem (fault model,
    # scheduler, sharding, snapshots, value log, instant recovery,
    # memory governor + read cache).
    for label in fault sched shard snapshot vlog recovery cache; do
        echo "=== ctest -L $label"
        (cd build && ctest --output-on-failure -L "$label")
    done
    # Bench smokes keep each bench binary honest; micro_readpath runs
    # with --stats so its statsAdd-fed scheduler table is exercised.
    for smoke in "micro_readpath --smoke --stats" \
                 "micro_multiwriter --shard_sweep --smoke" \
                 "micro_scan --smoke" "micro_vlog --smoke" \
                 "micro_recovery --smoke" "micro_cache --smoke"; do
        echo "=== bench smoke: $smoke"
        # Unquoted on purpose: split into binary and flags.
        build/bench/$smoke
    done
    echo "=== debug-build leg (pin-leak + governor-ledger asserts are NDEBUG-gated)"
    cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
    cmake --build build-debug -j "$JOBS" \
          --target edge_case_test snapshot_iterator_test read_cache_test
    (cd build-debug &&
         ctest --output-on-failure \
               -R "edge_case_test|snapshot_iterator_test|read_cache_test")
    echo "=== ASan: rebuild with MIO_SANITIZE=address"
    cmake -B build-asan -S . -DMIO_SANITIZE=address >/dev/null
    ASAN_TESTS="sharded_store_test miodb_recovery_test instant_recovery_test coding_test value_log_test"
    # Unquoted on purpose: one --target word per test.
    cmake --build build-asan -j "$JOBS" --target $ASAN_TESTS
    # detect_leaks=0: LeakSanitizer reports a few KB of indirect leaks
    # from the PMTable <-> MergeOp ownership cycle (an emptied newtable
    # keeps its finished merge op, whose newt points back at it; see
    # BufferLevel::finishMerge). That cycle is a known open item; this
    # leg checks memory errors (use-after-free, overflow), not leaks.
    (cd build-asan &&
         ASAN_OPTIONS=detect_leaks=0 \
         ctest --output-on-failure \
               -R "^(${ASAN_TESTS// /|})\$")
    echo "=== no bare sleep-polling on background control paths"
    if grep -rn "sleep_for" src/sched src/miodb src/lsm src/shard; then
        echo "error: background paths must wait on the scheduler" >&2
        exit 1
    fi
fi

echo "=== TSan: rebuild with MIO_SANITIZE=thread"
cmake -B build-tsan -S . -DMIO_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
echo "=== TSan: running tests matching: $TSAN_TESTS"
(cd build-tsan &&
     TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
     ctest --output-on-failure -R "$TSAN_TESTS")
echo "all checks passed"
