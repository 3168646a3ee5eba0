#!/usr/bin/env bash
# The pre-PR gate: everything that must be green before a PR goes up.
# Steps, in the order they actually run:
#
#   1. warning-clean build — -Wall -Wextra -Werror (GELC_WERROR is ON by
#                            default; this run would catch a local opt-out)
#   2. static analysis     — gelc_lint over src/tests/bench/examples/tools:
#                            the per-file rule catalogue plus the
#                            whole-program passes (include-graph layering
#                            and cycles, parallel-region race detector)
#   3. full ctest          — the tier-1 suite, including the gelc_lint /
#                            gelc_lint_wholeprogram gates, thread-variant
#                            (GELC_NUM_THREADS=1/4) runs, and the
#                            forced-scalar simd_test variant
#   4. two-plane gate      — (a) deterministic-plane snapshots must be
#                            byte-identical at GELC_NUM_THREADS=1 vs =4
#                            with GELC_TIMINGS=1 (gelc_stats
#                            --deterministic strips the timing plane and
#                            the parallel.* scheduling metrics, which
#                            describe the pool schedule and legitimately
#                            vary); (b) the gelc_stats --diff regression
#                            gate self-test: an injected counter increase
#                            must exit nonzero, equal snapshots zero;
#                            (c) gelc_stream --verify passes at
#                            GELC_NUM_THREADS=1 and =4 with byte-identical
#                            stdout
#   5. forced-scalar ctest — the whole suite again with GELC_SIMD=0
#                            exported, so every differential/bit-identity
#                            test also certifies the scalar fallback tier
#                            a binary lands on when cpuid lacks AVX2/FMA;
#                            then the tiers end to end: the stdout of
#                            every bench_e* (but bench_e12, whose last
#                            column is wall-clock time) and gelc_stream's
#                            final:/refine:/reads: lines must be
#                            byte-identical under GELC_SIMD=0 and the
#                            default tier
#   6. sanitizer ctest     — ASAN+UBSAN build, full suite again (this is
#                            the run that chases the SIMD kernels' raw
#                            pointer arithmetic, vector tails, and the
#                            aligned-allocator new/delete pairing in
#                            simd_test), then `gelc_stats train`,
#                            `gelc_stats stream` and `gelc_stream` with
#                            GELC_TIMINGS=1 GELC_TRACE=1 GELC_METRICS_OUT
#                            set, so the exit exporters, which run during
#                            static destruction, run under the sanitizers
#   7. TSAN ctest          — TSAN build of only the pool-worker-heavy
#                            binaries (obs_test, parallel_test, plan_test,
#                            fuzz_test, simd_test, stream_test): the obs
#                            metrics shards / trace ring buffers /
#                            latency-histogram shards and the fused
#                            plan-execution kernels are written from pool
#                            workers, so their merge-on-read and
#                            disjoint-row-shard paths get a dedicated
#                            dynamic race check on top of gelc_lint's
#                            static one (plan_test also carries the
#                            compile/fuzz differential suites; stream_test
#                            drives the tape SpMM and incremental-
#                            refinement signature passes from the pool)
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip steps 6 and 7 (the sanitizer rebuilds) for quick
#           iteration; the full run is still required before the PR.
#
# Every build runs at most $(nproc) compile jobs: an unbounded -j on the
# cold ASAN+UBSAN build starts more compilers than a 4-vCPU, 15 GB host
# holds in memory.
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== [1/7] build (with -Werror) =="
cmake -B build -S . -DGELC_WERROR=ON >/dev/null
cmake --build build -j"$(nproc)" >/dev/null

echo "== [2/7] gelc_lint =="
./build/tools/gelc_lint src tests bench examples tools

echo "== [3/7] ctest =="
(cd build && ctest --output-on-failure -j)

echo "== [4/7] two-plane gate (snapshot byte-identity + diff self-test) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
# (a) With the timing plane ON, the deterministic plane must still be
# byte-identical across thread counts.
GELC_TIMINGS=1 GELC_NUM_THREADS=1 \
  ./build/tools/gelc_stats --deterministic all >"$tmpdir/det_t1.json"
GELC_TIMINGS=1 GELC_NUM_THREADS=4 \
  ./build/tools/gelc_stats --deterministic all >"$tmpdir/det_t4.json"
cmp "$tmpdir/det_t1.json" "$tmpdir/det_t4.json" || {
  echo "check.sh: deterministic snapshots differ across thread counts" >&2
  exit 1
}
# (a') The streaming series specifically: the stream workload writes the
# stream.* / graph.csr_cache.* / graph.delta.compactions / wl.cr.inc.*
# metrics from replay batches, SpMM reads over the rebuilt snapshot, and
# incremental refinement — all of which promise thread-count invariance
# even with timings on. ("all" above already includes the stream
# workload; this isolates a streaming regression by name.)
GELC_TIMINGS=1 GELC_NUM_THREADS=1 \
  ./build/tools/gelc_stats --deterministic stream >"$tmpdir/stream_t1.json"
GELC_TIMINGS=1 GELC_NUM_THREADS=4 \
  ./build/tools/gelc_stats --deterministic stream >"$tmpdir/stream_t4.json"
cmp "$tmpdir/stream_t1.json" "$tmpdir/stream_t4.json" || {
  echo "check.sh: stream.* snapshots differ across thread counts" >&2
  exit 1
}
# (b) The regression gate must trip on an injected counter increase and
# stay quiet on identical snapshots.
printf '{"counters": {"x.calls": 100}, "gauges": {}, "histograms": {}}\n' \
  >"$tmpdir/diff_old.json"
printf '{"counters": {"x.calls": 150}, "gauges": {}, "histograms": {}}\n' \
  >"$tmpdir/diff_new.json"
if ./build/tools/gelc_stats --diff "$tmpdir/diff_old.json" \
    "$tmpdir/diff_new.json" --threshold 0.1 >/dev/null; then
  echo "check.sh: --diff failed to flag an injected counter regression" >&2
  exit 1
fi
./build/tools/gelc_stats --diff "$tmpdir/diff_old.json" \
  "$tmpdir/diff_old.json" >/dev/null || {
  echo "check.sh: --diff flagged equal snapshots" >&2
  exit 1
}
# (c) gelc_stream --verify: after every batch the mutated graph's CSR
# snapshot (all three operators), an SpMM read over it and the
# incremental refinement partition must equal a from-scratch rebuild's,
# and the run's stdout must not depend on the thread count.
GELC_NUM_THREADS=1 ./build/tools/gelc_stream --verify >"$tmpdir/verify_t1.txt"
GELC_NUM_THREADS=4 ./build/tools/gelc_stream --verify >"$tmpdir/verify_t4.txt"
cmp "$tmpdir/verify_t1.txt" "$tmpdir/verify_t4.txt" || {
  echo "check.sh: gelc_stream --verify output differs across thread counts" >&2
  exit 1
}

echo "== [5/7] ctest with GELC_SIMD=0 (forced scalar tier) + cross-tier cmp =="
(cd build && GELC_SIMD=0 ctest --output-on-failure -j)
tier_outputs() {
  for bin in build/bench/bench_e*; do
    case "$bin" in */bench_e12_*) continue ;; esac
    "$bin" 2>>"$tmpdir/tier.err"
  done
  ./build/tools/gelc_stream | grep -E '^(final|refine|reads):'
}
GELC_SIMD=0 tier_outputs >"$tmpdir/tier_scalar.txt"
tier_outputs >"$tmpdir/tier_default.txt"
cmp "$tmpdir/tier_scalar.txt" "$tmpdir/tier_default.txt" || {
  echo "check.sh: results differ between GELC_SIMD=0 and the default tier" >&2
  exit 1
}

if [[ "$fast" == "1" ]]; then
  echo "== [6/7] SKIPPED (--fast): ASAN/UBSAN ctest =="
  echo "== [7/7] SKIPPED (--fast): TSAN ctest =="
  exit 0
fi

echo "== [6/7] ASAN/UBSAN ctest =="
cmake -B build-ubsan -S . -DGELC_ENABLE_ASAN=ON -DGELC_ENABLE_UBSAN=ON \
  >/dev/null
cmake --build build-ubsan -j"$(nproc)" >/dev/null
(cd build-ubsan && ctest --output-on-failure -j)
# No unit test reaches process exit, where the exporters write the trace
# and metrics files and print the summaries; run each exporting tool with
# every plane on and show its stderr if it fails.
run_exporters() {
  GELC_TIMINGS=1 GELC_TRACE=1 GELC_TRACE_OUT="$tmpdir/trace.json" \
    GELC_METRICS_OUT="$tmpdir/metrics.json" "$@" \
    >/dev/null 2>"$tmpdir/exporters.err" || {
    cat "$tmpdir/exporters.err" >&2
    echo "check.sh: '$*' failed with the exporters on" >&2
    exit 1
  }
}
run_exporters ./build-ubsan/tools/gelc_stats train
run_exporters ./build-ubsan/tools/gelc_stats stream
run_exporters ./build-ubsan/tools/gelc_stream

echo "== [7/7] TSAN ctest =="
cmake -B build-tsan -S . -DGELC_ENABLE_TSAN=ON >/dev/null
cmake --build build-tsan -j"$(nproc)" --target obs_test parallel_test plan_test \
  fuzz_test simd_test stream_test >/dev/null
(cd build-tsan && ctest --output-on-failure \
  -R '^(obs_test|parallel_test|plan_test|fuzz_test|simd_test|stream_test)')

echo "check.sh: all gates green"
