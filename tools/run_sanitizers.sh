#!/usr/bin/env bash
# Run the tier-1 test suite under AddressSanitizer + UBSan, or the
# slices that cross threads under ThreadSanitizer.
#
#   tools/run_sanitizers.sh [--smoke-only] [ctest-args...]
#   tools/run_sanitizers.sh --tsan [ctest-args...]
#
# The default uses the `asan-ubsan` CMake preset (build-asan/ tree,
# RelWithDebInfo, -fsanitize=address,undefined with no recovery so any
# finding fails the run). --smoke-only stops after the `smoke` ctest
# label (the fast slice CI runs on every push); without it the full
# suite follows. Extra arguments are forwarded to ctest, e.g.
#   tools/run_sanitizers.sh -R FaultInjector
#
# --tsan uses the `tsan` preset (build-tsan/ tree, -fsanitize=thread),
# builds only the test binaries its labels run and the two service
# soaks, and fails on any report. It runs every test of the service and
# stream suites (suite_svc, suite_sim: the service's submit/cancel/drain
# and chaos retry/restart paths, its telemetry sampler, the stream
# engine) plus the thread-crossing slices of the others: the telemetry
# registry stress, the recorder, and the pooled gather spmv. Then it
# runs the soaks: bench_service_chaos (retries, restarts and cancels
# across 4 shards) and bench_telemetry (the service's window sampler at
# 1 ms windows from 2 shard threads), each from a temporary directory
# because each writes its BENCH_*.json to the working directory.
set -euo pipefail

mode=asan
if [[ "${1:-}" == "--smoke-only" ]]; then
  mode=smoke
  shift
elif [[ "${1:-}" == "--tsan" ]]; then
  mode=tsan
  shift
fi

cd "$(dirname "$0")/.."

if [[ "$mode" == "tsan" ]]; then
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" --target svo_linalg_tests \
    svo_trust_tests svo_svc_tests svo_obs_tests svo_sim_tests \
    bench_service_chaos bench_telemetry
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  ctest --preset tsan --output-on-failure \
    -L 'suite_svc|suite_sim|smoke_trust_scale|smoke_telemetry|smoke_observability' \
    "$@"
  bench_dir="$PWD/build-tsan/bench"
  soak_dir="$(mktemp -d)"
  trap 'rm -rf "$soak_dir"' EXIT
  for soak in bench_service_chaos bench_telemetry; do
    echo "== $soak under ThreadSanitizer"
    (cd "$soak_dir" && "$bench_dir/$soak")
  done
  exit 0
fi

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

# halt_on_error keeps UBSan findings fatal even where the default would
# merely print; detect_leaks stays on (default) to catch allocation bugs.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

# Smoke slice first (tests/CMakeLists.txt `smoke`, `smoke_stream`,
# `smoke_service`, `smoke_service_chaos`, `smoke_trust_scale`,
# `smoke_telemetry` and `smoke_scenario` labels): the warm-start,
# adversarial-trust, streaming-churn, formation-service and
# sparse-trust tests fail in seconds when the
# incremental solve path, the defenses-off equivalence, the churn
# schedule/quarantine invariants, the service's single-shard ≡
# direct-run contract, or the sparse-vs-dense bit-identity break,
# before the full suite spends its minutes. The service tests in
# particular put the sharded submit/cancel/drain paths under
# ASan/UBSan, where ticket lifetime bugs surface; the chaos slice adds
# the retry/restart/cancel-race paths, which cross threads mid-failure
# and are where use-after-free bugs in re-queued tickets would hide;
# the trust-scale slice indexes the length-ordered gather operator and,
# in its one 3000-GSP case, runs the pooled gather spmv, the one
# parallel code path of the sparse engine; the telemetry slice
# (DESIGN.md §4j) runs the tick-loop sampler, the concurrent registry
# stress and the windowed-SLO layer, where data races between
# submit/tick/health threads would surface; the scenario slice runs the
# Braun radix sort's buckets and the factory's eligible-job indices.
ctest --preset asan-ubsan -L 'smoke|smoke_stream|smoke_service|smoke_service_chaos|smoke_trust_scale|smoke_telemetry|smoke_scenario' --output-on-failure

if [[ "$mode" == "smoke" ]]; then
  exit 0
fi

ctest --preset asan-ubsan -j "$(nproc)" "$@"
