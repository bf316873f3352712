#!/usr/bin/env bash
# CI entry point: builds and tests the Release configuration, then the
# AddressSanitizer+UBSan configuration (CMake presets "default" and
# "asan-ubsan", the latter with detect_leaks=1). The sanitizer leg
# reruns the whole ctest suite with a multi-threaded runtime
# (ROARRAY_THREADS) so data races and lifetime bugs in the pool/cache
# layer surface under instrumentation. The repo-invariant linter
# (tools/roarray_lint) runs inside every ctest pass (label: lint).
#
# Usage:
#   scripts/ci.sh [jobs]              full CI (Release + bench smoke + ASan)
#   scripts/ci.sh --soak [sec] [jobs] nightly property soak: reruns the
#                                     proptest suites with randomized base
#                                     seeds until the wall-clock budget
#                                     (default 600 s) runs out. A failure
#                                     prints the ROARRAY_PROPTEST_SEED line
#                                     that replays the exact counterexample.
#   scripts/ci.sh --coverage [jobs]   report-only gcov leg: builds with
#                                     --coverage, runs the suite, writes a
#                                     per-file line-coverage summary to
#                                     build-cov/coverage.txt. Never fails
#                                     the build.
#   scripts/ci.sh --tsan [jobs]       ThreadSanitizer leg: builds the
#                                     build-tsan preset and reruns the
#                                     suite with a multi-threaded runtime
#                                     so the contended cache/pool tests
#                                     run instrumented. Skips (exit 0)
#                                     when the toolchain cannot link
#                                     -fsanitize=thread; any TSan report
#                                     fails the leg.
#   scripts/ci.sh --backends [jobs]   forced-backend leg: reruns the
#                                     tier-1 suite plus the bench smoke
#                                     once per compute backend
#                                     (ROARRAY_BACKEND=scalar and
#                                     =simd). The simd pass is skipped
#                                     (exit 0) when dispatch reports the
#                                     binary has no SIMD table for this
#                                     machine — probe via
#                                     micro_benchmarks --backend-info.
#   scripts/ci.sh --serve-smoke [jobs] record a small CSI trace, replay
#                                     it through the localization
#                                     service via bench/serve_throughput,
#                                     and check BENCH_serve.json parses
#                                     with nonzero sustained throughput
#                                     in both serving modes. Also runs
#                                     inside the full leg.
#   scripts/ci.sh --perfbench-smoke   run the repo benchmark
#                                     (perfbench/run.py, seed 1, 2 s,
#                                     traced) once per workload declared
#                                     in BENCHMARK.json and fail unless
#                                     every result line reports
#                                     "correct": true — the benchmark's
#                                     own bit-identity checks gate the
#                                     change. Also runs inside the full
#                                     leg.
#   scripts/ci.sh --analyze [jobs]    semantic-analyzer leg: builds
#                                     tools/roarray_analyze, runs its
#                                     fixture self-test, then runs the
#                                     include-layering / lock-order /
#                                     hot-alloc rules over src/ against
#                                     the specs in tools/roarray_analyze/.
#                                     Never skips — the tool is std-only
#                                     and builds wherever the library
#                                     does; any finding exits nonzero.
#                                     Also runs inside the full leg,
#                                     ahead of the build.
#   scripts/ci.sh --tidy [jobs]       static-analysis leg: clang-tidy
#                                     over src/ with the committed
#                                     .clang-tidy (via the exported
#                                     compile_commands.json), plus a
#                                     clang build of the default preset
#                                     to enforce -Werror=thread-safety.
#                                     Each half skips (exit 0) when its
#                                     tool is not installed; findings
#                                     exit nonzero.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
SOAK_SECONDS=600
case "${1:-}" in
  --soak)
    MODE=soak
    shift
    if [[ "${1:-}" =~ ^[0-9]+$ ]]; then SOAK_SECONDS="$1"; shift; fi
    ;;
  --coverage)
    MODE=coverage
    shift
    ;;
  --tsan)
    MODE=tsan
    shift
    ;;
  --tidy)
    MODE=tidy
    shift
    ;;
  --analyze)
    MODE=analyze
    shift
    ;;
  --backends)
    MODE=backends
    shift
    ;;
  --serve-smoke)
    MODE=serve_smoke
    shift
    ;;
  --perfbench-smoke)
    MODE=perfbench_smoke
    shift
    ;;
esac
JOBS="${1:-$(nproc)}"

# Records a small trace, replays it through LocalizationService in both
# serving modes plus a --shards 1,4 ShardedService sweep
# (bench/serve_throughput does the record+replay), and verifies
# BENCH_serve.json is well-formed with nonzero sustained throughput and
# that the dispatchers=0 replay was bit-identical between shards=1 and
# shards=4 (the replay_shards_identical flag — a hard correctness gate,
# unlike the scaling numbers). Assumes the default preset is built.
serve_smoke() {
  echo "== Serve smoke (record/replay + shard sweep + BENCH_serve.json) =="
  ./build/bench/serve_throughput --clients 4 --requests 16 --iterations 20 \
    --shards 1,4 --replay-requests 8 \
    --record build/BENCH_serve_trace.bin \
    --json build/BENCH_serve.json
  test -s build/BENCH_serve.json
  grep -q '"replay_shards_identical": true' build/BENCH_serve.json || {
    echo "serve smoke FAILED: sharded replay not bit-identical" >&2
    exit 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("build/BENCH_serve.json") as f:
    report = json.load(f)
for mode in ("batch1", "dynamic"):
    rps = report[mode]["sustained_rps"]
    if not rps > 0.0:
        raise SystemExit(f"serve smoke FAILED: {mode}.sustained_rps = {rps}")
entries = report["shard_scaling"]
if [e["shards"] for e in entries] != [1, 4]:
    raise SystemExit("serve smoke FAILED: shard_scaling missing sweep entries")
for e in entries:
    if not e["sustained_rps"] > 0.0:
        raise SystemExit(
            f"serve smoke FAILED: shards={e['shards']} sustained_rps = "
            f"{e['sustained_rps']}")
print("serve smoke: JSON parses,",
      ", ".join(f"{m} {report[m]['sustained_rps']:.1f} req/s"
                for m in ("batch1", "dynamic")),
      "+ shards " + ", ".join(
          f"{e['shards']}x {e['sustained_rps']:.1f} req/s" for e in entries))
EOF
  else
    # Fallback without python3: a zero/absent rate never matches.
    grep -qE '"sustained_rps": *[0-9]*[1-9]' build/BENCH_serve.json || {
      echo "serve smoke FAILED: no nonzero sustained_rps in BENCH_serve.json" >&2
      exit 1
    }
    echo "serve smoke: BENCH_serve.json has nonzero sustained_rps (grep check)"
  fi
}

# Runs every BENCHMARK.json workload briefly through perfbench/run.py
# (which builds perfbench/ into .bench_build/) and requires
# "correct": true on each result line: the benchmark cross-checks its
# own results (e.g. the cached and uncached estimator on the same round
# must agree bit for bit) and reports any mismatch there.
perfbench_smoke() {
  echo "== Perfbench smoke (every workload, \"correct\": true) =="
  local workloads
  workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  for w in ${workloads}; do
    local result
    result=$(python3 perfbench/run.py --workload "${w}" --seed 1 --seconds 2 \
      --trace 1 | tail -n 1)
    if ! grep -q '"correct": true' <<<"${result}"; then
      echo "perfbench smoke FAILED: ${w}: ${result}" >&2
      exit 1
    fi
    echo "-- ${w}: correct"
  done
}

# Builds the source tools and runs the semantic analyzer (self-test
# first, then the committed src/ tree against the committed specs).
# Deliberately no graceful skip: the analyzer is std-only, so "cannot
# build the analyzer" is itself a CI failure.
analyze_gate() {
  echo "== Semantic analysis (tools/roarray_analyze) =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${JOBS}" \
    --target roarray_analyze roarray_lint
  ./build/tools/roarray_analyze --self-test
  ./build/tools/roarray_analyze --spec-dir tools/roarray_analyze src
}

if [[ "$MODE" == analyze ]]; then
  analyze_gate
  echo "Analyze leg OK"
  exit 0
fi

if [[ "$MODE" == soak ]]; then
  echo "== Property soak (${SOAK_SECONDS}s wall-clock budget) =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${JOBS}" --target test_proptest
  deadline=$((SECONDS + SOAK_SECONDS))
  rounds=0
  while ((SECONDS < deadline)); do
    remaining_ms=$(((deadline - SECONDS) * 1000))
    base_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
    rounds=$((rounds + 1))
    echo "-- soak round ${rounds}: ROARRAY_PROPTEST_BASE_SEED=${base_seed}"
    # More cases per property than tier-1; the per-process time budget
    # keeps the final round from overshooting the deadline.
    ROARRAY_PROPTEST_BASE_SEED="${base_seed}" \
    ROARRAY_PROPTEST_CASES=50 \
    ROARRAY_PROPTEST_TIME_MS="${remaining_ms}" \
      ./build/tests/test_proptest --gtest_brief=1
  done
  echo "Soak OK (${rounds} rounds)"
  exit 0
fi

if [[ "$MODE" == coverage ]]; then
  echo "== Coverage build (report-only) =="
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
    >/dev/null
  cmake --build build-cov -j "${JOBS}"
  (cd build-cov && ctest --output-on-failure -j "${JOBS}") || true

  echo "== Coverage report (build-cov/coverage.txt) =="
  {
    echo "# Line coverage by source file (gcov, report-only)"
    echo "# Generated by scripts/ci.sh --coverage"
    find build-cov -name '*.gcda' | while read -r gcda; do
      gcov -n -s "$PWD" -r "$gcda" 2>/dev/null
    done | awk '
      /^File / { file = $2; gsub(/'\''/, "", file) }
      /^Lines executed:/ {
        split($0, a, ":"); split(a[2], b, "% of ")
        if (file != "" && file ~ /^(src|bench)\//) {
          pct[file] = b[1]; tot[file] = b[2]
        }
        file = ""
      }
      END {
        for (f in pct) printf "%7.2f%%  %6d lines  %s\n", pct[f], tot[f], f
      }' | sort -k3
  } > build-cov/coverage.txt || true
  wc -l build-cov/coverage.txt
  tail -n +3 build-cov/coverage.txt | head -40
  echo "Coverage leg done (report-only)"
  exit 0
fi

if [[ "$MODE" == tsan ]]; then
  echo "== ThreadSanitizer leg =="
  # Graceful skip when the toolchain cannot produce TSan binaries
  # (mirrors the tool-missing skips of --tidy): probe a trivial link.
  if ! echo 'int main(){}' | "${CXX:-c++}" -fsanitize=thread -x c++ - \
      -o /tmp/roarray_tsan_probe.$$ 2>/dev/null; then
    echo "TSan leg SKIPPED: ${CXX:-c++} cannot link -fsanitize=thread"
    exit 0
  fi
  rm -f /tmp/roarray_tsan_probe.$$
  cmake --preset build-tsan
  cmake --build --preset build-tsan -j "${JOBS}"
  # Multi-threaded runtime so the pool/cache actually contend; the test
  # preset sets halt_on_error=1, so any data-race report fails the leg.
  ROARRAY_THREADS=4 ctest --preset build-tsan -j "${JOBS}"
  echo "TSan leg OK"
  exit 0
fi

if [[ "$MODE" == tidy ]]; then
  echo "== Static-analysis leg (clang-tidy + clang thread-safety) =="
  ran_anything=0

  # Half 1: clang thread-safety analysis. The root CMakeLists adds
  # -Wthread-safety -Werror=thread-safety automatically under clang, so
  # a clang build of the default tree IS the gate.
  if command -v clang++ >/dev/null 2>&1; then
    ran_anything=1
    echo "-- clang -Werror=thread-safety build (build-clang-tsa)"
    cmake -B build-clang-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_BUILD_TYPE=Release
    cmake --build build-clang-tsa -j "${JOBS}"
    echo "-- thread-safety analysis clean"
  else
    echo "-- thread-safety half SKIPPED: clang++ not installed"
  fi

  # Half 2: clang-tidy over every library TU with the committed profile.
  if command -v clang-tidy >/dev/null 2>&1; then
    ran_anything=1
    echo "-- clang-tidy over src/ (profile: .clang-tidy)"
    cmake --preset default >/dev/null   # exports compile_commands.json
    # xargs exits nonzero if any clang-tidy invocation reported findings
    # (WarningsAsErrors: '*' in .clang-tidy makes findings fatal).
    find src -name '*.cpp' -print0 |
      xargs -0 -P "${JOBS}" -n 4 clang-tidy -p build --quiet
    echo "-- clang-tidy clean"
  else
    echo "-- clang-tidy half SKIPPED: clang-tidy not installed"
  fi

  if [[ "$ran_anything" == 0 ]]; then
    echo "Static-analysis leg SKIPPED entirely (no clang toolchain)"
  else
    echo "Static-analysis leg OK"
  fi
  exit 0
fi

if [[ "$MODE" == backends ]]; then
  echo "== Forced-backend leg (ROARRAY_BACKEND=scalar, =simd) =="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${JOBS}"
  for be in scalar simd; do
    info=$(ROARRAY_BACKEND="$be" ./build/bench/micro_benchmarks --backend-info)
    echo "-- ROARRAY_BACKEND=${be}: ${info}"
    if [[ "$be" == simd && "$info" != *"selected=simd"* ]]; then
      # Graceful fallback (no SIMD TU in this build, or the CPU lacks
      # the vector units): nothing new to test under this forcing.
      echo "-- simd pass SKIPPED: dispatch fell back to scalar"
      continue
    fi
    ROARRAY_BACKEND="$be" ctest --preset default -j "${JOBS}"
    ROARRAY_BACKEND="$be" ./build/bench/micro_benchmarks --coarse-fine \
      --json "build/BENCH_micro_${be}.json"
    test -s "build/BENCH_micro_${be}.json"
    if grep -nE '"[a-z0-9_]*(identical|matches)[a-z0-9_]*": *false' \
        "build/BENCH_micro_${be}.json"; then
      echo "backends leg FAILED: identity flag false under ROARRAY_BACKEND=${be}" >&2
      exit 1
    fi
  done
  echo "Backends leg OK"
  exit 0
fi

if [[ "$MODE" == perfbench_smoke ]]; then
  perfbench_smoke
  echo "Perfbench smoke OK"
  exit 0
fi

if [[ "$MODE" == serve_smoke ]]; then
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${JOBS}" --target serve_throughput
  serve_smoke
  echo "Serve smoke OK"
  exit 0
fi

analyze_gate

echo "== Release build =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"

echo "== Release tests =="
ctest --preset default -j "${JOBS}"

echo "== Bench smoke (BENCH_micro.json identity flags) =="
# The JSON report checks every kernel fast path against its reference
# inline (blocked vs naive GEMM, batched vs per-column Kronecker apply,
# FISTA apply-reuse vs direct, cached vs per-call, parallel vs serial,
# and — with --coarse-fine — the coarse-to-fine factored solve vs the
# full-grid reference) and records the verdicts as *_identical_* /
# *_matches_* flags. Any false flag is a correctness regression, not a
# perf number — fail hard.
./build/bench/micro_benchmarks --coarse-fine --json build/BENCH_micro.json
test -s build/BENCH_micro.json  # the binary exits non-zero on write failure
if grep -nE '"[a-z0-9_]*(identical|matches)[a-z0-9_]*": *false' \
    build/BENCH_micro.json; then
  echo "bench smoke FAILED: an identity flag in BENCH_micro.json is false" >&2
  exit 1
fi

echo "== Bench smoke (robust-vs-naive fusion sweep) =="
# Small-scale run of the adversarial fusion sweep (bench/fig4_fusion):
# the robust path must not lose to the naive weighted grid argmin on
# clean data — on all-inlier rounds IRLS is bit-compatible with the
# weighted solve, so a false flag here is a correctness regression in
# the fusion layer, not a tuning issue. The blocked-AP improvement
# ratio is scale-sensitive and is gated on the committed full-scale
# BENCH_fusion.json instead.
./build/bench/fig4_fusion --locations 8 --json build/BENCH_fusion.json
test -s build/BENCH_fusion.json
if ! grep -q '"robust_no_worse_than_naive_clean": true' \
    build/BENCH_fusion.json; then
  echo "bench smoke FAILED: robust fusion lost to naive on clean data" >&2
  exit 1
fi

serve_smoke

perfbench_smoke

echo "== ASan+UBSan build =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"

echo "== ASan+UBSan tests (ROARRAY_THREADS=4) =="
ROARRAY_THREADS=4 ctest --preset asan-ubsan -j "${JOBS}"

echo "CI OK"
