#!/usr/bin/env bash
# Tier-1 verification plus the correctness tooling passes: sanitizers
# over the concurrency-heavy flow/core tests, the project linter, and a
# format check for touched files.
#
#   tools/run_tier1.sh            # tier-1: configure, build, ctest
#   tools/run_tier1.sh --asan     # + ASan build of the tests labelled san
#   tools/run_tier1.sh --ubsan    # + UBSan build of the tests labelled san
#   tools/run_tier1.sh --tsan     # + TSan build of the tests labelled san
#   tools/run_tier1.sh --sanitize # all three sanitizers
#   tools/run_tier1.sh --faults   # + fail-points build, fault-injection suite
#   tools/run_tier1.sh --lint     # + pollint over the tree (implies --deps)
#   tools/run_tier1.sh --deps     # + pollint --project layer/cycle analysis
#   tools/run_tier1.sh --analyze  # + Clang -Wthread-safety build (needs clang++)
#   tools/run_tier1.sh --tidy     # + clang-tidy over src/ (needs clang-tidy)
#   tools/run_tier1.sh --format   # + clang-format check of touched files
#   tools/run_tier1.sh --obs      # + obs-labelled tests, overhead benches
#   tools/run_tier1.sh --soak     # + serving chaos soak under TSan and fail points
#   tools/run_tier1.sh --store    # + snapshot-store suites (ASan + fail points),
#                                 #   cold-start bench vs decode+Seal
#
# Flags combine; plain tier-1 runtime is unchanged when none are given.
# Passes needing Clang tooling (--analyze, --tidy, --format) skip with a
# notice when the binary is not installed, so the script stays green on
# GCC-only machines. Run from anywhere; paths resolve relative to the
# repo root.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Each pass builds and runs the tests carrying its ctest label (san,
# faults, store, soak, obs), declared where each test is registered in
# tests/CMakeLists.txt. Tests are registered at configure time, so a
# configured build directory can list a label's members before any of
# them is built.

# Prints the names of the tests labelled $2 in configured build dir $1.
labelled_tests() {
  (cd "$1" && ctest -N -L "^$2\$") | sed -n 's/^ *Test *#[0-9]*: *//p'
}

# Builds only the tests labelled $2 in configured build dir $1 (the
# sanitizer rebuilds are slow; the goal is the labelled paths, not the
# whole binary set), then runs them.
run_labelled() {
  local dir="$1" label="$2"
  local targets
  targets="$(labelled_tests "$dir" "$label")"
  if [ -z "$targets" ]; then
    echo "no tests labelled '$label' in $dir" >&2
    return 1
  fi
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$JOBS" --target $targets
  (cd "$dir" &&
     TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
     ctest --output-on-failure -j "$JOBS" -L "^$label\$")
}

run_asan=0
run_ubsan=0
run_tsan=0
run_faults=0
run_lint=0
run_deps=0
run_analyze=0
run_tidy=0
run_format=0
run_obs=0
run_soak=0
run_store=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --ubsan) run_ubsan=1 ;;
    --tsan) run_tsan=1 ;;
    --sanitize) run_asan=1; run_ubsan=1; run_tsan=1 ;;
    --faults) run_faults=1 ;;
    --lint) run_lint=1; run_deps=1 ;;  # Lint always checks the layer DAG too.
    --deps) run_deps=1 ;;
    --analyze) run_analyze=1 ;;
    --tidy) run_tidy=1 ;;
    --format) run_format=1 ;;
    --obs) run_obs=1 ;;
    --soak) run_soak=1 ;;
    --store) run_store=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: RelWithDebInfo build + full ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")

sanitizer_pass() {
  local preset="$1"
  echo "== sanitizer pass: $preset (tests labelled san) =="
  cmake --preset "$preset" -S "$ROOT"
  run_labelled "$ROOT/build-$preset" san
}

faults_pass() {
  echo "== faults pass: POL_FAILPOINTS build + fault-injection suite =="
  cmake --preset faults -S "$ROOT"
  run_labelled "$ROOT/build-faults" faults
}

lint_pass() {
  echo "== lint pass: pollint over src/ bench/ examples/ tools/ =="
  # One process for the whole tree; pollint batches every path itself.
  cmake --build "$ROOT/build" -j "$JOBS" --target pollint
  "$ROOT/build/tools/pollint" --root "$ROOT"
  echo "pollint: clean"
}

deps_pass() {
  echo "== deps pass: pollint --project layer DAG + include cycles =="
  cmake --build "$ROOT/build" -j "$JOBS" --target pollint
  "$ROOT/build/tools/pollint" --root "$ROOT" --project src tools
  echo "poldeps: clean"
}

analyze_pass() {
  echo "== analyze pass: Clang -Wthread-safety over the annotated tree =="
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; skipping analyze pass" >&2
    return 0
  fi
  cmake --preset analyze -S "$ROOT"
  cmake --build "$ROOT/build-analyze" -j "$JOBS"
  echo "analyze: clean"
}

tidy_pass() {
  echo "== tidy pass: clang-tidy (.clang-tidy: bugprone + concurrency) =="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping tidy pass" >&2
    return 0
  fi
  cmake -B "$ROOT/build" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  local files
  files="$(git -C "$ROOT" ls-files 'src/**/*.cc')"
  # shellcheck disable=SC2086
  (cd "$ROOT" && clang-tidy -p build --quiet $files)
  echo "tidy: clean"
}

obs_pass() {
  echo "== obs pass: observability tests, overhead benches =="
  run_labelled "$ROOT/build" obs
  cmake --build "$ROOT/build" -j "$JOBS" --target \
    bench_obs_overhead bench_serving_telemetry
  # Overhead bar: instrumentation on (idle recorder) within 2% of a
  # trace-recording run; the bench exits non-zero past the threshold.
  # Summaries land in build/bench-reports/, like the --store pass's.
  "$ROOT/build/bench/bench_obs_overhead" \
    --report-out="$ROOT/build/bench-reports/obs_overhead.json"
  # Two bars on the read path, 2% each: the ServingGuard (admission +
  # deadline, telemetry off) over raw snapshot lookups, and the
  # query-path telemetry (windowed histograms, query log, exporter)
  # over the bare guard, each the median ratio of paired slices. The
  # bench exits non-zero past either.
  "$ROOT/build/bench/bench_serving_telemetry" \
    --report-out="$ROOT/build/bench-reports/serving_telemetry.json"
  echo "obs: clean"
}

soak_pass() {
  echo "== soak pass: serving resilience under TSan and fail points =="
  local preset
  for preset in tsan faults; do
    cmake --preset "$preset" -S "$ROOT"
    run_labelled "$ROOT/build-$preset" soak
  done
  echo "soak: clean"
}

store_pass() {
  echo "== store pass: snapshot-store suites under ASan and fail points =="
  local preset
  for preset in asan faults; do
    cmake --preset "$preset" -S "$ROOT"
    run_labelled "$ROOT/build-$preset" store
  done
  # Cold-start bar: mmap OpenLatest must beat reading the generation,
  # Inventory::DeserializeFrom and Seal by >=10x; the bench exits non-zero below the threshold and writes the
  # machine-readable comparison to build/bench-reports/.
  cmake --build "$ROOT/build" -j "$JOBS" --target bench_snapshot_store
  "$ROOT/build/bench/bench_snapshot_store" \
    --report-out="$ROOT/build/bench-reports/snapshot_store.json"
  echo "store: clean"
}

format_pass() {
  echo "== format pass: clang-format on files touched vs origin =="
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "clang-format not installed; skipping format pass" >&2
    return 0
  fi
  # Only verify new/touched files — the tree is not wholesale-formatted.
  local base
  base="$(git -C "$ROOT" merge-base HEAD origin/main 2>/dev/null ||
          git -C "$ROOT" rev-parse 'HEAD~1' 2>/dev/null || echo '')"
  local files
  files="$( (git -C "$ROOT" diff --name-only ${base:+"$base"} --;
             git -C "$ROOT" diff --name-only --cached;
             git -C "$ROOT" ls-files --others --exclude-standard) |
           sort -u | grep -E '\.(h|cc|cpp)$' || true)"
  if [ -z "$files" ]; then
    echo "no touched C++ files; nothing to check"
    return 0
  fi
  # One clang-format invocation for the whole batch, not a per-file
  # loop; the tool prints each offending file itself.
  local existing=""
  for f in $files; do
    [ -f "$ROOT/$f" ] && existing="$existing $ROOT/$f"
  done
  if [ -z "$existing" ]; then
    echo "no touched C++ files; nothing to check"
    return 0
  fi
  # shellcheck disable=SC2086
  clang-format --dry-run -Werror $existing ||
    { echo "format pass failed" >&2; return 1; }
  echo "format: clean"
}

[ "$run_asan" -eq 1 ] && sanitizer_pass asan
[ "$run_ubsan" -eq 1 ] && sanitizer_pass ubsan
[ "$run_tsan" -eq 1 ] && sanitizer_pass tsan
[ "$run_faults" -eq 1 ] && faults_pass
[ "$run_lint" -eq 1 ] && lint_pass
[ "$run_deps" -eq 1 ] && deps_pass
[ "$run_analyze" -eq 1 ] && analyze_pass
[ "$run_tidy" -eq 1 ] && tidy_pass
[ "$run_format" -eq 1 ] && format_pass
[ "$run_obs" -eq 1 ] && obs_pass
[ "$run_soak" -eq 1 ] && soak_pass
[ "$run_store" -eq 1 ] && store_pass

echo "== run_tier1.sh: all requested passes green =="
