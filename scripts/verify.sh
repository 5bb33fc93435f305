#!/usr/bin/env bash
# Tier-1 verify in one command: configure, build everything (tests, benches,
# examples) with warnings-as-errors, and run the full CTest suite.
#
# Usage:
#   scripts/verify.sh                 # full build + full test suite
#   scripts/verify.sh --tier1         # run only the tier1-labeled suites
#   scripts/verify.sh --sanitize      # ASan+UBSan build (own build dir)
#   scripts/verify.sh --tsan          # ThreadSanitizer build (build-tsan/)
#   scripts/verify.sh --seed 42       # base seed for the fuzz suites
#   scripts/verify.sh --stats         # statistical suites at high trial
#                                     # counts (nightly-CI depth; respects
#                                     # a pre-set FDEVOLVE_STATS_TRIALS)
#
# Extra args after `--` are passed straight to ctest, e.g.:
#   scripts/verify.sh -- -L fuzz --output-on-failure
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=(-DFDEVOLVE_WERROR=ON)
CTEST_ARGS=()
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --tier1)
      CTEST_ARGS+=(-L tier1)
      shift
      ;;
    --sanitize)
      BUILD_DIR=build-asan
      CMAKE_ARGS+=(-DFDEVOLVE_SANITIZE=address,undefined)
      shift
      ;;
    --tsan)
      BUILD_DIR=build-tsan
      CMAKE_ARGS+=(-DFDEVOLVE_SANITIZE=thread)
      shift
      ;;
    --stats)
      # Run only the statistical-verification suites, at nightly depth:
      # 2000 trials per scenario instead of the in-tree default of 60.
      # Tier-1 wall clock is untouched — this is a separate opt-in run.
      export FDEVOLVE_STATS_TRIALS="${FDEVOLVE_STATS_TRIALS:-2000}"
      CTEST_ARGS+=(-R "SampledStats")
      shift
      ;;
    --seed)
      if [[ $# -lt 2 ]]; then
        echo "--seed requires a value" >&2
        exit 2
      fi
      export FDEVOLVE_SEED="$2"
      shift 2
      ;;
    --)
      shift
      CTEST_ARGS+=("$@")
      break
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
done

GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi

# ${arr[@]+...} guards: plain "${arr[@]}" on an empty array trips `set -u`
# on bash < 4.4 (e.g. the stock macOS /bin/bash 3.2).
cmake -B "$BUILD_DIR" -S . \
  ${GENERATOR_ARGS[@]+"${GENERATOR_ARGS[@]}"} \
  ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR" -j "$JOBS"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$JOBS" ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
