// Statistical helpers for the sampled-monitoring suites.
//
// They run N trials over the fuzz_seed machinery, so a failing trial is
// replayable by index, and count the successes.
//
// Trial counts: suites pass a default sized for tier-time budgets; the
// FDEVOLVE_STATS_TRIALS environment variable overrides it (the nightly
// `verify.sh --stats` run raises it an order of magnitude). With the
// default base seed the whole suite is deterministic — same seeds, same
// verdict — so a green check stays green under ASan/UBSan reruns.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>

#include "support/fuzz_seed.h"

namespace fdevolve::testsupport {

/// Trials to run: `fallback` unless FDEVOLVE_STATS_TRIALS overrides it
/// with a positive integer.
inline int StatsTrials(int fallback) {
  const char* env = std::getenv("FDEVOLVE_STATS_TRIALS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return fallback;
  return static_cast<int>(v);
}

/// Runs `trial` once per derived seed and counts successes. Seeds are
/// DeriveSeed(first_index) .. DeriveSeed(first_index + trials - 1):
/// distinct suites pass distinct first_index bases so their trial streams
/// do not alias, and a single failing trial replays as
/// DeriveSeed(first_index + i).
inline int CountSuccesses(int trials, int first_index,
                          const std::function<bool(uint64_t seed)>& trial) {
  int successes = 0;
  for (int i = 0; i < trials; ++i) {
    if (trial(DeriveSeed(first_index + i))) ++successes;
  }
  return successes;
}

}  // namespace fdevolve::testsupport
