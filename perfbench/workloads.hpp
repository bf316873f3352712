// The benchmark's workloads. Each builds its inputs from opts.seed,
// sets itself up, measures for opts.seconds, checks its outputs, and
// returns the end-to-end metrics (opts.trace false) or the per-layer
// metrics (opts.trace true).
#pragma once

#include "bench.hpp"
#include "pipeline.hpp"

namespace perfbench {

/// Requests every untraced phase times at least, so p90 has >= 10
/// samples beyond it.
inline constexpr std::size_t kMinTimedRequests = 100;
/// Set-up is timed in two windows, one before and one after the timed
/// phase, so setup_s (the median of every set-up in the run) samples the
/// machine at both ends of the run rather than at one instant. A window
/// repeats the set-up at least kSetupRepeats times and for at least
/// kSetupWindowMs.
inline constexpr int kSetupRepeats = 15;
inline constexpr double kSetupWindowMs = 250.0;

/// One set-up window: calls `set_up`, which does one whole set-up and
/// returns its time in ms, and appends each time to `setup_ms`.
template <class SetUp>
void setup_window(SetUp&& set_up, std::vector<double>& setup_ms) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kSetupRepeats || ms_between(start, Clock::now()) < kSetupWindowMs;
       ++rep) {
    setup_ms.push_back(set_up());
  }
}

/// Closed loop, one caller, no pool: offline_fullgrid, offline_cf_nlos.
[[nodiscard]] RunResult run_offline(const Options& opts, const WorkloadSpec& spec);

/// Open-loop Poisson arrivals into one LocalizationService: serve_open.
[[nodiscard]] RunResult run_serve_open(const Options& opts, const WorkloadSpec& spec);

}  // namespace perfbench
