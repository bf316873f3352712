// Shared scaffolding for the figure-reproduction benches: command-line
// options, the three-system evaluation loop, and result collection.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/roarray.hpp"
#include "eval/report.hpp"
#include "loc/localize.hpp"
#include "music/arraytrack.hpp"
#include "music/spotfi.hpp"
#include "runtime/context.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

namespace roarray::bench {

using linalg::index_t;

/// Options shared by the figure benches. Defaults are sized so each
/// bench finishes in a couple of minutes on one core; pass --locations
/// 100 (or more) for paper-scale runs.
struct BenchOptions {
  index_t locations = 15;   ///< client test locations per SNR band.
  index_t packets = 15;     ///< packets per measurement (paper: 15).
  std::uint64_t seed = 7;   ///< RNG seed (deterministic runs).
  /// Run the baselines in their strict historical configuration (SpotFi
  /// with fixed K = 5, no candidate gating) instead of the strengthened
  /// defaults this library ships.
  bool strict_baselines = false;
  /// Worker threads for the trial loops; 0 = auto (ROARRAY_THREADS env
  /// var, else hardware concurrency). Results are identical at any
  /// thread count: every location draws from its own seeded RNG stream
  /// and per-location results are merged in location order.
  int threads = 0;
  /// Route the ROArray solves through the coarse-to-fine factored
  /// dictionary (RoArrayConfig::coarse_fine). Same grids, pruned
  /// support: results agree with the full solve to grid resolution but
  /// are not bit-identical to it.
  bool coarse_fine = false;
};

/// Parses --locations N / --packets P / --seed S / --strict-baselines /
/// --threads T / --coarse-fine; exits on bad input.
[[nodiscard]] BenchOptions parse_options(int argc, char** argv);

/// Thread pool + steering-operator cache shared across a bench run.
/// Construct one per process and pass it to run_band / the per-location
/// loops so every ROArray solve reuses the same cached operator.
///
/// Concurrency contract (DESIGN.md §8): both members synchronize
/// internally (thread-safety-annotated mutexes); everything else a
/// bench shares across locations is slot-per-index writes merged on the
/// submitting thread in index order — keep it that way, mutex-free.
struct BenchRuntime {
  runtime::OperatorCache cache;
  runtime::ThreadPool pool;

  explicit BenchRuntime(const BenchOptions& opts)
      : pool(opts.threads > 0 ? opts.threads
                              : runtime::ThreadPool::default_thread_count()) {}

  [[nodiscard]] runtime::EstimateContext context() { return {&cache, &pool}; }
};

/// Deterministic per-trial RNG stream: splitmix64 of (seed, index).
/// Gives every location an independent stream so trials can run in any
/// order (or concurrently) without changing the drawn values.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t index);

/// Which estimator to run.
enum class System { kRoArray, kSpotfi, kArrayTrack };

[[nodiscard]] const char* system_name(System s);

/// Per-system error samples accumulated over locations.
struct SystemErrors {
  std::vector<double> localization_m;  ///< one per location.
  std::vector<double> aoa_deg;         ///< one per (location, AP).
};

/// Estimates the direct-path AoA with the given system. Returns false
/// if the estimator produced nothing usable. `strict` selects the
/// historical baseline configuration (see BenchOptions). `ctx` lets the
/// ROArray path reuse a cached steering operator; `coarse_fine` routes
/// it through the pruned factored-dictionary solve. A non-null
/// `toa_s_out` receives the system's direct-path ToA pick when it has
/// one (ROArray, SpotFi) and is left untouched otherwise — initialize
/// it to NaN to detect whether a ToA was produced.
[[nodiscard]] bool estimate_direct_aoa(System system,
                                       const sim::ApMeasurement& m,
                                       const dsp::ArrayConfig& array_cfg,
                                       double& aoa_deg, bool strict = false,
                                       const runtime::EstimateContext& ctx = {},
                                       bool coarse_fine = false,
                                       double* toa_s_out = nullptr);

/// Runs `systems` over every location at the given SNR band and collects
/// localization + AoA errors. Each location uses its own deterministic
/// RNG stream (trial_seed of the band seed and location index), and
/// locations fan out over rt's pool when one is given — the merged
/// output is identical at any thread count.
[[nodiscard]] std::vector<SystemErrors> run_band(
    const sim::Testbed& testbed, const std::vector<sim::Vec2>& clients,
    sim::SnrBand band, const std::vector<System>& systems,
    const BenchOptions& opts, BenchRuntime* rt = nullptr);

/// The three-band fractions used by every CDF table.
[[nodiscard]] std::vector<double> cdf_fractions();

/// Emits the `"machine"` provenance object shared by every bench JSON
/// artifact: the hardware thread count, the pool width the run actually
/// used (`pool_threads` — the effective value, after any max()/env
/// adjustment, not the requested one) together with a
/// `pool_oversubscribed` caveat flag (true when pool_threads >
/// hardware_threads, i.e. the latency/throughput numbers were taken
/// with more pool lanes than cores and parallel speedups are not
/// trustworthy), and the compute-backend dispatch decision (requested
/// vs selected kernel table, whether a SIMD TU was compiled in and
/// whether the CPU supports it, detected CPU features). Keeping these
/// next to the timings makes BENCH_* trajectories comparable across
/// machines. Call between key/value pairs of an open object.
void emit_machine_provenance(eval::JsonWriter& w, int pool_threads);

/// Writes a JSON artifact to `path`: opens the file, hands a JsonWriter
/// to `body`, then verifies the stream flushed and the writer emitted a
/// complete document. Returns false with a stderr diagnostic on any
/// failure — callers must exit nonzero so CI smoke legs never mistake a
/// missing or half-written report for a result.
[[nodiscard]] bool write_json_report(
    const std::string& path,
    const std::function<void(eval::JsonWriter&)>& body);

}  // namespace roarray::bench
