// Workload inputs and the request pipeline as the benchmark drives it:
// seeded client rounds on the paper testbed, and the per-request
// assembly the service performs (estimates -> observations -> localize).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "channel/geometry.hpp"
#include "core/roarray.hpp"
#include "loc/localize.hpp"
#include "runtime/operator_cache.hpp"
#include "serve/service.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using roarray::linalg::index_t;

/// Fixed parameters of one workload. Everything else comes from --seed.
struct WorkloadSpec {
  std::string name;
  bool serve = false;           ///< open-loop through LocalizationService.
  bool mixed_bands = false;     ///< per-request seeded SNR band, else medium.
  index_t packets = 15;         ///< packets per AP burst.
  int blocked_aps = 0;          ///< sim::AdversarialConfig::num_blocked_aps.
  bool coarse_fine = false;
  int min_aps = 6;              ///< APs heard per request: seeded in
  int max_aps = 6;              ///< [min_aps, max_aps].
  index_t distinct = 64;        ///< distinct client rounds, cycled.
  index_t warmup = 2;           ///< untimed rounds before timing.
  index_t traced_min = 8;       ///< traced rounds every traced run covers.
  double rate_rps = 0.0;        ///< serve: offered Poisson rate.
};

/// Returns the spec for `name`, or nullptr for an unknown workload.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// One client's measurement round with its ground truth.
struct Round {
  std::uint64_t client_id = 0;
  roarray::channel::Vec2 client;
  std::vector<std::uint32_t> ap_ids;
  std::vector<roarray::core::CsiBurst> bursts;  ///< parallel to ap_ids.
  std::vector<double> snr_db;                   ///< parallel to ap_ids.
  std::vector<double> true_aoa_deg;             ///< parallel to ap_ids.
};

/// The configuration every request of a workload shares.
struct PipelineConfig {
  roarray::core::RoArrayConfig estimator;
  roarray::dsp::ArrayConfig array;
  roarray::loc::LocalizeConfig localize;
  std::vector<roarray::channel::ApPose> ap_poses;
};

[[nodiscard]] PipelineConfig make_pipeline_config(const WorkloadSpec& spec);

/// Cold OperatorCache fill: the full-grid operator, plus the coarse one
/// when the coarse-to-fine path is on.
void fill_cache(roarray::runtime::OperatorCache& cache, const PipelineConfig& cfg);

/// Generates spec.distinct rounds from `seed`. Clients are stratified
/// (one per cell of a grid over the usable floor, jittered inside its
/// cell) so the error distribution is steady across seeds.
[[nodiscard]] std::vector<Round> make_rounds(const WorkloadSpec& spec,
                                             std::uint64_t seed);

/// Records the rounds as a CSI trace (client id = round index).
[[nodiscard]] std::string encode_trace(const std::vector<Round>& rounds,
                                       const roarray::dsp::ArrayConfig& array);

/// Builds the response the service would deliver for one request from
/// its per-AP estimates: RSSI weights, observations of the valid APs,
/// loc::localize, and the per-AP fusion diagnostics. `localize_ms`
/// receives the localize call's duration.
[[nodiscard]] roarray::serve::Response assemble_response(
    const Round& round, const std::vector<roarray::core::RoArrayResult>& est,
    const PipelineConfig& cfg, const roarray::runtime::ThreadPool* pool,
    double* localize_ms = nullptr);

/// Bit-pattern fingerprint of a response's status, position, cost,
/// fusion summary and every per-AP estimate (ids and ticks excluded).
[[nodiscard]] std::uint64_t fingerprint(const roarray::serve::Response& r);

/// The RSSI fusion weight of every AP burst (channel::burst_rssi_weight).
[[nodiscard]] std::vector<double> rssi_weights(const Round& round);

/// Observations of the valid estimates, in AP order, as the service
/// builds them.
[[nodiscard]] std::vector<roarray::loc::ApObservation> observations_of(
    const Round& round, const std::vector<roarray::core::RoArrayResult>& est,
    const std::vector<double>& weights, const PipelineConfig& cfg);

}  // namespace perfbench
