// The golden regression corpus: ~10 fixed, fully deterministic
// estimation scenarios with their expected outputs committed under
// tests/proptest/golden/. test_golden.cpp recomputes each scenario and
// diffs against the committed record; scripts/regen_golden rebuilds the
// records via golden_tool when an intentional behavior change lands.
//
// Every scenario is a pure constant (fixed path geometry, fixed noise
// seed), so records are reproducible across machines and build modes up
// to the committed per-field tolerances.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "core/roarray.hpp"
#include "dsp/angles.hpp"
#include "dsp/grid.hpp"
#include "loc/localize.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

namespace roarray::golden {

using channel::Path;
using linalg::cxd;
using linalg::index_t;

/// One corpus entry: a burst specification plus the estimator config it
/// is evaluated with.
struct GoldenScenario {
  std::string name;
  std::vector<Path> paths;
  channel::BurstConfig burst;
  std::uint64_t noise_seed = 1;
  core::RoArrayConfig estimator;
  /// When set, `paths`/`burst` are unused: the scenario is a full
  /// adversarial measurement round through sim + per-AP estimation +
  /// the robust localize path (compute_fusion_golden).
  bool fusion_round = false;
};

/// One checked quantity: value plus the tolerance committed next to it
/// (|expected - actual| <= tol passes).
struct GoldenField {
  std::string key;
  double value = 0.0;
  double tol = 0.0;
};

struct GoldenRecord {
  std::string name;
  std::vector<GoldenField> fields;
};

inline Path make_path(double aoa_deg, double toa_ns, double amp,
                      double phase_rad, int reflections) {
  Path p;
  p.aoa_deg = aoa_deg;
  p.toa_s = toa_ns * 1e-9;
  p.gain = std::polar(amp, phase_rad);
  p.reflections = reflections;
  p.length_m = toa_ns * 1e-9 * dsp::kSpeedOfLight;
  return p;
}

/// The estimator configuration shared by the corpus: reduced grids (the
/// tier-1 budget) with the default FISTA solver capped at 150 iterations.
inline core::RoArrayConfig golden_estimator_config() {
  core::RoArrayConfig cfg;
  cfg.aoa_grid = dsp::Grid(0.0, 180.0, 61);
  cfg.toa_grid = dsp::Grid(0.0, 784e-9, 29);
  cfg.solver.max_iterations = 150;
  cfg.sanitize = false;
  return cfg;
}

/// The committed corpus. Append new scenarios at the end; renaming or
/// reordering existing ones orphans their golden files.
inline std::vector<GoldenScenario> golden_scenarios() {
  std::vector<GoldenScenario> out;
  auto add = [&out](std::string name, std::vector<Path> paths,
                    index_t packets, double snr_db, std::uint64_t seed) {
    GoldenScenario s;
    s.name = std::move(name);
    s.paths = std::move(paths);
    s.burst.num_packets = packets;
    s.burst.snr_db = snr_db;
    s.burst.max_detection_delay_s = 0.0;
    s.noise_seed = seed;
    s.estimator = golden_estimator_config();
    out.push_back(std::move(s));
  };

  add("single_path_clean", {make_path(72.0, 95.0, 1.0, 0.3, 0)}, 1, 35.0, 11);
  add("two_path_separated",
      {make_path(50.0, 60.0, 1.0, 0.0, 0), make_path(105.0, 210.0, 0.5, 1.1, 1)},
      2, 30.0, 12);
  add("two_path_close_aoa",
      {make_path(80.0, 70.0, 1.0, 0.4, 0), make_path(96.0, 240.0, 0.6, 2.0, 1)},
      2, 28.0, 13);
  add("three_path_rich",
      {make_path(40.0, 50.0, 1.0, 0.0, 0), make_path(95.0, 180.0, 0.5, 2.4, 1),
       make_path(140.0, 320.0, 0.35, 4.0, 2)},
      3, 30.0, 14);
  add("fusion_five_packets",
      {make_path(66.0, 85.0, 1.0, 0.9, 0), make_path(118.0, 260.0, 0.45, 3.1, 1)},
      5, 20.0, 15);
  add("low_snr_single", {make_path(57.0, 110.0, 1.0, 1.7, 0)}, 3, 8.0, 16);
  add("blocked_direct",
      {make_path(62.0, 65.0, 0.45, 0.2, 0), make_path(125.0, 190.0, 1.0, 2.8, 1)},
      2, 28.0, 17);
  add("edge_aoa_low", {make_path(12.0, 90.0, 1.0, 0.0, 0)}, 1, 30.0, 18);

  // Detection delays + sanitization on: exercises the detrend path.
  {
    GoldenScenario s;
    s.name = "detection_delay_sanitized";
    s.paths = {make_path(84.0, 75.0, 1.0, 0.5, 0),
               make_path(33.0, 230.0, 0.5, 1.9, 1)};
    s.burst.num_packets = 3;
    s.burst.snr_db = 25.0;
    s.burst.max_detection_delay_s = 80e-9;
    s.noise_seed = 19;
    s.estimator = golden_estimator_config();
    s.estimator.sanitize = true;
    out.push_back(std::move(s));
  }

  // Robust-fusion round: one adversarially blocked AP in the paper
  // testbed, run end-to-end (sim -> per-AP estimate -> robust localize).
  // Pins the fused fix and the per-AP inlier verdicts (DESIGN.md §13).
  {
    GoldenScenario s;
    s.name = "fusion_blocked_ap";
    s.noise_seed = 26;
    s.estimator = golden_estimator_config();
    s.fusion_round = true;
    out.push_back(std::move(s));
  }
  return out;
}

/// Runs one adversarial measurement round — fixed client, one blocked
/// AP whose direct path is erased so it reports a confidently wrong AoA
/// through its reflections — through the per-AP estimator and the
/// robust localize path. Per-AP picks are grid-pinned and the IRLS
/// polish is plain scalar arithmetic over them, so the fused position
/// carries a tight (millimeter) tolerance across build modes.
inline GoldenRecord compute_fusion_golden(const GoldenScenario& s) {
  std::mt19937_64 rng(s.noise_seed);
  const sim::Testbed tb = sim::make_paper_testbed();
  const channel::Vec2 client{11.0, 7.5};
  sim::ScenarioConfig cfg;
  cfg.num_packets = 3;
  cfg.los_block_probability = 0.0;  // the blocked AP is the only liar
  cfg.residual_phase_noise_rad = 0.0;
  cfg.max_detection_delay_s = 0.0;  // keep ToA absolute for the bias model
  cfg.adversarial.num_blocked_aps = 1;
  const auto round = sim::generate_measurements(tb, client, cfg, rng);

  std::vector<loc::ApObservation> obs;
  int blocked_ap = -1;   ///< index into round.
  int blocked_obs = -1;  ///< index into obs (per_ap alignment), -1 if dropped.
  for (std::size_t i = 0; i < round.size(); ++i) {
    const sim::ApMeasurement& m = round[i];
    if (m.adversarial_blocked) blocked_ap = static_cast<int>(i);
    const auto est = core::roarray_estimate(m.burst.csi, s.estimator,
                                            cfg.array,
                                            runtime::EstimateContext{});
    if (!est.valid) continue;
    if (m.adversarial_blocked) blocked_obs = static_cast<int>(obs.size());
    loc::ApObservation o;
    o.pose = m.pose;
    o.aoa_deg = est.direct.aoa_deg;
    o.weight = m.rssi_weight;
    o.toa_s = est.direct.toa_s;
    o.has_toa = true;
    obs.push_back(o);
  }

  loc::LocalizeConfig lcfg;
  lcfg.room = tb.room;
  const loc::LocalizeResult r = loc::localize(obs, lcfg);

  GoldenRecord rec;
  rec.name = s.name;
  auto field = [&rec](const char* key, double value, double tol) {
    rec.fields.push_back({key, value, tol});
  };
  field("valid", r.valid ? 1.0 : 0.0, 0.0);
  field("num_estimates", static_cast<double>(obs.size()), 0.0);
  field("blocked_ap", static_cast<double>(blocked_ap), 0.0);
  field("used_fusion", r.used_fusion ? 1.0 : 0.0, 0.0);
  field("used_ransac", r.fusion.used_ransac ? 1.0 : 0.0, 0.0);
  field("fallback_none",
        r.fusion.fallback == fusion::FusionFallback::kNone ? 1.0 : 0.0, 0.0);
  field("inliers", static_cast<double>(r.fusion.inliers), 0.0);
  const bool blocked_inlier = blocked_obs >= 0 && r.used_fusion &&
                              static_cast<std::size_t>(blocked_obs) <
                                  r.fusion.per_ap.size() &&
                              r.fusion.per_ap[static_cast<std::size_t>(
                                  blocked_obs)].inlier;
  field("blocked_ap_inlier", blocked_inlier ? 1.0 : 0.0, 0.0);
  field("pos_x_m", r.position.x, 1e-3);
  field("pos_y_m", r.position.y, 1e-3);
  field("err_m", channel::distance(r.position, client), 2e-3);
  return rec;
}

/// Runs the estimator on a scenario and summarizes the result as the
/// checked fields with their tolerances. Grid-pinned quantities (AoA /
/// ToA picks) carry tight tolerances; accumulated floating-point
/// summaries (spectrum mass) carry loose ones so records survive
/// compiler / sanitizer build differences.
inline GoldenRecord compute_golden(const GoldenScenario& s) {
  if (s.fusion_round) return compute_fusion_golden(s);
  std::mt19937_64 rng(s.noise_seed);
  const dsp::ArrayConfig array;
  const auto burst = channel::generate_burst(s.paths, array, s.burst, rng);
  const auto r = core::roarray_estimate(burst.csi, s.estimator, array,
                                        runtime::EstimateContext{});
  GoldenRecord rec;
  rec.name = s.name;
  auto field = [&rec](const char* key, double value, double tol) {
    rec.fields.push_back({key, value, tol});
  };
  field("valid", r.valid ? 1.0 : 0.0, 0.0);
  field("num_paths", static_cast<double>(r.paths.size()), 0.0);
  field("direct_aoa_deg", r.direct.aoa_deg, 1e-6);
  field("direct_toa_ns", r.direct.toa_s * 1e9, 1e-6);
  field("direct_power", r.direct.power, 1e-5);
  field("solver_iterations", r.solver_iterations, 3.0);
  double spectrum_sum = 0.0;
  const auto& sp = r.spectrum.values;
  for (index_t j = 0; j < sp.cols(); ++j) {
    for (index_t i = 0; i < sp.rows(); ++i) spectrum_sum += sp(i, j);
  }
  field("spectrum_sum", spectrum_sum, 1e-4 * std::max(1.0, spectrum_sum));
  const auto marginal = r.spectrum.aoa_marginal();
  const auto peaks = marginal.find_peaks(1);
  field("aoa_marginal_peak_deg", peaks.empty() ? -1.0 : peaks.front().aoa_deg,
        1e-6);

  // Coarse-to-fine pruned-support path: pins its direct pick and its
  // agreement with the full-grid solve above. The restricted solve is
  // numerically different (not bit-identical), so the picks carry the
  // same grid-pinned tolerances and the agreement field encodes the
  // documented within-2-grid-steps contract.
  auto cf_est = s.estimator;
  cf_est.coarse_fine.enabled = true;
  const auto cf = core::roarray_estimate(burst.csi, cf_est, array,
                                         runtime::EstimateContext{});
  field("cf_valid", cf.valid ? 1.0 : 0.0, 0.0);
  field("cf_direct_aoa_deg", cf.valid ? cf.direct.aoa_deg : -1.0, 1e-6);
  field("cf_direct_toa_ns", cf.valid ? cf.direct.toa_s * 1e9 : -1.0, 1e-6);
  const bool cf_agrees =
      r.valid == cf.valid &&
      (!r.valid ||
       (dsp::folded_aoa_separation_deg(cf.direct.aoa_deg, r.direct.aoa_deg) <=
            2.0 * s.estimator.aoa_grid.step() + 1e-12 &&
        std::abs(cf.direct.toa_s - r.direct.toa_s) <=
            2.0 * s.estimator.toa_grid.step() + 1e-15));
  field("cf_agrees_with_full", cf_agrees ? 1.0 : 0.0, 0.0);
  return rec;
}

}  // namespace roarray::golden
