// Integration tests: full pipeline from simulated testbed to location
// fix, for all three systems (ROArray, SpotFi, ArrayTrack).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/roarray.hpp"
#include "loc/localize.hpp"
#include "music/arraytrack.hpp"
#include "music/spotfi.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/scenario.hpp"
#include "../test_util.hpp"

namespace roarray {
namespace {

namespace rt = roarray::testing;

loc::LocalizeConfig loc_config(const sim::Testbed& tb) {
  loc::LocalizeConfig cfg;
  cfg.room = tb.room;
  cfg.grid_step_m = 0.1;
  return cfg;
}

/// Shared estimation runtime for the whole test binary: one operator
/// cache and one small pool. Results are identical to the serial
/// per-call path (see tests/runtime), so the assertions below are
/// unchanged from when this helper looped over APs itself.
runtime::EstimateContext shared_context() {
  static runtime::OperatorCache cache;
  static runtime::ThreadPool pool(2);
  return {&cache, &pool};
}

/// Runs ROArray on every AP's burst (batched over the shared pool) and
/// triangulates.
loc::LocalizeResult localize_roarray(const sim::Testbed& tb,
                                     const std::vector<sim::ApMeasurement>& ms,
                                     const core::RoArrayConfig& rcfg,
                                     const dsp::ArrayConfig& arr) {
  const runtime::EstimateContext ctx = shared_context();
  std::vector<core::CsiBurst> bursts;
  bursts.reserve(ms.size());
  for (const auto& m : ms) bursts.push_back(m.burst.csi);
  const auto results = core::roarray_estimate_batch(bursts, rcfg, arr, ctx);
  std::vector<loc::ApObservation> obs;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (!results[i].valid) continue;
    obs.push_back({ms[i].pose, results[i].direct.aoa_deg, ms[i].rssi_weight});
  }
  return loc::localize(obs, loc_config(tb), ctx.pool);
}

TEST(EndToEnd, RoArrayLocalizesAtHighSnr) {
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(501);
  const sim::Vec2 client{11.0, 7.5};
  sim::ScenarioConfig cfg;
  cfg.num_packets = 5;
  cfg.snr_band = sim::SnrBand::kHigh;
  const auto ms = sim::generate_measurements(tb, client, cfg, rng);
  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 300;
  const loc::LocalizeResult fix = localize_roarray(tb, ms, rcfg, cfg.array);
  ASSERT_TRUE(fix.valid);
  EXPECT_LT(channel::distance(fix.position, client), 1.5);
}

TEST(EndToEnd, RoArrayStillLocalizesAtLowSnr) {
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(502);
  const sim::Vec2 client{6.0, 5.0};
  sim::ScenarioConfig cfg;
  cfg.num_packets = 15;
  cfg.snr_band = sim::SnrBand::kLow;
  const auto ms = sim::generate_measurements(tb, client, cfg, rng);
  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 300;
  const loc::LocalizeResult fix = localize_roarray(tb, ms, rcfg, cfg.array);
  ASSERT_TRUE(fix.valid);
  // The paper reports 0.91 m median at low SNR; allow generous slack for
  // a single location / seed.
  EXPECT_LT(channel::distance(fix.position, client), 3.0);
}

TEST(EndToEnd, SpotfiLocalizesAtHighSnr) {
  // SpotFi's error distribution has a heavy tail (Fig. 6a: p90 > 2.5 m),
  // so assert on the median over a few locations instead of one draw.
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(503);
  sim::ScenarioConfig cfg = sim::scenario_for_band(sim::SnrBand::kHigh);
  cfg.num_packets = 15;
  const std::vector<sim::Vec2> clients = {{9.5, 4.0}, {5.0, 7.5}, {13.0, 6.0}};
  std::vector<double> errors;
  for (const sim::Vec2& client : clients) {
    const auto ms = sim::generate_measurements(tb, client, cfg, rng);
    std::vector<loc::ApObservation> obs;
    for (const auto& m : ms) {
      const music::SpotfiResult r =
          music::spotfi_estimate(m.burst.csi, music::SpotfiConfig{}, cfg.array);
      if (!r.valid) continue;
      obs.push_back({m.pose, r.direct_aoa_deg, m.rssi_weight});
    }
    const loc::LocalizeResult fix = loc::localize(obs, loc_config(tb));
    ASSERT_TRUE(fix.valid);
    errors.push_back(channel::distance(fix.position, client));
  }
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[1], 3.0);  // median of three
}

TEST(EndToEnd, ArrayTrackLocalizesCoarselyAtHighSnr) {
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(504);
  const sim::Vec2 client{8.0, 8.0};
  sim::ScenarioConfig cfg;
  cfg.num_packets = 15;
  cfg.snr_band = sim::SnrBand::kHigh;
  const auto ms = sim::generate_measurements(tb, client, cfg, rng);
  std::vector<loc::ApObservation> obs;
  for (const auto& m : ms) {
    const music::ArrayTrackResult r =
        music::arraytrack_estimate(m.burst.csi, cfg.array);
    if (!r.valid) continue;
    obs.push_back({m.pose, r.direct_aoa_deg, m.rssi_weight});
  }
  const loc::LocalizeResult fix = loc::localize(obs, loc_config(tb));
  ASSERT_TRUE(fix.valid);
  // ArrayTrack's aperture is tiny; the paper reports 2.3 m median even
  // at high SNR. Just require a sane fix.
  EXPECT_LT(channel::distance(fix.position, client), 6.0);
}

TEST(EndToEnd, GroundTruthAnglesGiveDecimeterFix) {
  // Upper-bound sanity: with perfect AoAs the localization grid search
  // is the only error source.
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(505);
  const sim::Vec2 client{13.0, 9.0};
  sim::ScenarioConfig cfg;
  const auto ms = sim::generate_measurements(tb, client, cfg, rng);
  std::vector<loc::ApObservation> obs;
  for (const auto& m : ms) {
    obs.push_back({m.pose, m.true_direct_aoa_deg, m.rssi_weight});
  }
  const loc::LocalizeResult fix = loc::localize(obs, loc_config(tb));
  ASSERT_TRUE(fix.valid);
  EXPECT_LT(channel::distance(fix.position, client), 0.15);
}

TEST(EndToEnd, SingleMeasurementPerApStillWorks) {
  // ROArray's single-packet claim, end to end.
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(506);
  const sim::Vec2 client{10.0, 6.0};
  sim::ScenarioConfig cfg;
  cfg.num_packets = 1;
  cfg.snr_band = sim::SnrBand::kHigh;
  const auto ms = sim::generate_measurements(tb, client, cfg, rng);
  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 300;
  const loc::LocalizeResult fix = localize_roarray(tb, ms, rcfg, cfg.array);
  ASSERT_TRUE(fix.valid);
  EXPECT_LT(channel::distance(fix.position, client), 2.0);
}

}  // namespace
}  // namespace roarray
