// Failure-injection tests: the pipeline must degrade gracefully, not
// crash or return garbage, under blocked links, extreme SNR, degenerate
// geometry, and starved inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/roarray.hpp"
#include "loc/localize.hpp"
#include "music/arraytrack.hpp"
#include "music/spotfi.hpp"
#include "sim/scenario.hpp"
#include "../test_util.hpp"

namespace roarray {
namespace {

namespace rt = roarray::testing;

TEST(FailureInjection, HeavilyBlockedDirectPathStillYieldsEstimate) {
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(951);
  sim::ScenarioConfig cfg;
  cfg.los_block_probability = 1.0;  // every link blocked
  cfg.los_block_loss_db = 15.0;
  cfg.snr_band = sim::SnrBand::kMedium;
  const auto ms = sim::generate_measurements(tb, {9.0, 6.0}, cfg, rng);
  for (const auto& m : ms) {
    core::RoArrayConfig rcfg;
    rcfg.solver.max_iterations = 200;
    const auto r = core::roarray_estimate(m.burst.csi, rcfg, cfg.array);
    EXPECT_TRUE(r.valid);
    EXPECT_GE(r.direct.aoa_deg, 0.0);
    EXPECT_LE(r.direct.aoa_deg, 180.0);
  }
}

TEST(FailureInjection, ExtremeLowSnrDoesNotCrashAnySystem) {
  channel::Path p;
  p.aoa_deg = 90.0;
  p.toa_s = 60e-9;
  p.gain = linalg::cxd{1.0, 0.0};
  auto rng = rt::make_rng(952);
  channel::BurstConfig bc;
  bc.num_packets = 5;
  bc.snr_db = -15.0;  // buried in noise
  const dsp::ArrayConfig arr;
  const auto burst = channel::generate_burst({p}, arr, bc, rng);

  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 150;
  EXPECT_NO_THROW({
    const auto r = core::roarray_estimate(burst.csi, rcfg, arr);
    (void)r;
  });
  EXPECT_NO_THROW({
    const auto r = music::spotfi_estimate(burst.csi, music::SpotfiConfig{}, arr);
    (void)r;
  });
  EXPECT_NO_THROW({
    const auto r = music::arraytrack_estimate(burst.csi, arr);
    (void)r;
  });
}

TEST(FailureInjection, PureNoiseInputHandledEverywhere) {
  auto rng = rt::make_rng(953);
  const dsp::ArrayConfig arr;
  std::vector<linalg::CMat> noise_packets;
  for (int i = 0; i < 3; ++i) {
    noise_packets.push_back(rt::random_cmat(arr.num_antennas,
                                            arr.num_subcarriers, rng));
  }
  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 150;
  EXPECT_NO_THROW({
    const auto r = core::roarray_estimate(noise_packets, rcfg, arr);
    (void)r;
  });
  EXPECT_NO_THROW({
    const auto r =
        music::spotfi_estimate(noise_packets, music::SpotfiConfig{}, arr);
    (void)r;
  });
}

TEST(FailureInjection, ZeroCsiInputDoesNotDivideByZero) {
  const dsp::ArrayConfig arr;
  const std::vector<linalg::CMat> zero = {
      linalg::CMat(arr.num_antennas, arr.num_subcarriers)};
  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 50;
  // A zero operator input: the solver throws a domain error (documented)
  // or returns an invalid result; it must not crash or return NaN paths.
  try {
    const auto r = core::roarray_estimate(zero, rcfg, arr);
    if (r.valid) {
      EXPECT_TRUE(std::isfinite(r.direct.aoa_deg));
    }
  } catch (const std::domain_error&) {
    SUCCEED();
  }
}

TEST(FailureInjection, SingleApLocalizationIsBoundedNotCrashing) {
  // One AoA constrains only a bearing; the fix must still be inside the
  // room and valid.
  const sim::Testbed tb = sim::make_paper_testbed();
  loc::LocalizeConfig lcfg;
  lcfg.room = tb.room;
  lcfg.grid_step_m = 0.2;
  const std::vector<loc::ApObservation> obs = {
      {tb.aps[0], 45.0, 1.0},
  };
  const auto fix = loc::localize(obs, lcfg);
  ASSERT_TRUE(fix.valid);
  EXPECT_TRUE(tb.room.contains(fix.position));
}

TEST(FailureInjection, ZeroWeightObservationsAreNeutral) {
  const sim::Testbed tb = sim::make_paper_testbed();
  loc::LocalizeConfig lcfg;
  lcfg.room = tb.room;
  lcfg.grid_step_m = 0.1;
  const sim::Vec2 target{7.0, 5.0};
  std::vector<loc::ApObservation> obs;
  for (std::size_t i = 0; i < 3; ++i) {
    obs.push_back({tb.aps[i], tb.aps[i].aoa_of_point(target), 1.0});
  }
  // A wildly wrong observation with zero weight must not move the fix.
  obs.push_back({tb.aps[3], 5.0, 0.0});
  const auto fix = loc::localize(obs, lcfg);
  ASSERT_TRUE(fix.valid);
  EXPECT_LT(channel::distance(fix.position, target), 0.3);
}

TEST(FailureInjection, ClientOnTopOfApHandled) {
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(954);
  // Client 1 mm from AP 0: the tracer clamps the degenerate path length.
  const sim::Vec2 client{tb.aps[0].position.x + 1e-4,
                         tb.aps[0].position.y};
  sim::ScenarioConfig cfg;
  cfg.num_packets = 2;
  EXPECT_NO_THROW({
    const auto ms = sim::generate_measurements(tb, client, cfg, rng);
    (void)ms;
  });
}

TEST(FailureInjection, MissingApsReduceButDoNotBreakLocalization) {
  // Only 2 of 6 APs report: localization still returns an in-room fix.
  const sim::Testbed tb = sim::make_paper_testbed();
  auto rng = rt::make_rng(955);
  sim::ScenarioConfig cfg = sim::scenario_for_band(sim::SnrBand::kHigh);
  cfg.num_packets = 5;
  const auto ms = sim::generate_measurements(tb, {10.0, 7.0}, cfg, rng);
  std::vector<loc::ApObservation> obs;
  for (std::size_t i = 0; i < 2; ++i) {
    core::RoArrayConfig rcfg;
    rcfg.solver.max_iterations = 200;
    const auto r = core::roarray_estimate(ms[i].burst.csi, rcfg, cfg.array);
    if (r.valid) obs.push_back({ms[i].pose, r.direct.aoa_deg, ms[i].rssi_weight});
  }
  loc::LocalizeConfig lcfg;
  lcfg.room = tb.room;
  lcfg.grid_step_m = 0.1;
  const auto fix = loc::localize(obs, lcfg);
  ASSERT_TRUE(fix.valid);
  EXPECT_TRUE(tb.room.contains(fix.position));
}

TEST(FailureInjection, SaturatedDetectionDelayDegradesButReturns) {
  // Delays beyond the sanitizer's aliasing limit: estimates may be
  // wrong, but must be well-formed.
  channel::Path p;
  p.aoa_deg = 110.0;
  p.toa_s = 50e-9;
  p.gain = linalg::cxd{1.0, 0.0};
  auto rng = rt::make_rng(956);
  channel::BurstConfig bc;
  bc.num_packets = 8;
  bc.snr_db = 15.0;
  bc.max_detection_delay_s = 700e-9;  // way past the 400 ns limit
  const dsp::ArrayConfig arr;
  const auto burst = channel::generate_burst({p}, arr, bc, rng);
  core::RoArrayConfig rcfg;
  rcfg.solver.max_iterations = 200;
  const auto r = core::roarray_estimate(burst.csi, rcfg, arr);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(std::isfinite(r.direct.aoa_deg));
  EXPECT_TRUE(std::isfinite(r.direct.toa_s));
}

}  // namespace
}  // namespace roarray
