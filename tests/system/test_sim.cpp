#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace roarray::sim {
namespace {

namespace rt = roarray::testing;

TEST(Testbed, PaperTestbedMatchesPaperGeometry) {
  const Testbed tb = make_paper_testbed();
  EXPECT_DOUBLE_EQ(tb.room.width_m, 18.0);
  EXPECT_DOUBLE_EQ(tb.room.height_m, 12.0);
  EXPECT_EQ(tb.aps.size(), 6u);  // paper: 6 desktop APs
  for (const ApPose& ap : tb.aps) {
    EXPECT_TRUE(tb.room.contains(ap.position));
  }
}

TEST(Testbed, LocationSamplingRespectsMargin) {
  auto rng = rt::make_rng(401);
  const Testbed tb = make_paper_testbed();
  const auto locs = sample_client_locations(300, tb.room, rng, 1.5);
  EXPECT_EQ(locs.size(), 300u);  // paper: 300 test locations
  for (const Vec2& p : locs) {
    EXPECT_GE(p.x, 1.5);
    EXPECT_LE(p.x, 16.5);
    EXPECT_GE(p.y, 1.5);
    EXPECT_LE(p.y, 10.5);
  }
}

TEST(Testbed, SamplingInvalidArgsThrow) {
  auto rng = rt::make_rng(402);
  const Room room{18.0, 12.0};
  EXPECT_THROW(sample_client_locations(-1, room, rng), std::invalid_argument);
  EXPECT_THROW(sample_client_locations(5, room, rng, 9.0), std::invalid_argument);
}

TEST(SnrBands, SamplesFallInDeclaredRanges) {
  auto rng = rt::make_rng(403);
  for (int i = 0; i < 50; ++i) {
    const double hi = sample_snr_db(SnrBand::kHigh, rng);
    EXPECT_GE(hi, 15.0);
    const double med = sample_snr_db(SnrBand::kMedium, rng);
    EXPECT_GT(med, 2.0);
    EXPECT_LT(med, 15.0);
    const double lo = sample_snr_db(SnrBand::kLow, rng);
    EXPECT_LE(lo, 2.0);
  }
}

TEST(SnrBands, NamesAreDistinct) {
  EXPECT_STRNE(snr_band_name(SnrBand::kHigh), snr_band_name(SnrBand::kLow));
  EXPECT_STRNE(snr_band_name(SnrBand::kHigh), snr_band_name(SnrBand::kMedium));
}

TEST(Scenario, GeneratesOneMeasurementPerAp) {
  auto rng = rt::make_rng(404);
  const Testbed tb = make_paper_testbed();
  ScenarioConfig cfg;
  const auto ms = generate_measurements(tb, {9.0, 6.0}, cfg, rng);
  ASSERT_EQ(ms.size(), 6u);
  for (const ApMeasurement& m : ms) {
    EXPECT_EQ(m.burst.csi.size(), static_cast<std::size_t>(cfg.num_packets));
    EXPECT_GT(m.rssi_weight, 0.0);
    EXPECT_FALSE(m.paths.empty());
    EXPECT_GE(m.true_direct_aoa_deg, 0.0);
    EXPECT_LE(m.true_direct_aoa_deg, 180.0);
  }
}

TEST(Scenario, GroundTruthAoaMatchesGeometry) {
  auto rng = rt::make_rng(405);
  const Testbed tb = make_paper_testbed();
  const Vec2 client{12.0, 4.0};
  ScenarioConfig cfg;
  const auto ms = generate_measurements(tb, client, cfg, rng);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_NEAR(ms[i].true_direct_aoa_deg, tb.aps[i].aoa_of_point(client),
                1e-9);
  }
}

TEST(Scenario, RssiWeightDecaysWithDistance) {
  auto rng = rt::make_rng(406);
  const Testbed tb = make_paper_testbed();
  ScenarioConfig cfg;
  // Client adjacent to AP 0 (west wall).
  const auto near_ms = generate_measurements(tb, {2.0, 6.0}, cfg, rng);
  const auto far_ms = generate_measurements(tb, {16.0, 6.0}, cfg, rng);
  EXPECT_GT(near_ms[0].rssi_weight, far_ms[0].rssi_weight);
}

TEST(Scenario, SnrBandRespected) {
  auto rng = rt::make_rng(407);
  const Testbed tb = make_paper_testbed();
  ScenarioConfig cfg;
  cfg.snr_band = SnrBand::kLow;
  const auto ms = generate_measurements(tb, {9.0, 6.0}, cfg, rng);
  for (const ApMeasurement& m : ms) {
    EXPECT_LE(m.snr_db, 2.0);
  }
}

TEST(Scenario, PolarizationScaleAppliedToBurst) {
  auto rng1 = rt::make_rng(408);
  auto rng2 = rt::make_rng(408);
  const Testbed tb = make_paper_testbed();
  ScenarioConfig full;
  ScenarioConfig weak;
  weak.polarization_scale = 0.3;
  const auto m_full = generate_measurements(tb, {9.0, 6.0}, full, rng1);
  const auto m_weak = generate_measurements(tb, {9.0, 6.0}, weak, rng2);
  EXPECT_LT(m_weak[0].rssi_weight, m_full[0].rssi_weight);
}

TEST(Scenario, EmptyTestbedThrows) {
  auto rng = rt::make_rng(409);
  Testbed tb;
  tb.room = Room{18.0, 12.0};
  EXPECT_THROW(generate_measurements(tb, {9.0, 6.0}, ScenarioConfig{}, rng),
               std::invalid_argument);
}

TEST(Scenario, DeterministicGivenSeed) {
  const Testbed tb = make_paper_testbed();
  auto rng1 = rt::make_rng(410);
  auto rng2 = rt::make_rng(410);
  const auto a = generate_measurements(tb, {9.0, 6.0}, ScenarioConfig{}, rng1);
  const auto b = generate_measurements(tb, {9.0, 6.0}, ScenarioConfig{}, rng2);
  rt::expect_mat_near(a[0].burst.csi[0], b[0].burst.csi[0], 0.0, "determinism");
  EXPECT_DOUBLE_EQ(a[3].snr_db, b[3].snr_db);
}

TEST(Adversarial, InactiveConfigLeavesScenariosBitIdentical) {
  // The adversarial machinery must not consume any rng draws when every
  // mode is off, or seeds (and the golden corpus) would shift.
  const Testbed tb = make_paper_testbed();
  auto rng1 = rt::make_rng(420);
  auto rng2 = rt::make_rng(420);
  ScenarioConfig plain;
  ScenarioConfig with_defaults;
  EXPECT_FALSE(with_defaults.adversarial.active());
  const auto a = generate_measurements(tb, {5.0, 7.0}, plain, rng1);
  const auto b = generate_measurements(tb, {5.0, 7.0}, with_defaults, rng2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    rt::expect_mat_near(a[i].burst.csi[0], b[i].burst.csi[0], 0.0,
                        "inactive adversarial");
    EXPECT_FALSE(b[i].adversarial_blocked);
    EXPECT_FALSE(b[i].adversarial_wrong_peak);
    EXPECT_FALSE(b[i].adversarial_toa_bias);
  }
}

TEST(Adversarial, BlockedApLosesItsDirectPathButKeepsTruth) {
  const Testbed tb = make_paper_testbed();
  const Vec2 client{9.0, 6.0};
  ScenarioConfig cfg;
  cfg.los_block_probability = 0.0;  // isolate the adversarial block.
  cfg.adversarial.num_blocked_aps = 2;
  auto rng = rt::make_rng(421);
  const auto ms = generate_measurements(tb, client, cfg, rng);
  int blocked = 0;
  for (const ApMeasurement& m : ms) {
    // Truth always reflects the pristine geometric direct path.
    EXPECT_NEAR(m.true_direct_aoa_deg, m.pose.aoa_of_point(client), 1e-9);
    if (!m.adversarial_blocked) continue;
    ++blocked;
    // The erased direct path: every surviving path arrives later than
    // the geometric LoS would have.
    const double los_toa =
        channel::distance(m.pose.position, client) / dsp::kSpeedOfLight;
    for (const channel::Path& p : m.paths) {
      EXPECT_GT(p.toa_s, los_toa + 1e-12);
    }
  }
  EXPECT_EQ(blocked, 2);
}

TEST(Adversarial, ToaBiasDelaysOnlyTheDirectPath) {
  const Testbed tb = make_paper_testbed();
  const Vec2 client{6.5, 4.0};
  ScenarioConfig cfg;
  cfg.los_block_probability = 0.0;
  cfg.adversarial.num_toa_bias_aps = 1;
  cfg.adversarial.toa_bias_s = 80e-9;
  auto rng = rt::make_rng(422);
  const auto ms = generate_measurements(tb, client, cfg, rng);
  int biased = 0;
  for (const ApMeasurement& m : ms) {
    if (!m.adversarial_toa_bias) continue;
    ++biased;
    const double los_toa =
        channel::distance(m.pose.position, client) / dsp::kSpeedOfLight;
    // The direct path (the one at the geometric LoS AoA) arrives late by
    // the configured bias; reflections are untouched, so the direct may
    // no longer be first.
    bool found_direct = false;
    for (const channel::Path& p : m.paths) {
      if (std::abs(p.aoa_deg - m.true_direct_aoa_deg) < 1e-9) {
        EXPECT_NEAR(p.toa_s, los_toa + cfg.adversarial.toa_bias_s, 1e-12);
        found_direct = true;
      }
    }
    EXPECT_TRUE(found_direct);
    // Paths stay sorted by ToA after the re-sort.
    for (std::size_t i = 1; i < m.paths.size(); ++i) {
      EXPECT_LE(m.paths[i - 1].toa_s, m.paths[i].toa_s);
    }
  }
  EXPECT_EQ(biased, 1);
}

TEST(Adversarial, WrongPeakBoostsAReflectionAboveTheDirect) {
  const Testbed tb = make_paper_testbed();
  const Vec2 client{12.0, 8.0};
  ScenarioConfig cfg;
  cfg.los_block_probability = 0.0;
  cfg.adversarial.wrong_peak_probability = 1.0;  // every AP corrupted.
  auto rng = rt::make_rng(423);
  const auto ms = generate_measurements(tb, client, cfg, rng);
  for (const ApMeasurement& m : ms) {
    if (!m.adversarial_wrong_peak) continue;  // single-path link corner.
    const double direct = std::abs(m.paths.front().gain);
    double strongest = 0.0;
    for (std::size_t i = 1; i < m.paths.size(); ++i) {
      strongest = std::max(strongest, std::abs(m.paths[i].gain));
    }
    // The boost enforces the configured amplitude ratio, which puts the
    // direct path's relative power under the estimator's 0.4 gate.
    EXPECT_GE(strongest, kWrongPeakBoost * direct - 1e-12);
  }
  EXPECT_TRUE(std::any_of(ms.begin(), ms.end(), [](const ApMeasurement& m) {
    return m.adversarial_wrong_peak;
  }));
}

TEST(Adversarial, SelectionIsDeterministicGivenSeed) {
  const Testbed tb = make_paper_testbed();
  ScenarioConfig cfg;
  cfg.adversarial.num_blocked_aps = 1;
  cfg.adversarial.num_toa_bias_aps = 1;
  cfg.adversarial.wrong_peak_probability = 0.3;
  auto rng1 = rt::make_rng(424);
  auto rng2 = rt::make_rng(424);
  const auto a = generate_measurements(tb, {9.0, 6.0}, cfg, rng1);
  const auto b = generate_measurements(tb, {9.0, 6.0}, cfg, rng2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].adversarial_blocked, b[i].adversarial_blocked);
    EXPECT_EQ(a[i].adversarial_toa_bias, b[i].adversarial_toa_bias);
    EXPECT_EQ(a[i].adversarial_wrong_peak, b[i].adversarial_wrong_peak);
    rt::expect_mat_near(a[i].burst.csi[0], b[i].burst.csi[0], 0.0,
                        "adversarial determinism");
  }
  // Blocked and biased sets are disjoint by construction.
  for (const ApMeasurement& m : a) {
    EXPECT_FALSE(m.adversarial_blocked && m.adversarial_toa_bias);
  }
}

}  // namespace
}  // namespace roarray::sim
