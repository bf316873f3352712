#include <gtest/gtest.h>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "music/arraytrack.hpp"
#include "music/spotfi.hpp"
#include "../test_util.hpp"

namespace roarray::music {
namespace {

namespace rt = roarray::testing;
using channel::BurstConfig;
using channel::Path;
using linalg::cxd;

const dsp::ArrayConfig kArray;

std::vector<Path> los_dominant_paths(double direct_aoa, double direct_toa) {
  Path direct;
  direct.aoa_deg = direct_aoa;
  direct.toa_s = direct_toa;
  direct.gain = cxd{1.0, 0.0};
  Path refl;
  refl.aoa_deg = direct_aoa > 90.0 ? direct_aoa - 60.0 : direct_aoa + 60.0;
  refl.toa_s = direct_toa + 150e-9;
  refl.gain = cxd{0.35, 0.2};
  return {direct, refl};
}

channel::PacketBurst make_burst(const std::vector<Path>& paths, double snr_db,
                                linalg::index_t packets, std::uint64_t seed) {
  auto rng = rt::make_rng(seed);
  BurstConfig cfg;
  cfg.num_packets = packets;
  cfg.snr_db = snr_db;
  return channel::generate_burst(paths, kArray, cfg, rng);
}

TEST(ArrayTrack, FindsDominantAoaAtHighSnr) {
  const auto paths = los_dominant_paths(120.0, 40e-9);
  const auto burst = make_burst(paths, 25.0, 15, 201);
  const ArrayTrackResult r = arraytrack_estimate(burst.csi, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct_aoa_deg, 120.0, 6.0);
}

TEST(ArrayTrack, NoPacketsThrows) {
  EXPECT_THROW(arraytrack_estimate({}, kArray), std::invalid_argument);
}

TEST(ArrayTrack, ShapeMismatchThrows) {
  const std::vector<linalg::CMat> bad = {linalg::CMat(2, 30)};
  EXPECT_THROW(arraytrack_estimate(bad, kArray), std::invalid_argument);
}

TEST(ArrayTrack, SpectrumNormalized) {
  const auto paths = los_dominant_paths(90.0, 50e-9);
  const auto burst = make_burst(paths, 20.0, 5, 202);
  const ArrayTrackResult r = arraytrack_estimate(burst.csi, kArray);
  double mx = 0.0;
  for (linalg::index_t i = 0; i < r.spectrum.values.size(); ++i) {
    mx = std::max(mx, r.spectrum.values[i]);
  }
  EXPECT_NEAR(mx, 1.0, 1e-9);
}

TEST(ArrayTrack, DegradesGracefullyAtLowSnr) {
  // Must still return a valid (if inaccurate) estimate at 0 dB.
  const auto paths = los_dominant_paths(60.0, 45e-9);
  const auto burst = make_burst(paths, 0.0, 15, 203);
  const ArrayTrackResult r = arraytrack_estimate(burst.csi, kArray);
  EXPECT_TRUE(r.valid);
  EXPECT_GE(r.direct_aoa_deg, 0.0);
  EXPECT_LE(r.direct_aoa_deg, 180.0);
}

TEST(Spotfi, SinglePacketLocatesDirectPath) {
  const auto paths = los_dominant_paths(130.0, 60e-9);
  const auto burst = make_burst(paths, 25.0, 1, 204);
  const SpotfiResult r = spotfi_estimate(burst.csi, SpotfiConfig{}, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct_aoa_deg, 130.0, 8.0);
}

TEST(Spotfi, MultiPacketClusteringTightensEstimate) {
  const auto paths = los_dominant_paths(75.0, 55e-9);
  const auto burst = make_burst(paths, 18.0, 15, 205);
  const SpotfiResult r = spotfi_estimate(burst.csi, SpotfiConfig{}, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct_aoa_deg, 75.0, 8.0);
  EXPECT_FALSE(r.clusters.empty());
  EXPECT_GE(r.candidates.size(), burst.csi.size());  // >= 1 peak per packet
}

TEST(Spotfi, DirectToaNearRebiasForLosChannel) {
  // With sanitization, the direct path lands near the rebias delay.
  const auto paths = los_dominant_paths(100.0, 45e-9);
  const auto burst = make_burst(paths, 25.0, 10, 206);
  SpotfiConfig cfg;
  const SpotfiResult r = spotfi_estimate(burst.csi, cfg, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(r.direct_toa_s, 300e-9);
}

TEST(Spotfi, KeepSpectrumPopulatesFirstPacketSpectrum) {
  const auto paths = los_dominant_paths(110.0, 50e-9);
  const auto burst = make_burst(paths, 20.0, 2, 207);
  const SpotfiResult with =
      spotfi_estimate(burst.csi, SpotfiConfig{}, kArray, true);
  EXPECT_GT(with.first_packet_spectrum.values.size(), 0);
  const SpotfiResult without =
      spotfi_estimate(burst.csi, SpotfiConfig{}, kArray, false);
  EXPECT_EQ(without.first_packet_spectrum.values.size(), 0);
}

TEST(Spotfi, NoPacketsThrows) {
  EXPECT_THROW(spotfi_estimate({}, SpotfiConfig{}, kArray),
               std::invalid_argument);
}

TEST(Spotfi, FixedKToleratesFewerTruePaths) {
  // SpotFi hardwires K = 5; with only 1 true path it must not crash and
  // should still pick the right direct AoA at high SNR.
  std::vector<Path> one;
  Path direct;
  direct.aoa_deg = 95.0;
  direct.toa_s = 70e-9;
  direct.gain = cxd{1.0, 0.0};
  one.push_back(direct);
  const auto burst = make_burst(one, 30.0, 5, 208);
  const SpotfiResult r = spotfi_estimate(burst.csi, SpotfiConfig{}, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct_aoa_deg, 95.0, 6.0);
}

class BaselineAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(BaselineAngleSweep, SpotfiTracksDirectAoaAtHighSnr) {
  const double truth = GetParam();
  const auto paths = los_dominant_paths(truth, 50e-9);
  const auto burst = make_burst(
      paths, 22.0, 8, static_cast<std::uint64_t>(truth * 13 + 1));
  const SpotfiResult r = spotfi_estimate(burst.csi, SpotfiConfig{}, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct_aoa_deg, truth, 10.0);
}

INSTANTIATE_TEST_SUITE_P(Angles, BaselineAngleSweep,
                         ::testing::Values(40.0, 65.0, 90.0, 115.0, 140.0));

}  // namespace
}  // namespace roarray::music
