#include "channel/csi.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/steering.hpp"
#include "../test_util.hpp"

namespace roarray::channel {
namespace {

using linalg::CMat;
using linalg::cxd;
using linalg::index_t;

const dsp::ArrayConfig kArray;

Path make_path(double aoa, double toa, cxd gain) {
  Path p;
  p.aoa_deg = aoa;
  p.toa_s = toa;
  p.gain = gain;
  return p;
}

TEST(Csi, SinglePathMatchesSteeringModel) {
  const auto paths = std::vector<Path>{make_path(72.0, 150e-9, cxd{0.8, 0.4})};
  const CMat c = synthesize_csi(paths, kArray);
  ASSERT_EQ(c.rows(), 3);
  ASSERT_EQ(c.cols(), 30);
  const cxd lam = dsp::lambda_aoa(72.0, kArray.spacing_over_wavelength());
  const cxd gam = dsp::gamma_toa(150e-9, kArray.subcarrier_spacing_hz);
  for (index_t l = 0; l < 30; ++l) {
    for (index_t m = 0; m < 3; ++m) {
      const cxd expect = paths[0].gain * std::pow(lam, static_cast<double>(m)) *
                         std::pow(gam, static_cast<double>(l));
      EXPECT_NEAR(std::abs(c(m, l) - expect), 0.0, 1e-9);
    }
  }
}

TEST(Csi, SuperpositionOfPaths) {
  const std::vector<Path> p1{make_path(30.0, 50e-9, cxd{1.0, 0.0})};
  const std::vector<Path> p2{make_path(120.0, 240e-9, cxd{0.3, -0.2})};
  std::vector<Path> both = p1;
  both.push_back(p2[0]);
  CMat sum = synthesize_csi(p1, kArray);
  sum += synthesize_csi(p2, kArray);
  roarray::testing::expect_mat_near(synthesize_csi(both, kArray), sum, 1e-10,
                                    "superposition");
}

TEST(Csi, DetectionDelayShiftsAllToas) {
  const auto paths = std::vector<Path>{make_path(72.0, 100e-9, cxd{1.0, 0.0})};
  CsiImpairments imp;
  imp.detection_delay_s = 60e-9;
  const CMat delayed = synthesize_csi(paths, kArray, imp);
  const auto shifted = std::vector<Path>{make_path(72.0, 160e-9, cxd{1.0, 0.0})};
  roarray::testing::expect_mat_near(delayed, synthesize_csi(shifted, kArray),
                                    1e-10, "delay equals ToA shift");
}

TEST(Csi, AntennaPhaseOffsetsRotateRows) {
  const auto paths = std::vector<Path>{make_path(85.0, 90e-9, cxd{1.0, 0.0})};
  CsiImpairments imp;
  imp.antenna_phase_offsets_rad = {0.0, 1.1, -0.7};
  const CMat with_off = synthesize_csi(paths, kArray, imp);
  const CMat clean = synthesize_csi(paths, kArray);
  for (index_t l = 0; l < 30; ++l) {
    for (index_t m = 0; m < 3; ++m) {
      const cxd expect = clean(m, l) * std::polar(1.0, imp.antenna_phase_offsets_rad[
          static_cast<std::size_t>(m)]);
      EXPECT_NEAR(std::abs(with_off(m, l) - expect), 0.0, 1e-10);
    }
  }
}

TEST(Csi, WrongOffsetCountThrows) {
  const auto paths = std::vector<Path>{make_path(85.0, 90e-9, cxd{1.0, 0.0})};
  CsiImpairments imp;
  imp.antenna_phase_offsets_rad = {0.0, 1.0};  // 2 offsets for 3 antennas
  EXPECT_THROW(synthesize_csi(paths, kArray, imp), std::invalid_argument);
}

TEST(Csi, PolarizationScaleAttenuates) {
  const auto paths = std::vector<Path>{make_path(85.0, 90e-9, cxd{1.0, 0.0})};
  CsiImpairments imp;
  imp.polarization_scale = 0.5;
  const CMat scaled = synthesize_csi(paths, kArray, imp);
  const CMat clean = synthesize_csi(paths, kArray);
  EXPECT_NEAR(mean_power(scaled), 0.25 * mean_power(clean), 1e-12);
  imp.polarization_scale = 0.0;
  EXPECT_THROW(synthesize_csi(paths, kArray, imp), std::invalid_argument);
  imp.polarization_scale = 1.5;
  EXPECT_THROW(synthesize_csi(paths, kArray, imp), std::invalid_argument);
}

TEST(Csi, AddNoiseHitsTargetSnr) {
  auto rng = roarray::testing::make_rng(99);
  const auto paths = std::vector<Path>{make_path(100.0, 70e-9, cxd{1.0, 0.0})};
  // Average the realized SNR over many draws.
  const double snr_db = 10.0;
  double noise_acc = 0.0;
  const int trials = 200;
  const CMat clean = synthesize_csi(paths, kArray);
  const double sig_power = mean_power(clean);
  for (int t = 0; t < trials; ++t) {
    CMat noisy = clean;
    add_noise(noisy, snr_db, rng);
    CMat diff = noisy;
    diff -= clean;
    noise_acc += mean_power(diff);
  }
  const double realized_snr =
      10.0 * std::log10(sig_power / (noise_acc / trials));
  EXPECT_NEAR(realized_snr, snr_db, 0.3);
}

TEST(Csi, AddNoiseReturnsSigma) {
  auto rng = roarray::testing::make_rng(7);
  const auto paths = std::vector<Path>{make_path(100.0, 70e-9, cxd{2.0, 0.0})};
  CMat c = synthesize_csi(paths, kArray);
  const double p = mean_power(c);
  const double sigma = add_noise(c, 0.0, rng);  // SNR 0 dB: noise power = signal
  EXPECT_NEAR(sigma, std::sqrt(p), 1e-12);
}

TEST(Csi, RssiMonotoneInPower) {
  // mean_power is the RSSI the fusion weights use (burst_rssi_weight).
  const auto strong = std::vector<Path>{make_path(90.0, 50e-9, cxd{2.0, 0.0})};
  const auto weak = std::vector<Path>{make_path(90.0, 50e-9, cxd{0.2, 0.0})};
  const double p_strong = mean_power(synthesize_csi(strong, kArray));
  const double p_weak = mean_power(synthesize_csi(weak, kArray));
  EXPECT_GT(p_strong, p_weak);
  // 10x amplitude = 20 dB.
  EXPECT_NEAR(10.0 * std::log10(p_strong / p_weak), 20.0, 1e-9);
}

TEST(Burst, GeneratesRequestedPackets) {
  auto rng = roarray::testing::make_rng(11);
  const auto paths = std::vector<Path>{make_path(140.0, 80e-9, cxd{1.0, 0.0})};
  BurstConfig cfg;
  cfg.num_packets = 7;
  const PacketBurst b = generate_burst(paths, kArray, cfg, rng);
  EXPECT_EQ(b.csi.size(), 7u);
  EXPECT_EQ(b.detection_delays.size(), 7u);
  for (double d : b.detection_delays) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, cfg.max_detection_delay_s);
  }
}

TEST(Burst, DelaysVaryAcrossPackets) {
  auto rng = roarray::testing::make_rng(13);
  const auto paths = std::vector<Path>{make_path(140.0, 80e-9, cxd{1.0, 0.0})};
  BurstConfig cfg;
  cfg.num_packets = 10;
  cfg.max_detection_delay_s = 200e-9;
  const PacketBurst b = generate_burst(paths, kArray, cfg, rng);
  double mn = b.detection_delays[0], mx = b.detection_delays[0];
  for (double d : b.detection_delays) {
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  EXPECT_GT(mx - mn, 10e-9);  // almost surely spread out
}

TEST(Burst, InvalidConfigThrows) {
  auto rng = roarray::testing::make_rng(17);
  const auto paths = std::vector<Path>{make_path(140.0, 80e-9, cxd{1.0, 0.0})};
  BurstConfig cfg;
  cfg.num_packets = 0;
  EXPECT_THROW(generate_burst(paths, kArray, cfg, rng), std::invalid_argument);
  cfg = BurstConfig{};
  cfg.max_detection_delay_s = -1e-9;
  EXPECT_THROW(generate_burst(paths, kArray, cfg, rng), std::invalid_argument);
}

TEST(Burst, DeterministicGivenSeed) {
  const auto paths = std::vector<Path>{make_path(140.0, 80e-9, cxd{1.0, 0.0})};
  auto rng1 = roarray::testing::make_rng(23);
  auto rng2 = roarray::testing::make_rng(23);
  const PacketBurst a = generate_burst(paths, kArray, BurstConfig{}, rng1);
  const PacketBurst b = generate_burst(paths, kArray, BurstConfig{}, rng2);
  roarray::testing::expect_mat_near(a.csi[0], b.csi[0], 0.0, "determinism");
}

}  // namespace
}  // namespace roarray::channel
