#include "music/music.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "channel/csi.hpp"
#include "dsp/sanitize.hpp"
#include "linalg/backend/backend.hpp"
#include "music/covariance.hpp"
#include "music/smoothing.hpp"
#include "../test_util.hpp"

namespace roarray::music {
namespace {

namespace rt = roarray::testing;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// Builds the sample covariance of noisy snapshots of planted sources.
CMat planted_covariance(const std::vector<double>& angles_deg,
                        const dsp::ArrayConfig& cfg, index_t snapshots,
                        double noise_sigma, std::mt19937_64& rng) {
  CMat y(cfg.num_antennas, snapshots);
  std::normal_distribution<double> n(0.0, 1.0);
  for (index_t t = 0; t < snapshots; ++t) {
    for (double a : angles_deg) {
      const auto s = dsp::steering_aoa(a, cfg);
      const cxd amp{n(rng), n(rng)};  // independent per source per snapshot
      for (index_t i = 0; i < cfg.num_antennas; ++i) y(i, t) += amp * s[i];
    }
    for (index_t i = 0; i < cfg.num_antennas; ++i) {
      y(i, t) += cxd{n(rng) * noise_sigma, n(rng) * noise_sigma};
    }
  }
  return sample_covariance(y);
}

TEST(NoiseSubspace, DimensionAndOrthogonality) {
  auto rng = rt::make_rng(121);
  const dsp::ArrayConfig cfg{.num_antennas = 5};
  const CMat r = planted_covariance({60.0}, cfg, 200, 0.05, rng);
  const CMat en = noise_subspace(r, 1);
  EXPECT_EQ(en.rows(), 5);
  EXPECT_EQ(en.cols(), 4);
  rt::expect_orthonormal_columns(en, 1e-9);
  // Noise subspace is (nearly) orthogonal to the source steering vector.
  const auto s = dsp::steering_aoa(60.0, cfg);
  for (index_t j = 0; j < 4; ++j) {
    cxd proj{};
    for (index_t i = 0; i < 5; ++i) proj += std::conj(en(i, j)) * s[i];
    EXPECT_LT(std::abs(proj), 0.1) << "column " << j;
  }
}

TEST(NoiseSubspace, InvalidKThrows) {
  const CMat r = CMat::identity(4);
  EXPECT_THROW(noise_subspace(r, 0), std::invalid_argument);
  EXPECT_THROW(noise_subspace(r, 4), std::invalid_argument);
}

TEST(MusicAoa, FindsSingleSourceAtHighSnr) {
  auto rng = rt::make_rng(122);
  const dsp::ArrayConfig cfg;
  const CMat r = planted_covariance({150.0}, cfg, 300, 0.02, rng);
  const auto spec = music_spectrum_aoa(r, 1, dsp::Grid(0.0, 180.0, 181), cfg);
  const auto peaks = spec.find_peaks(1);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks[0].aoa_deg, 150.0, 2.0);
}

TEST(MusicAoa, ResolvesTwoSourcesWithThreeAntennas) {
  auto rng = rt::make_rng(123);
  const dsp::ArrayConfig cfg;
  const CMat r = planted_covariance({50.0, 120.0}, cfg, 500, 0.02, rng);
  const auto spec = music_spectrum_aoa(r, 2, dsp::Grid(0.0, 180.0, 181), cfg);
  const auto peaks = spec.find_peaks(2, 0.01, 5);
  ASSERT_EQ(peaks.size(), 2u);
  const double a = std::min(peaks[0].aoa_deg, peaks[1].aoa_deg);
  const double b = std::max(peaks[0].aoa_deg, peaks[1].aoa_deg);
  EXPECT_NEAR(a, 50.0, 4.0);
  EXPECT_NEAR(b, 120.0, 4.0);
}

TEST(MusicAoa, CovarianceDimensionMismatchThrows) {
  const dsp::ArrayConfig cfg;  // 3 antennas
  EXPECT_THROW(
      music_spectrum_aoa(CMat::identity(4), 1, dsp::Grid(0.0, 180.0, 19), cfg),
      std::invalid_argument);
}

TEST(MusicAoa, SpectrumDegradesWithNoise) {
  // The defining weakness the paper attacks: beam sharpness collapses as
  // SNR falls. Sharpness = peak / mean of the normalized spectrum.
  const dsp::ArrayConfig cfg;
  auto sharpness_at = [&](double sigma) {
    auto rng = rt::make_rng(124);
    const CMat r = planted_covariance({150.0}, cfg, 60, sigma, rng);
    const auto spec = music_spectrum_aoa(r, 1, dsp::Grid(0.0, 180.0, 181), cfg);
    double mean = 0.0;
    for (index_t i = 0; i < spec.values.size(); ++i) mean += spec.values[i];
    mean /= static_cast<double>(spec.values.size());
    return 1.0 / mean;  // spectrum normalized to peak 1
  };
  EXPECT_GT(sharpness_at(0.05), sharpness_at(1.2));
}

TEST(MusicJoint, LocalizesPathInAngleAndTime) {
  const dsp::ArrayConfig cfg;
  channel::Path p;
  p.aoa_deg = 100.0;
  p.toa_s = 240e-9;
  p.gain = cxd{1.0, 0.0};
  auto rng = rt::make_rng(125);
  CMat csi = channel::synthesize_csi({p}, cfg);
  channel::add_noise(csi, 25.0, rng);
  const SmoothingConfig sc;
  CMat r = sample_covariance(smooth_csi(csi, sc));
  r = forward_backward_average(r);
  const auto spec = music_spectrum_joint(r, 3, dsp::Grid(0.0, 180.0, 91),
                                         dsp::Grid(0.0, 784e-9, 50), cfg,
                                         sc.sub_antennas, sc.sub_carriers);
  const auto peaks = spec.find_peaks(1);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks[0].aoa_deg, 100.0, 4.0);
  EXPECT_NEAR(peaks[0].toa_s, 240e-9, 40e-9);
}

TEST(MusicJoint, SeparatesTwoPathsByToa) {
  // Two paths at nearby angles but distinct delays: the frequency
  // dimension must split them (the paper's aperture-expansion argument).
  const dsp::ArrayConfig cfg;
  channel::Path p1;
  p1.aoa_deg = 90.0;
  p1.toa_s = 60e-9;
  p1.gain = cxd{1.0, 0.0};
  channel::Path p2;
  p2.aoa_deg = 110.0;
  p2.toa_s = 360e-9;
  p2.gain = cxd{0.8, 0.2};
  auto rng = rt::make_rng(126);
  CMat csi = channel::synthesize_csi({p1, p2}, cfg);
  channel::add_noise(csi, 25.0, rng);
  const SmoothingConfig sc;
  CMat r = sample_covariance(smooth_csi(csi, sc));
  r = forward_backward_average(r);
  const auto spec = music_spectrum_joint(r, 4, dsp::Grid(0.0, 180.0, 91),
                                         dsp::Grid(0.0, 784e-9, 50), cfg,
                                         sc.sub_antennas, sc.sub_carriers);
  const auto peaks = spec.find_peaks(2, 0.05, 3, 3);
  ASSERT_EQ(peaks.size(), 2u);
  const double t_min = std::min(peaks[0].toa_s, peaks[1].toa_s);
  const double t_max = std::max(peaks[0].toa_s, peaks[1].toa_s);
  EXPECT_NEAR(t_min, 60e-9, 50e-9);
  EXPECT_NEAR(t_max, 360e-9, 50e-9);
}

TEST(MusicJoint, DimensionMismatchThrows) {
  const dsp::ArrayConfig cfg;
  EXPECT_THROW(music_spectrum_joint(CMat::identity(10), 2,
                                    dsp::Grid(0.0, 180.0, 10),
                                    dsp::Grid(0.0, 700e-9, 5), cfg, 2, 15),
               std::invalid_argument);
}

class MusicAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(MusicAngleSweep, SingleSourceRecoveredAcrossAngles) {
  const double truth = GetParam();
  auto rng = rt::make_rng(static_cast<std::uint64_t>(truth * 7 + 3));
  const dsp::ArrayConfig cfg;
  const CMat r = planted_covariance({truth}, cfg, 200, 0.05, rng);
  const auto spec = music_spectrum_aoa(r, 1, dsp::Grid(0.0, 180.0, 361), cfg);
  const auto peaks = spec.find_peaks(1);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks[0].aoa_deg, truth, 3.0);
}

// Endfire angles (near 0/180) have poor ULA resolution; sweep the
// usable field of view.
INSTANTIATE_TEST_SUITE_P(Angles, MusicAngleSweep,
                         ::testing::Values(25.0, 45.0, 70.0, 90.0, 115.0,
                                           140.0, 160.0));

// --- Frozen per-point oracle -----------------------------------------
//
// A test-local copy of the per-point spectrum the factor-matrix path
// replaced: one truncated joint steering vector per grid point
// (s[l*ms + m] = Gamma^l Lambda^m, built by the same running-product
// recurrence), projected on every noise column one scalar MAC at a
// time. It returns ||E_n^H s||^2 before the floor and the reciprocal.

CVec frozen_steering_sub(double theta_deg, double tau_s,
                         const dsp::ArrayConfig& cfg, index_t ms, index_t ls) {
  const cxd lam = dsp::lambda_aoa(theta_deg, cfg.spacing_over_wavelength());
  const cxd gam = dsp::gamma_toa(tau_s, cfg.subcarrier_spacing_hz);
  CVec s(ms * ls);
  cxd gl{1.0, 0.0};
  for (index_t l = 0; l < ls; ++l) {
    cxd lm{1.0, 0.0};
    for (index_t m = 0; m < ms; ++m) {
      s[l * ms + m] = gl * lm;
      lm *= lam;
    }
    gl *= gam;
  }
  return s;
}

double frozen_projection_energy(const CMat& en, const CVec& s) {
  double acc = 0.0;
  for (index_t j = 0; j < en.cols(); ++j) {
    cxd proj{};
    for (index_t i = 0; i < en.rows(); ++i) proj += std::conj(en(i, j)) * s[i];
    acc += std::norm(proj);
  }
  return acc;
}

/// Compares a peak-normalized spectrum with frozen energies: with no
/// floor active, 1 / value = energy / min energy for both. Returns the
/// largest relative error.
double max_rel_error_vs_frozen(const std::vector<double>& spectrum,
                               const std::vector<double>& frozen_energy) {
  const double e_min =
      *std::min_element(frozen_energy.begin(), frozen_energy.end());
  double worst = 0.0;
  for (std::size_t t = 0; t < spectrum.size(); ++t) {
    const double want = frozen_energy[t] / e_min;
    worst = std::max(worst, std::abs(1.0 / spectrum[t] - want) / want);
  }
  return worst;
}

dsp::Grid random_grid(double lo, double hi, index_t max_points,
                      std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double a = lo + (hi - lo) * u(rng);
  const double b = lo + (hi - lo) * u(rng);
  const auto n = static_cast<index_t>(
      1 + rng() % static_cast<std::uint64_t>(max_points));
  return dsp::Grid(std::min(a, b), std::max(a, b), n);
}

TEST(MusicFrozen, JointSpectrumMatchesPerPointOracle) {
  const rt::BackendForceGuard guard;
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    auto rng = rt::make_rng(5100);
    for (int trial = 0; trial < 16; ++trial) {
      dsp::ArrayConfig cfg;
      cfg.num_antennas = 2 + static_cast<index_t>(rng() % 3);
      cfg.num_subcarriers = 4 + static_cast<index_t>(rng() % 13);
      const index_t ms = 1 + static_cast<index_t>(rng() % cfg.num_antennas);
      const index_t ls = 1 + static_cast<index_t>(rng() % cfg.num_subcarriers);
      const index_t d = ms * ls;
      if (d < 2) continue;
      const index_t k = 1 + static_cast<index_t>(rng() % (d - 1));
      const dsp::Grid aoa = random_grid(0.0, 180.0, 30, rng);
      const dsp::Grid toa = random_grid(0.0, 800e-9, 20, rng);
      const CMat r = rt::random_hermitian(d, rng);
      const std::string where = std::string(table->name) + " trial " +
                                std::to_string(trial) + " ms " +
                                std::to_string(ms) + " ls " +
                                std::to_string(ls) + " k " + std::to_string(k);

      const CMat en = noise_subspace(r, k);
      std::vector<double> frozen;
      for (index_t j = 0; j < toa.size(); ++j) {
        for (index_t i = 0; i < aoa.size(); ++i) {
          frozen.push_back(frozen_projection_energy(
              en, frozen_steering_sub(aoa[i], toa[j], cfg, ms, ls)));
          ASSERT_GT(frozen.back(), 1e-6) << where;  // floor inactive
        }
      }
      const auto spec = music_spectrum_joint(r, k, aoa, toa, cfg, ms, ls);
      ASSERT_EQ(spec.values.rows(), aoa.size()) << where;
      ASSERT_EQ(spec.values.cols(), toa.size()) << where;
      const std::vector<double> got(spec.values.data(),
                                    spec.values.data() + aoa.size() * toa.size());
      EXPECT_LE(max_rel_error_vs_frozen(got, frozen), 1e-10) << where;

      // The EigResult overload is the same computation.
      const auto from_eig = music_spectrum_joint(linalg::eig_hermitian(r), k,
                                                 aoa, toa, cfg, ms, ls);
      for (index_t t = 0; t < aoa.size() * toa.size(); ++t) {
        ASSERT_EQ(from_eig.values.data()[t], spec.values.data()[t]) << where;
      }
    }
  }
}

TEST(MusicFrozen, AoaSpectrumMatchesPerPointOracle) {
  const rt::BackendForceGuard guard;
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    auto rng = rt::make_rng(5200);
    for (int trial = 0; trial < 24; ++trial) {
      dsp::ArrayConfig cfg;
      cfg.num_antennas = 2 + static_cast<index_t>(rng() % 7);
      const index_t k = 1 + static_cast<index_t>(rng() % (cfg.num_antennas - 1));
      const dsp::Grid aoa = random_grid(0.0, 180.0, 200, rng);
      const CMat r = rt::random_hermitian(cfg.num_antennas, rng);
      const std::string where = std::string(table->name) + " trial " +
                                std::to_string(trial) + " M " +
                                std::to_string(cfg.num_antennas) + " k " +
                                std::to_string(k);

      const CMat en = noise_subspace(r, k);
      std::vector<double> frozen;
      for (index_t i = 0; i < aoa.size(); ++i) {
        frozen.push_back(frozen_projection_energy(
            en, frozen_steering_sub(aoa[i], 0.0, cfg, cfg.num_antennas, 1)));
        ASSERT_GT(frozen.back(), 1e-6) << where;  // floor inactive
      }
      const auto spec = music_spectrum_aoa(r, k, aoa, cfg);
      ASSERT_EQ(spec.values.size(), aoa.size()) << where;
      const std::vector<double> got(spec.values.data(),
                                    spec.values.data() + aoa.size());
      EXPECT_LE(max_rel_error_vs_frozen(got, frozen), 1e-10) << where;
    }
  }
}

TEST(MusicJoint, SubArrayOutOfRangeThrows) {
  const dsp::ArrayConfig cfg;  // 3 antennas x 30 subcarriers
  const dsp::Grid aoa(0.0, 180.0, 10);
  const dsp::Grid toa(0.0, 700e-9, 5);
  EXPECT_THROW(music_spectrum_joint(CMat::identity(40), 2, aoa, toa, cfg, 4, 10),
               std::invalid_argument);
  EXPECT_THROW(music_spectrum_joint(CMat::identity(62), 2, aoa, toa, cfg, 2, 31),
               std::invalid_argument);
}

}  // namespace
}  // namespace roarray::music
