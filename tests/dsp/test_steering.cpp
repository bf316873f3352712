#include "dsp/steering.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace roarray::dsp {
namespace {

using linalg::cxd;
using linalg::index_t;

TEST(ArrayConfig, Intel5300Defaults) {
  const ArrayConfig cfg = intel5300_config();
  EXPECT_EQ(cfg.num_antennas, 3);
  EXPECT_EQ(cfg.num_subcarriers, 30);
  EXPECT_DOUBLE_EQ(cfg.spacing_over_wavelength(), 0.5);
  EXPECT_NEAR(cfg.max_unambiguous_toa_s(), 800e-9, 1e-15);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ArrayConfig, ValidationCatchesBadGeometry) {
  ArrayConfig cfg;
  cfg.antenna_spacing_m = 0.06;  // > lambda / 2 = 0.026
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ArrayConfig{};
  cfg.num_antennas = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ArrayConfig{};
  cfg.subcarrier_spacing_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Steering, BroadsideIntroducesNoPhaseShift) {
  // theta = 90: cos(theta) = 0, all antennas in phase.
  const ArrayConfig cfg;
  const auto s = steering_aoa(90.0, cfg);
  for (index_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(std::abs(s[i] - cxd{1.0, 0.0}), 0.0, 1e-12);
  }
}

TEST(Steering, EndfirePhaseMatchesHalfWavelengthSpacing) {
  // theta = 0 with d = lambda/2: phase step = -pi per antenna.
  const ArrayConfig cfg;
  const auto s = steering_aoa(0.0, cfg);
  EXPECT_NEAR(std::abs(s[1] - cxd{-1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(s[2] - cxd{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Steering, ElementsHaveUnitModulus) {
  const ArrayConfig cfg;
  for (double theta : {0.0, 17.0, 45.0, 90.0, 133.0, 180.0}) {
    const auto s = steering_aoa(theta, cfg);
    for (index_t i = 0; i < s.size(); ++i) {
      EXPECT_NEAR(std::abs(s[i]), 1.0, 1e-12) << "theta=" << theta;
    }
  }
}

TEST(Steering, MirrorAnglesGiveConjugateVectors) {
  // cos(180 - t) = -cos(t) => Lambda(180 - t) = conj(Lambda(t)).
  const ArrayConfig cfg;
  const auto s1 = steering_aoa(30.0, cfg);
  const auto s2 = steering_aoa(150.0, cfg);
  for (index_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(std::abs(s2[i] - std::conj(s1[i])), 0.0, 1e-12);
  }
}

TEST(Steering, GammaPeriodicInMaxToa) {
  const ArrayConfig cfg;
  const double tau_max = cfg.max_unambiguous_toa_s();
  const cxd g1 = gamma_toa(100e-9, cfg.subcarrier_spacing_hz);
  const cxd g2 = gamma_toa(100e-9 + tau_max, cfg.subcarrier_spacing_hz);
  EXPECT_NEAR(std::abs(g1 - g2), 0.0, 1e-9);
}

TEST(Steering, GammaMatchesPaperExample) {
  // Paper Sec. III-B: 5 ns ToA across 20 MHz spacing gives 0.628 rad.
  const cxd g = gamma_toa(5e-9, 20e6);
  EXPECT_NEAR(std::arg(g), -0.628, 1e-3);
}

TEST(Steering, JointVectorHasKroneckerStructure) {
  const ArrayConfig cfg;
  const double theta = 72.0;
  const double tau = 230e-9;
  const auto joint = steering_joint(theta, tau, cfg);
  ASSERT_EQ(joint.size(), cfg.num_antennas * cfg.num_subcarriers);
  const cxd lam = lambda_aoa(theta, cfg.spacing_over_wavelength());
  const cxd gam = gamma_toa(tau, cfg.subcarrier_spacing_hz);
  for (index_t l = 0; l < cfg.num_subcarriers; ++l) {
    for (index_t m = 0; m < cfg.num_antennas; ++m) {
      const cxd expect = std::pow(lam, static_cast<double>(m)) *
                         std::pow(gam, static_cast<double>(l));
      EXPECT_NEAR(std::abs(joint[l * cfg.num_antennas + m] - expect), 0.0, 1e-9);
    }
  }
}

TEST(Steering, JointAtZeroToaReplicatesSpatialVector) {
  const ArrayConfig cfg;
  const auto joint = steering_joint(60.0, 0.0, cfg);
  const auto spatial = steering_aoa(60.0, cfg);
  for (index_t l = 0; l < cfg.num_subcarriers; ++l) {
    for (index_t m = 0; m < cfg.num_antennas; ++m) {
      EXPECT_NEAR(std::abs(joint[l * cfg.num_antennas + m] - spatial[m]), 0.0,
                  1e-12);
    }
  }
}

TEST(Steering, MatrixColumnsMatchVectors) {
  const ArrayConfig cfg;
  const Grid aoa(0.0, 180.0, 19);
  const auto a = steering_matrix_aoa(aoa, cfg);
  ASSERT_EQ(a.rows(), cfg.num_antennas);
  ASSERT_EQ(a.cols(), 19);
  for (index_t i = 0; i < 19; ++i) {
    const auto s = steering_aoa(aoa[i], cfg);
    for (index_t r = 0; r < a.rows(); ++r) {
      EXPECT_NEAR(std::abs(a(r, i) - s[r]), 0.0, 1e-12);
    }
  }
}

TEST(Steering, JointMatrixColumnOrderIsAoaFastest) {
  const ArrayConfig cfg;
  const Grid aoa(0.0, 180.0, 5);
  const Grid toa(0.0, 400e-9, 3);
  const auto s = steering_matrix_joint(aoa, toa, cfg);
  ASSERT_EQ(s.cols(), 15);
  // Column (j * Nth + i) must equal steering_joint(aoa[i], toa[j]).
  const index_t i = 3, j = 2;
  const auto expect = steering_joint(aoa[i], toa[j], cfg);
  const auto col = s.col_vec(j * 5 + i);
  roarray::testing::expect_vec_near(col, expect, 1e-12, "joint column");
}

TEST(Steering, ToaMatrixColumnsArePowersOfGamma) {
  const ArrayConfig cfg;
  const Grid toa(0.0, 600e-9, 7);
  const auto a = steering_matrix_toa(toa, cfg);
  ASSERT_EQ(a.rows(), cfg.num_subcarriers);
  for (index_t j = 0; j < 7; ++j) {
    const cxd gam = gamma_toa(toa[j], cfg.subcarrier_spacing_hz);
    for (index_t l = 0; l < a.rows(); ++l) {
      EXPECT_NEAR(std::abs(a(l, j) - std::pow(gam, static_cast<double>(l))),
                  0.0, 1e-9);
    }
  }
}

/// Distinct grid angles must give distinguishable steering vectors
/// (injectivity of the parameterization on (0, 180)).
class SteeringDistinct : public ::testing::TestWithParam<double> {};

TEST_P(SteeringDistinct, NeighboringAnglesAreNotCollinear) {
  const ArrayConfig cfg;
  const double theta = GetParam();
  const auto s1 = steering_aoa(theta, cfg);
  const auto s2 = steering_aoa(theta + 2.0, cfg);
  const double corr = std::abs(dot(s1, s2)) / (norm2(s1) * norm2(s2));
  EXPECT_LT(corr, 1.0 - 1e-6) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SteeringDistinct,
                         ::testing::Values(5.0, 30.0, 60.0, 88.0, 120.0, 980.0 / 7));

}  // namespace
}  // namespace roarray::dsp
