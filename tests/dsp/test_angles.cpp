#include "dsp/angles.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "dsp/constants.hpp"
#include "dsp/steering.hpp"

namespace roarray::dsp {
namespace {

TEST(Angles, DegRadRoundTrip) {
  for (double d : {-270.0, -90.0, 0.0, 45.0, 180.0, 359.0}) {
    EXPECT_NEAR(rad_to_deg(deg_to_rad(d)), d, 1e-12);
  }
}

TEST(Angles, Wrap360) {
  EXPECT_DOUBLE_EQ(wrap_deg_360(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_deg_360(360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_deg_360(-30.0), 330.0);
  EXPECT_DOUBLE_EQ(wrap_deg_360(725.0), 5.0);
}

// wrap_deg_360 skips std::fmod inside (-360, 360), where fmod is exact
// and returns its argument; the result must match the plain fmod form
// bit for bit everywhere, signed zeros and non-finite inputs included.
TEST(Angles, Wrap360MatchesFmodFormBitForBit) {
  const auto via_fmod = [](double deg) {
    double w = std::fmod(deg, 360.0);
    if (w < 0.0) w += 360.0;
    return w;
  };
  const double below = std::nextafter(360.0, 0.0);  // 359.999...
  // volatile keeps the compiler from folding either side at compile time.
  volatile double inputs[] = {0.0, -0.0, below, -below, 360.0, -360.0,
                              1e300, -1e300, -30.0, 725.0, 1e-300, -1e-300,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  for (const double deg : inputs) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(wrap_deg_360(deg)),
              std::bit_cast<std::uint64_t>(via_fmod(deg)))
        << "deg " << deg;
  }
}

TEST(Angles, Wrap180) {
  EXPECT_DOUBLE_EQ(wrap_deg_180(180.0), 180.0);
  EXPECT_DOUBLE_EQ(wrap_deg_180(181.0), -179.0);
  EXPECT_DOUBLE_EQ(wrap_deg_180(-181.0), 179.0);
}

TEST(Angles, AngleDiffSymmetricAndBounded) {
  EXPECT_DOUBLE_EQ(angle_diff_deg(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(90.0, 90.0), 0.0);
}

TEST(Angles, FoldToUlaRange) {
  EXPECT_DOUBLE_EQ(fold_to_ula_range(45.0), 45.0);
  EXPECT_DOUBLE_EQ(fold_to_ula_range(180.0), 180.0);
  // Mirror symmetry across the array axis: 200 deg looks like 160 deg.
  EXPECT_DOUBLE_EQ(fold_to_ula_range(200.0), 160.0);
  EXPECT_DOUBLE_EQ(fold_to_ula_range(-45.0), 45.0);
  EXPECT_DOUBLE_EQ(fold_to_ula_range(359.0), 1.0);
}

TEST(Angles, RadDegRoundTripBothDirectionsAndLargeMagnitudes) {
  for (double r : {-3.0 * kPi, -kPi, -0.5, 0.0, 1e-9, kPi / 6.0, 2.0 * kPi}) {
    EXPECT_NEAR(deg_to_rad(rad_to_deg(r)), r, 1e-15);
  }
  // Large magnitudes keep relative (not absolute) precision.
  for (double d : {-3.6e7, 1e6, 7.2e8}) {
    EXPECT_NEAR(rad_to_deg(deg_to_rad(d)), d, 1e-6 * std::abs(d));
  }
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi / 2.0), 90.0);
}

TEST(Angles, FoldIsContinuousAndSymmetricAtBroadside) {
  // +-90 deg is broadside to the ULA axis; folding maps both sides of
  // the array onto the same [0, 180] range without a jump there.
  EXPECT_DOUBLE_EQ(fold_to_ula_range(90.0), 90.0);
  EXPECT_DOUBLE_EQ(fold_to_ula_range(-90.0), 90.0);
  EXPECT_DOUBLE_EQ(fold_to_ula_range(270.0), 90.0);
  const double eps = 1e-9;
  EXPECT_NEAR(fold_to_ula_range(90.0 + eps), 90.0 + eps, 1e-12);
  EXPECT_NEAR(fold_to_ula_range(90.0 - eps), 90.0 - eps, 1e-12);
  EXPECT_NEAR(fold_to_ula_range(-90.0 - eps), 90.0 + eps, 1e-12);
  EXPECT_NEAR(fold_to_ula_range(-90.0 + eps), 90.0 - eps, 1e-12);
}

TEST(Angles, WrapBoundariesAreHalfOpen) {
  // wrap_deg_360 -> [0, 360): the upper endpoint maps to 0.
  EXPECT_DOUBLE_EQ(wrap_deg_360(360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_deg_360(-360.0), 0.0);
  EXPECT_LT(wrap_deg_360(359.9999999), 360.0);
  // wrap_deg_180 -> (-180, 180]: exactly -180 folds to +180.
  EXPECT_DOUBLE_EQ(wrap_deg_180(-180.0), 180.0);
  EXPECT_DOUBLE_EQ(wrap_deg_180(540.0), 180.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(90.0, 270.0), 180.0);
  EXPECT_NEAR(angle_diff_deg(89.9, -89.9), 179.8, 1e-9);
}

TEST(Angles, DegenerateSpacingCarriesNoAoaInformation) {
  // d/lambda = 0 collapses the array to a point: the inter-antenna
  // phase ratio is exactly 1 regardless of the arrival angle, so the
  // steering model degenerates and AoA becomes unobservable.
  for (double theta : {0.0, 30.0, 90.0, 150.0, 180.0}) {
    const cxd r = lambda_aoa(theta, 0.0);
    EXPECT_NEAR(r.real(), 1.0, 1e-15) << "theta " << theta;
    EXPECT_NEAR(r.imag(), 0.0, 1e-15) << "theta " << theta;
  }
  // At exactly half-wavelength spacing both endfire directions hit the
  // same ratio e^{-+j pi} = -1: the edge of the unambiguous regime.
  const cxd e0 = lambda_aoa(0.0, 0.5);
  const cxd e180 = lambda_aoa(180.0, 0.5);
  EXPECT_NEAR(std::abs(e0 - cxd(-1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(e0 - e180), 0.0, 1e-12);
}

TEST(Angles, ValidateRejectsAliasingSpacing) {
  ArrayConfig cfg;
  cfg.antenna_spacing_m = cfg.wavelength_m / 2.0;  // exactly lambda/2: legal.
  EXPECT_NO_THROW(cfg.validate());
  cfg.antenna_spacing_m = cfg.wavelength_m / 2.0 + 1e-6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.antenna_spacing_m = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Angles, SteeringMirrorAmbiguityMatchesFolding) {
  // A bearing and its fold into [0, 180] produce identical steering
  // vectors — the physical ambiguity fold_to_ula_range encodes.
  const ArrayConfig cfg;
  for (double bearing : {200.0, 275.0, -45.0, 351.0}) {
    const CVec a = steering_aoa(bearing, cfg);
    const CVec b = steering_aoa(fold_to_ula_range(bearing), cfg);
    ASSERT_EQ(a.size(), b.size());
    for (linalg::index_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12) << "bearing " << bearing;
    }
  }
}

TEST(Angles, FoldedAoaSeparationWrapsAcrossTheEndfireAlias) {
  // 2 deg and 178 deg straddle the fold: physically 4 deg apart at
  // half-wavelength spacing (a(0) == a(180)), not 176.
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(2.0, 178.0), 4.0);
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(178.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(0.0, 180.0), 0.0);
  // Interior angles keep the plain difference.
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(80.0, 96.0), 16.0);
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(45.0, 135.0), 90.0);
  // Inputs outside [0, 180] are folded first: -2 mirrors to 2.
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(-2.0, 178.0), 4.0);
  EXPECT_DOUBLE_EQ(folded_aoa_separation_deg(182.0, 2.0), 4.0);
}

TEST(Angles, AoaWrapPeriodDetectsTheCircularGrid) {
  const ArrayConfig half_wavelength;  // d / lambda == 0.5 exactly
  ASSERT_DOUBLE_EQ(half_wavelength.spacing_over_wavelength(), 0.5);
  // Full [0, 180] grid at lambda/2: endpoints alias, period = n - 1.
  EXPECT_EQ(aoa_wrap_period(Grid(0.0, 180.0, 91), half_wavelength), 90);
  EXPECT_EQ(aoa_wrap_period(Grid(0.0, 180.0, 61), half_wavelength), 60);
  // Partial grids are not circular.
  EXPECT_EQ(aoa_wrap_period(Grid(0.0, 170.0, 18), half_wavelength), 0);
  EXPECT_EQ(aoa_wrap_period(Grid(10.0, 180.0, 18), half_wavelength), 0);
  // Sub-half-wavelength spacing: a(0) != a(180), endpoints distinct.
  ArrayConfig narrow = half_wavelength;
  narrow.antenna_spacing_m = 0.4 * narrow.wavelength_m;
  EXPECT_EQ(aoa_wrap_period(Grid(0.0, 180.0, 91), narrow), 0);
  // Degenerate grids never wrap.
  EXPECT_EQ(aoa_wrap_period(Grid(0.0, 180.0, 2), half_wavelength), 0);
}

class AngleDiffProperty : public ::testing::TestWithParam<double> {};

TEST_P(AngleDiffProperty, InvariantUnderFullTurns) {
  const double a = GetParam();
  const double b = 77.0;
  EXPECT_NEAR(angle_diff_deg(a, b), angle_diff_deg(a + 360.0, b), 1e-10);
  EXPECT_NEAR(angle_diff_deg(a, b), angle_diff_deg(a, b - 720.0), 1e-10);
  EXPECT_LE(angle_diff_deg(a, b), 180.0);
  EXPECT_GE(angle_diff_deg(a, b), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AngleDiffProperty,
                         ::testing::Values(-350.0, -180.0, -10.0, 0.0, 33.3,
                                           90.0, 179.0, 270.0, 359.9));

}  // namespace
}  // namespace roarray::dsp
