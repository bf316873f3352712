#include "core/calibration.hpp"

#include <gtest/gtest.h>

#include "channel/csi.hpp"
#include "core/roarray.hpp"
#include "dsp/angles.hpp"
#include "../test_util.hpp"

namespace roarray::core {
namespace {

namespace rt = roarray::testing;
using channel::Path;
using linalg::CMat;
using linalg::cxd;

const dsp::ArrayConfig kArray;

std::vector<CMat> offset_packets(const std::vector<double>& offsets,
                                 double snr_db, linalg::index_t n,
                                 std::uint64_t seed) {
  Path direct;
  direct.aoa_deg = 118.0;
  direct.toa_s = 60e-9;
  direct.gain = cxd{1.0, 0.0};
  Path refl;
  refl.aoa_deg = 55.0;
  refl.toa_s = 200e-9;
  refl.gain = cxd{0.4, 0.2};
  auto rng = rt::make_rng(seed);
  channel::BurstConfig bc;
  bc.num_packets = n;
  bc.snr_db = snr_db;
  bc.antenna_phase_offsets_rad = offsets;
  return channel::generate_burst({direct, refl}, kArray, bc, rng).csi;
}

double wrapped_offset_error(double est, double truth) {
  double d = std::fmod(est - truth, 2.0 * dsp::kPi);
  if (d > dsp::kPi) d -= 2.0 * dsp::kPi;
  if (d < -dsp::kPi) d += 2.0 * dsp::kPi;
  return std::abs(d);
}

TEST(Calibration, ApplyPhaseCorrectionInvertsImpairment) {
  const std::vector<double> offsets = {0.0, 1.3, -0.9};
  const auto dirty = offset_packets(offsets, 40.0, 1, 351);
  const auto clean = offset_packets({0.0, 0.0, 0.0}, 40.0, 1, 351);
  const CMat corrected = apply_phase_correction(dirty[0], offsets);
  // Same seed means same noise; correction must undo the rotation
  // exactly (noise is rotated too, but |difference| stays tiny at 40 dB).
  rt::expect_mat_near(corrected, clean[0], 0.05, "correction inverts offsets");
}

TEST(Calibration, ApplyPhaseCorrectionWrongCountThrows) {
  const CMat csi(3, 30);
  const std::vector<double> two = {0.0, 1.0};
  EXPECT_THROW(apply_phase_correction(csi, two), std::invalid_argument);
}

TEST(Calibration, RecoversInjectedOffsetsWithRoArraySpectrum) {
  const std::vector<double> truth = {0.0, 2.1, 0.7};
  const auto packets = offset_packets(truth, 25.0, 3, 352);
  CalibrationConfig cfg;
  cfg.method = CalibrationMethod::kRoArray;
  const CalibrationResult r = estimate_phase_offsets(packets, 118.0, kArray, cfg);
  ASSERT_EQ(r.offsets_rad.size(), 3u);
  EXPECT_DOUBLE_EQ(r.offsets_rad[0], 0.0);
  EXPECT_LT(wrapped_offset_error(r.offsets_rad[1], truth[1]), 0.35);
  EXPECT_LT(wrapped_offset_error(r.offsets_rad[2], truth[2]), 0.35);
}

TEST(Calibration, MusicMethodAlsoRecoversOffsets) {
  const std::vector<double> truth = {0.0, 0.9, 2.6};
  const auto packets = offset_packets(truth, 25.0, 3, 353);
  CalibrationConfig cfg;
  cfg.method = CalibrationMethod::kMusic;
  const CalibrationResult r = estimate_phase_offsets(packets, 118.0, kArray, cfg);
  EXPECT_LT(wrapped_offset_error(r.offsets_rad[1], truth[1]), 0.6);
  EXPECT_LT(wrapped_offset_error(r.offsets_rad[2], truth[2]), 0.6);
}

TEST(Calibration, CorrectionRestoresAoaAccuracy) {
  const std::vector<double> truth = {0.0, 2.4, 1.1};
  const auto packets = offset_packets(truth, 25.0, 3, 354);
  // Uncalibrated estimate is way off; calibrated estimate is accurate.
  RoArrayConfig rcfg;
  const RoArrayResult dirty = roarray_estimate(packets, rcfg, kArray);
  const CalibrationResult cal = estimate_phase_offsets(packets, 118.0, kArray);
  std::vector<CMat> corrected;
  for (const CMat& c : packets) {
    corrected.push_back(apply_phase_correction(c, cal.offsets_rad));
  }
  const RoArrayResult clean = roarray_estimate(corrected, rcfg, kArray);
  ASSERT_TRUE(clean.valid);
  const double clean_err = std::abs(clean.direct.aoa_deg - 118.0);
  EXPECT_LT(clean_err, 10.0);
  if (dirty.valid) {
    EXPECT_LE(clean_err, std::abs(dirty.direct.aoa_deg - 118.0) + 1.0);
  }
}

TEST(Calibration, ZeroOffsetsEstimatedAsNearZero) {
  const auto packets = offset_packets({0.0, 0.0, 0.0}, 30.0, 2, 355);
  const CalibrationResult r = estimate_phase_offsets(packets, 118.0, kArray);
  EXPECT_LT(wrapped_offset_error(r.offsets_rad[1], 0.0), 0.3);
  EXPECT_LT(wrapped_offset_error(r.offsets_rad[2], 0.0), 0.3);
}

TEST(Calibration, InvalidInputsThrow) {
  EXPECT_THROW(estimate_phase_offsets({}, 118.0, kArray), std::invalid_argument);
  dsp::ArrayConfig big;
  big.num_antennas = 5;
  big.antenna_spacing_m = big.wavelength_m / 2.0;
  const std::vector<CMat> packets = {CMat(5, 30)};
  EXPECT_THROW(estimate_phase_offsets(packets, 90.0, big), std::invalid_argument);
}

TEST(Calibration, SharpnessImprovesWithCorrectOffsets) {
  const std::vector<double> truth = {0.0, 1.8, 2.9};
  const auto packets = offset_packets(truth, 25.0, 2, 357);
  const CalibrationResult r = estimate_phase_offsets(packets, 118.0, kArray);
  // The optimizer's sharpness at the optimum must beat the sharpness of
  // the uncorrected hypothesis (all zeros).
  EXPECT_GT(r.sharpness, 1.0);
}

}  // namespace
}  // namespace roarray::core
