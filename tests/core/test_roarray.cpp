#include "core/roarray.hpp"

#include <gtest/gtest.h>

#include "channel/csi.hpp"
#include "../test_util.hpp"

namespace roarray::core {
namespace {

namespace rt = roarray::testing;
using channel::Path;
using linalg::cxd;

const dsp::ArrayConfig kArray;

Path make_path(double aoa, double toa, cxd gain) {
  Path p;
  p.aoa_deg = aoa;
  p.toa_s = toa;
  p.gain = gain;
  return p;
}

std::vector<linalg::CMat> noisy_packets(const std::vector<Path>& paths,
                                        double snr_db, linalg::index_t n,
                                        std::uint64_t seed,
                                        double max_delay = 100e-9) {
  auto rng = rt::make_rng(seed);
  channel::BurstConfig bc;
  bc.num_packets = n;
  bc.snr_db = snr_db;
  bc.max_detection_delay_s = max_delay;
  return channel::generate_burst(paths, kArray, bc, rng).csi;
}

TEST(StackCsi, OrderingMatchesEq15) {
  linalg::CMat csi(3, 30);
  csi(2, 0) = cxd{1.0, 0.0};   // antenna 3, subcarrier 1
  csi(0, 29) = cxd{2.0, 0.0};  // antenna 1, subcarrier 30
  const linalg::CVec y = stack_csi(csi);
  ASSERT_EQ(y.size(), 90);
  EXPECT_EQ(y[2], (cxd{1.0, 0.0}));
  EXPECT_EQ(y[29 * 3 + 0], (cxd{2.0, 0.0}));
}

TEST(CoefficientsToSpectrum, ReshapeAndNormalization) {
  const dsp::Grid aoa(0.0, 180.0, 4);
  const dsp::Grid toa(0.0, 700e-9, 3);
  linalg::CVec c(12);
  c[2 * 4 + 1] = cxd{0.0, 2.0};  // (aoa index 1, toa index 2), magnitude 2
  c[0] = cxd{1.0, 0.0};
  const auto spec = coefficients_to_spectrum(c, aoa, toa);
  EXPECT_DOUBLE_EQ(spec.values(1, 2), 1.0);  // normalized peak
  EXPECT_DOUBLE_EQ(spec.values(0, 0), 0.5);
  EXPECT_THROW(coefficients_to_spectrum(linalg::CVec(11), aoa, toa),
               std::invalid_argument);
}

TEST(RoArray, SinglePacketSinglePathHighSnr) {
  const auto packets =
      noisy_packets({make_path(110.0, 50e-9, cxd{1.0, 0.0})}, 25.0, 1, 301);
  RoArrayConfig cfg;
  const RoArrayResult r = roarray_estimate(packets, cfg, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct.aoa_deg, 110.0, 5.0);
}

TEST(RoArray, DirectPathIsSmallestToaAmongPaths) {
  const std::vector<Path> paths = {
      make_path(120.0, 60e-9, cxd{1.0, 0.0}),
      make_path(55.0, 240e-9, cxd{0.5, 0.3}),
  };
  const auto packets = noisy_packets(paths, 25.0, 1, 302);
  RoArrayConfig cfg;
  const RoArrayResult r = roarray_estimate(packets, cfg, kArray);
  ASSERT_TRUE(r.valid);
  ASSERT_GE(r.paths.size(), 2u);
  EXPECT_NEAR(r.direct.aoa_deg, 120.0, 5.0);
  for (const PathEstimate& p : r.paths) {
    EXPECT_GE(p.toa_s, r.direct.toa_s);
  }
}

TEST(RoArray, ResolvesMorePathsThanAntennas) {
  // 4 paths > M = 3 antennas: only possible thanks to the subcarrier
  // aperture expansion (paper Section III-B).
  const std::vector<Path> paths = {
      make_path(40.0, 50e-9, cxd{1.0, 0.0}),
      make_path(80.0, 180e-9, cxd{0.8, 0.2}),
      make_path(120.0, 320e-9, cxd{0.7, -0.3}),
      make_path(160.0, 470e-9, cxd{0.6, 0.1}),
  };
  const auto packets = noisy_packets(paths, 30.0, 1, 303, 0.0);
  RoArrayConfig cfg;
  cfg.sanitize = false;  // keep absolute ToAs
  cfg.solver.max_iterations = 800;
  const RoArrayResult r = roarray_estimate(packets, cfg, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_GE(r.paths.size(), 4u);
  // Each true path matched by some estimate within grid resolution.
  for (const Path& truth : paths) {
    double best = 1e9;
    for (const PathEstimate& est : r.paths) {
      best = std::min(best, std::abs(est.aoa_deg - truth.aoa_deg));
    }
    EXPECT_LT(best, 6.0) << "path at " << truth.aoa_deg;
  }
}

TEST(RoArray, PeakSeparationConfigControlsResolvability) {
  // Two strong paths 8 deg (4 bins of the default 2-deg AoA grid) apart
  // with nearby ToAs. With the minimum separation at 1 bin both are
  // resolved; widening the exclusion window to 10 bins (20 deg) merges
  // them into a single reported path in that angular window.
  const std::vector<Path> paths = {
      make_path(90.0, 60e-9, cxd{1.0, 0.0}),
      make_path(98.0, 120e-9, cxd{0.9, 0.2}),
  };
  const auto packets = noisy_packets(paths, 30.0, 1, 304, 0.0);
  const auto count_in_window = [](const RoArrayResult& r) {
    std::size_t n = 0;
    for (const PathEstimate& p : r.paths) {
      if (p.aoa_deg >= 84.0 && p.aoa_deg <= 104.0) ++n;
    }
    return n;
  };

  RoArrayConfig tight;
  tight.sanitize = false;
  tight.solver.max_iterations = 800;
  tight.min_peak_sep_aoa = 1;
  tight.min_peak_sep_toa = 1;
  const RoArrayResult resolved = roarray_estimate(packets, tight, kArray);
  ASSERT_TRUE(resolved.valid);
  EXPECT_GE(count_in_window(resolved), 2u);

  RoArrayConfig coarse = tight;
  coarse.min_peak_sep_aoa = 10;
  coarse.min_peak_sep_toa = 5;
  const RoArrayResult merged = roarray_estimate(packets, coarse, kArray);
  ASSERT_TRUE(merged.valid);
  EXPECT_EQ(count_in_window(merged), 1u);
}

TEST(RoArray, InsensitiveToModelOrder) {
  // No K anywhere in the configuration: the same config handles 1 and 4
  // paths. (Contrast with MUSIC baselines that need K.)
  RoArrayConfig cfg;
  const auto one = noisy_packets({make_path(90.0, 60e-9, cxd{1.0, 0.0})}, 22.0,
                                 1, 304);
  const RoArrayResult r1 = roarray_estimate(one, cfg, kArray);
  ASSERT_TRUE(r1.valid);
  EXPECT_NEAR(r1.direct.aoa_deg, 90.0, 5.0);

  const std::vector<Path> four = {
      make_path(60.0, 55e-9, cxd{1.0, 0.0}),
      make_path(100.0, 200e-9, cxd{0.6, 0.1}),
      make_path(140.0, 350e-9, cxd{0.5, -0.2}),
      make_path(30.0, 500e-9, cxd{0.4, 0.3}),
  };
  const RoArrayResult r4 =
      roarray_estimate(noisy_packets(four, 22.0, 1, 305), cfg, kArray);
  ASSERT_TRUE(r4.valid);
  EXPECT_NEAR(r4.direct.aoa_deg, 60.0, 6.0);
}

TEST(RoArray, CoarseToFineAgreesWithFullGridSolve) {
  // The pruned factored-dictionary path must land on the same direct
  // path as the full-grid solve, to within grid resolution. Exercised
  // both single-packet (one column) and multi-packet (l1-SVD columns).
  const std::vector<Path> paths = {
      make_path(105.0, 70e-9, cxd{1.0, 0.0}),
      make_path(48.0, 260e-9, cxd{0.5, 0.2}),
  };
  for (linalg::index_t packets : {linalg::index_t{1}, linalg::index_t{4}}) {
    const auto burst = noisy_packets(paths, 22.0, packets, 310 + packets);
    RoArrayConfig full;
    const RoArrayResult ref = roarray_estimate(burst, full, kArray);
    ASSERT_TRUE(ref.valid);

    RoArrayConfig cf = full;
    cf.coarse_fine.enabled = true;
    const RoArrayResult fast = roarray_estimate(burst, cf, kArray);
    ASSERT_TRUE(fast.valid) << "packets " << packets;
    EXPECT_NEAR(fast.direct.aoa_deg, ref.direct.aoa_deg,
                2.0 * full.aoa_grid.step())
        << "packets " << packets;
    EXPECT_NEAR(fast.direct.toa_s, ref.direct.toa_s,
                2.0 * full.toa_grid.step())
        << "packets " << packets;
  }
}

TEST(RoArray, CoarseToFineHonorsIterationCallbackInFullCoordinates) {
  // Callback vectors from the restricted solve are scattered back to
  // the full grid so observers see consistent coefficient shapes.
  const auto packets =
      noisy_packets({make_path(130.0, 70e-9, cxd{1.0, 0.0})}, 20.0, 1, 311);
  RoArrayConfig cfg;
  cfg.coarse_fine.enabled = true;
  cfg.solver.max_iterations = 10;
  cfg.solver.tolerance = 0.0;
  const linalg::index_t full_cols =
      cfg.aoa_grid.size() * cfg.toa_grid.size();
  int calls = 0;
  bool shapes_ok = true;
  const RoArrayResult r = roarray_estimate(
      packets, cfg, kArray, [&](int, const linalg::CMat& x) {
        ++calls;
        shapes_ok = shapes_ok && x.rows() == full_cols && x.cols() == 1;
      });
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(calls, 10);
  EXPECT_TRUE(shapes_ok);
}

TEST(RoArray, SanitizePlacesDirectNearRebias) {
  const auto packets =
      noisy_packets({make_path(75.0, 40e-9, cxd{1.0, 0.0})}, 25.0, 1, 306);
  RoArrayConfig cfg;  // sanitize on, rebias 100 ns
  const RoArrayResult r = roarray_estimate(packets, cfg, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct.toa_s, 100e-9, 60e-9);
}

TEST(RoArray, WithoutSanitizeToaIncludesDetectionDelay) {
  // One packet with a 200 ns detection delay: estimated ToA shifts.
  channel::CsiImpairments imp;
  imp.detection_delay_s = 200e-9;
  const linalg::CMat csi = channel::synthesize_csi(
      {make_path(100.0, 60e-9, cxd{1.0, 0.0})}, kArray, imp);
  RoArrayConfig cfg;
  cfg.sanitize = false;
  const std::vector<linalg::CMat> packets = {csi};
  const RoArrayResult r = roarray_estimate(packets, cfg, kArray);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.direct.toa_s, 260e-9, 40e-9);
}

TEST(RoArray, IterationCallbackTracksProgress) {
  const auto packets =
      noisy_packets({make_path(130.0, 70e-9, cxd{1.0, 0.0})}, 20.0, 1, 307);
  RoArrayConfig cfg;
  cfg.solver.max_iterations = 25;
  cfg.solver.tolerance = 0.0;
  int calls = 0;
  const RoArrayResult r = roarray_estimate(
      packets, cfg, kArray, [&](int, const linalg::CMat&) { ++calls; });
  EXPECT_EQ(calls, 25);
  EXPECT_EQ(r.solver_iterations, 25);
}

TEST(RoArray, EmptyAndMalformedInputsThrow) {
  RoArrayConfig cfg;
  EXPECT_THROW(roarray_estimate({}, cfg, kArray), std::invalid_argument);
  const std::vector<linalg::CMat> bad = {linalg::CMat(2, 30)};
  EXPECT_THROW(roarray_estimate(bad, cfg, kArray), std::invalid_argument);
}

TEST(RoArray, NonPositiveMaxPathsThrowsForEveryBurstSize) {
  // max_paths caps the MDL fusion rank and the peak count; below 1 the
  // rank clamp has no valid range, so the estimator rejects the config
  // up front, for a single packet as for a fused burst.
  const std::vector<Path> paths = {make_path(90.0, 80e-9, cxd{1.0, 0.0})};
  for (linalg::index_t packets : {linalg::index_t{1}, linalg::index_t{3}}) {
    const auto burst = noisy_packets(paths, 25.0, packets, 320 + packets);
    for (const linalg::index_t max_paths :
         {linalg::index_t{0}, linalg::index_t{-2}}) {
      RoArrayConfig cfg;
      cfg.max_paths = max_paths;
      EXPECT_THROW(roarray_estimate(burst, cfg, kArray), std::invalid_argument)
          << "packets " << packets << " max_paths " << max_paths;
    }
    RoArrayConfig one;
    one.max_paths = 1;
    const RoArrayResult r = roarray_estimate(burst, one, kArray);
    EXPECT_TRUE(r.valid) << "packets " << packets;
    EXPECT_EQ(r.paths.size(), 1u) << "packets " << packets;
  }
}

TEST(RoArrayAoaSpectrum, PeaksAtTrueAngle) {
  auto rng = rt::make_rng(308);
  linalg::CMat csi = channel::synthesize_csi(
      {make_path(65.0, 90e-9, cxd{1.0, 0.0})}, kArray);
  channel::add_noise(csi, 20.0, rng);
  const auto spec =
      roarray_aoa_spectrum(csi, dsp::Grid(0.0, 180.0, 91), kArray);
  const auto peaks = spec.find_peaks(1);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks[0].aoa_deg, 65.0, 4.0);
}

TEST(RoArrayAoaSpectrum, SparseSpectrumIsSharp) {
  // Most grid weights must be (near) zero — the defining property of the
  // sparse formulation vs the smooth MUSIC pseudo-spectrum.
  auto rng = rt::make_rng(309);
  linalg::CMat csi = channel::synthesize_csi(
      {make_path(125.0, 90e-9, cxd{1.0, 0.0})}, kArray);
  channel::add_noise(csi, 15.0, rng);
  const auto spec =
      roarray_aoa_spectrum(csi, dsp::Grid(0.0, 180.0, 91), kArray);
  linalg::index_t near_zero = 0;
  for (linalg::index_t i = 0; i < spec.values.size(); ++i) {
    if (spec.values[i] < 0.02) ++near_zero;
  }
  EXPECT_GT(near_zero, 70);  // > ~77% of the 91 grid points empty
}

class RoArraySnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(RoArraySnrSweep, DirectAoaAcrossSnr) {
  const double snr = GetParam();
  const std::vector<Path> paths = {
      make_path(115.0, 55e-9, cxd{1.0, 0.0}),
      make_path(60.0, 230e-9, cxd{0.45, 0.2}),
  };
  const auto packets = noisy_packets(
      paths, snr, 5, static_cast<std::uint64_t>(400 + snr * 3));
  RoArrayConfig cfg;
  const RoArrayResult r = roarray_estimate(packets, cfg, kArray);
  ASSERT_TRUE(r.valid);
  // Tolerance widens as SNR falls but stays bounded — the robustness
  // claim under test.
  const double tol = snr >= 15.0 ? 6.0 : (snr >= 5.0 ? 8.0 : 14.0);
  EXPECT_NEAR(r.direct.aoa_deg, 115.0, tol) << "snr " << snr;
}

INSTANTIATE_TEST_SUITE_P(Snr, RoArraySnrSweep,
                         ::testing::Values(25.0, 15.0, 8.0, 2.0, 0.0));

}  // namespace
}  // namespace roarray::core
