#include "music/smoothing.hpp"

#include <gtest/gtest.h>

#include "channel/csi.hpp"
#include "dsp/steering.hpp"
#include "linalg/eig.hpp"
#include "music/covariance.hpp"
#include "../test_util.hpp"

namespace roarray::music {
namespace {

namespace rt = roarray::testing;
using linalg::cxd;

TEST(Smoothing, OutputDimensionsMatchWindowCounts) {
  const CMat csi(3, 30);
  const SmoothingConfig cfg;  // 2 x 15
  const CMat s = smooth_csi(csi, cfg);
  EXPECT_EQ(s.rows(), 30);   // 2 * 15
  EXPECT_EQ(s.cols(), 32);   // (3-2+1) * (30-15+1)
}

TEST(Smoothing, WindowMustFit) {
  const CMat csi(3, 30);
  EXPECT_THROW(smooth_csi(csi, {.sub_antennas = 4, .sub_carriers = 15}),
               std::invalid_argument);
  EXPECT_THROW(smooth_csi(csi, {.sub_antennas = 2, .sub_carriers = 31}),
               std::invalid_argument);
  EXPECT_THROW(smooth_csi(csi, {.sub_antennas = 0, .sub_carriers = 15}),
               std::invalid_argument);
}

TEST(Smoothing, FullWindowIsStackedCsi) {
  auto rng = rt::make_rng(111);
  const CMat csi = rt::random_cmat(3, 30, rng);
  const CMat s = smooth_csi(csi, {.sub_antennas = 3, .sub_carriers = 30});
  ASSERT_EQ(s.cols(), 1);
  for (linalg::index_t l = 0; l < 30; ++l) {
    for (linalg::index_t m = 0; m < 3; ++m) {
      EXPECT_EQ(s(l * 3 + m, 0), csi(m, l));
    }
  }
}

TEST(Smoothing, SnapshotsFollowSubSteeringModel) {
  // A single path's smoothed snapshots must all be scalar multiples of
  // the sub-array steering vector: that is what makes joint MUSIC valid.
  const dsp::ArrayConfig cfg;
  channel::Path p;
  p.aoa_deg = 77.0;
  p.toa_s = 210e-9;
  p.gain = cxd{1.0, 0.5};
  const CMat csi = channel::synthesize_csi({p}, cfg);
  const SmoothingConfig sc;
  const CMat snaps = smooth_csi(csi, sc);
  // The sub-array steering vector b(tau) (x) a(theta) over the leading
  // rows of the factor matrices' columns, the layout music_spectrum_joint
  // contracts against.
  const CMat a_theta =
      dsp::steering_matrix_aoa(dsp::Grid(p.aoa_deg, p.aoa_deg, 1), cfg);
  const CMat a_tau = dsp::steering_matrix_toa(dsp::Grid(p.toa_s, p.toa_s, 1), cfg);
  linalg::CVec steer(sc.sub_antennas * sc.sub_carriers);
  for (linalg::index_t l = 0; l < sc.sub_carriers; ++l) {
    for (linalg::index_t m = 0; m < sc.sub_antennas; ++m) {
      steer[l * sc.sub_antennas + m] = a_tau(l, 0) * a_theta(m, 0);
    }
  }
  for (linalg::index_t j = 0; j < snaps.cols(); ++j) {
    // Correlation |<snap, steer>| / (||snap|| ||steer||) == 1.
    const auto snap = snaps.col_vec(j);
    const double corr =
        std::abs(dot(snap, steer)) / (norm2(snap) * norm2(steer));
    EXPECT_NEAR(corr, 1.0, 1e-10) << "snapshot " << j;
  }
}

TEST(Smoothing, RestoresRankForJointMusic) {
  // One packet = one rank-1 stacked snapshot, but smoothing yields
  // snapshots spanning a higher-dimensional space for 2 paths.
  const dsp::ArrayConfig cfg;
  channel::Path p1;
  p1.aoa_deg = 50.0;
  p1.toa_s = 80e-9;
  p1.gain = cxd{1.0, 0.0};
  channel::Path p2;
  p2.aoa_deg = 130.0;
  p2.toa_s = 320e-9;
  p2.gain = cxd{0.7, 0.2};
  const CMat csi = channel::synthesize_csi({p1, p2}, cfg);
  const CMat snaps = smooth_csi(csi, SmoothingConfig{});
  const CMat r = sample_covariance(snaps);
  const auto eg = linalg::eig_hermitian(r);
  // At least 2 significant eigenvalues (the two paths are decorrelated
  // by the sliding window).
  const double largest = eg.eigenvalues[r.rows() - 1];
  EXPECT_GT(eg.eigenvalues[r.rows() - 2], 1e-4 * largest);
}

}  // namespace
}  // namespace roarray::music
