#include "channel/multipath.hpp"

#include <gtest/gtest.h>

#include "dsp/constants.hpp"

namespace roarray::channel {
namespace {

const Room kRoom{18.0, 12.0};
const dsp::ArrayConfig kArray;

TEST(Multipath, DirectPathIsFirstAndMatchesGeometry) {
  const ApPose ap{{1.0, 6.0}, 90.0};
  const Vec2 client{10.0, 6.0};
  const auto paths = trace_paths(kRoom, ap, client, MultipathConfig{}, kArray);
  ASSERT_FALSE(paths.empty());
  const Path& direct = paths.front();
  EXPECT_EQ(direct.reflections, 0);
  EXPECT_NEAR(direct.length_m, 9.0, 1e-9);
  EXPECT_NEAR(direct.toa_s, 9.0 / dsp::kSpeedOfLight, 1e-15);
  EXPECT_NEAR(direct.aoa_deg, ap.aoa_of_point(client), 1e-9);
}

TEST(Multipath, PathsSortedByToa) {
  const ApPose ap{{2.0, 3.0}, 0.0};
  const Vec2 client{14.0, 9.0};
  MultipathConfig cfg;
  cfg.max_reflections = 2;
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].toa_s, paths[i].toa_s);
  }
}

TEST(Multipath, DirectPathHasSmallestToa) {
  const ApPose ap{{0.5, 6.0}, 90.0};
  const Vec2 client{9.0, 4.0};
  MultipathConfig cfg;
  cfg.max_reflections = 2;
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  EXPECT_EQ(paths.front().reflections, 0);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GT(paths[i].toa_s, paths.front().toa_s);
  }
}

TEST(Multipath, FirstOrderGivesUpToFivePaths) {
  const ApPose ap{{1.0, 1.0}, 0.0};
  const Vec2 client{16.0, 10.0};
  MultipathConfig cfg;
  cfg.max_reflections = 1;
  cfg.min_rel_amplitude = 0.0;
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  EXPECT_EQ(paths.size(), 5u);  // direct + 4 walls
}

TEST(Multipath, ZeroReflectionsGivesDirectOnly) {
  const ApPose ap{{1.0, 1.0}, 0.0};
  const Vec2 client{16.0, 10.0};
  MultipathConfig cfg;
  cfg.max_reflections = 0;
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].reflections, 0);
}

TEST(Multipath, ReflectedAmplitudesAreWeaker) {
  const ApPose ap{{1.0, 6.0}, 90.0};
  const Vec2 client{9.0, 6.0};
  const auto paths = trace_paths(kRoom, ap, client, MultipathConfig{}, kArray);
  const double direct_amp = std::abs(paths.front().gain);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LT(std::abs(paths[i].gain), direct_amp);
  }
}

TEST(Multipath, AmplitudeFollowsInverseDistance) {
  const ApPose ap{{1.0, 6.0}, 90.0};
  MultipathConfig cfg;
  cfg.max_reflections = 0;
  const auto near = trace_paths(kRoom, ap, {3.0, 6.0}, cfg, kArray);
  const auto far = trace_paths(kRoom, ap, {9.0, 6.0}, cfg, kArray);
  // 2 m vs 8 m: amplitude ratio 4.
  EXPECT_NEAR(std::abs(near[0].gain) / std::abs(far[0].gain), 4.0, 1e-9);
}

TEST(Multipath, ReflectionLossScalesBouncedPaths) {
  const ApPose ap{{4.0, 6.0}, 90.0};
  const Vec2 client{14.0, 6.0};
  MultipathConfig lossy;
  lossy.reflection_loss = 0.2;
  lossy.min_rel_amplitude = 0.0;
  MultipathConfig strong;
  strong.reflection_loss = 0.8;
  strong.min_rel_amplitude = 0.0;
  const auto p_lossy = trace_paths(kRoom, ap, client, lossy, kArray);
  const auto p_strong = trace_paths(kRoom, ap, client, strong, kArray);
  ASSERT_EQ(p_lossy.size(), p_strong.size());
  for (std::size_t i = 0; i < p_lossy.size(); ++i) {
    if (p_lossy[i].reflections == 1) {
      EXPECT_NEAR(std::abs(p_strong[i].gain) / std::abs(p_lossy[i].gain), 4.0,
                  1e-9);
    }
  }
}

TEST(Multipath, WeakPathFilterPrunes) {
  const ApPose ap{{1.0, 6.0}, 90.0};
  const Vec2 client{2.0, 6.0};  // very close: direct dominates
  MultipathConfig cfg;
  cfg.max_reflections = 2;
  cfg.min_rel_amplitude = 0.5;  // aggressive pruning
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  EXPECT_LT(paths.size(), 17u);
  for (const Path& p : paths) {
    EXPECT_GE(std::abs(p.gain), 0.5 * std::abs(paths.front().gain) - 1e-12);
  }
}

TEST(Multipath, SecondOrderSparsityMatchesPaperAssumption) {
  // The dominant-path count should stay small (~5), per the paper.
  const ApPose ap{{0.5, 6.0}, 90.0};
  const Vec2 client{12.0, 8.0};
  MultipathConfig cfg;
  cfg.max_reflections = 2;
  cfg.min_rel_amplitude = 0.15;  // "dominant" = within ~16 dB of strongest
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  EXPECT_GE(paths.size(), 3u);
  EXPECT_LE(paths.size(), 10u);
}

TEST(Multipath, EndpointsOutsideRoomThrow) {
  const ApPose inside{{1.0, 1.0}, 0.0};
  EXPECT_THROW(
      trace_paths(kRoom, inside, {30.0, 5.0}, MultipathConfig{}, kArray),
      std::invalid_argument);
  const ApPose outside{{-1.0, 1.0}, 0.0};
  EXPECT_THROW(
      trace_paths(kRoom, outside, {5.0, 5.0}, MultipathConfig{}, kArray),
      std::invalid_argument);
}

TEST(Multipath, ConfigValidation) {
  MultipathConfig cfg;
  cfg.max_reflections = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = MultipathConfig{};
  cfg.reflection_loss = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Multipath, WallReflectionAoaMatchesImagePoint) {
  // Reflection off y=0 wall: image of client (9, 4) is (9, -4).
  const ApPose ap{{1.0, 2.0}, 0.0};
  const Vec2 client{9.0, 4.0};
  MultipathConfig cfg;
  cfg.max_reflections = 1;
  cfg.min_rel_amplitude = 0.0;
  const auto paths = trace_paths(kRoom, ap, client, cfg, kArray);
  const double expect_len = distance(ap.position, {9.0, -4.0});
  bool found = false;
  for (const Path& p : paths) {
    if (p.reflections == 1 && std::abs(p.length_m - expect_len) < 1e-9) {
      found = true;
      EXPECT_NEAR(p.aoa_deg, ap.aoa_of_direction(Vec2{9.0, -4.0} - ap.position),
                  1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Multipath, TotalPowerPositiveAndDominatedByDirect) {
  const ApPose ap{{0.5, 6.0}, 90.0};
  const Vec2 client{6.0, 6.0};
  const auto paths = trace_paths(kRoom, ap, client, MultipathConfig{}, kArray);
  double total = 0.0;
  for (const Path& p : paths) total += std::norm(p.gain);
  EXPECT_GT(total, 0.0);
  EXPECT_GT(std::norm(paths.front().gain) / total, 0.4);
}

}  // namespace
}  // namespace roarray::channel
