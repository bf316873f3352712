#include "channel/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "channel/multipath.hpp"
#include "dsp/constants.hpp"

namespace roarray::channel {
namespace {

TEST(Vec2, BasicArithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  const Vec2 s = a + b;
  EXPECT_DOUBLE_EQ(s.x, 4.0);
  EXPECT_DOUBLE_EQ(s.y, 1.0);
  const Vec2 d = a - b;
  EXPECT_DOUBLE_EQ(d.x, -2.0);
  const Vec2 m = a * 2.0;
  EXPECT_DOUBLE_EQ(m.y, 4.0);
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
}

TEST(Vec2, NormalizedZeroThrows) {
  EXPECT_THROW((Vec2{0.0, 0.0}).normalized(), std::domain_error);
  const Vec2 u = Vec2{0.0, 5.0}.normalized();
  EXPECT_DOUBLE_EQ(u.y, 1.0);
}

TEST(Room, ContainsChecksBounds) {
  const Room r{18.0, 12.0};
  EXPECT_TRUE(r.contains({9.0, 6.0}));
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_FALSE(r.contains({-0.1, 6.0}));
  EXPECT_FALSE(r.contains({9.0, 12.1}));
}

TEST(Room, ValidateRejectsDegenerate) {
  EXPECT_THROW((Room{0.0, 5.0}).validate(), std::invalid_argument);
  EXPECT_THROW((Room{5.0, -1.0}).validate(), std::invalid_argument);
}

TEST(ApPose, AxisUnitFollowsAngle) {
  const ApPose horizontal{{0.0, 0.0}, 0.0};
  EXPECT_NEAR(horizontal.axis_unit().x, 1.0, 1e-12);
  const ApPose vertical{{0.0, 0.0}, 90.0};
  EXPECT_NEAR(vertical.axis_unit().y, 1.0, 1e-12);
}

TEST(ApPose, AoaOfPointBasicAngles) {
  // Horizontal array at origin: a target on +x is endfire (0 deg),
  // a target on +y is broadside (90 deg), a target on -x is 180 deg.
  const ApPose ap{{0.0, 0.0}, 0.0};
  EXPECT_NEAR(ap.aoa_of_point({5.0, 0.0}), 0.0, 1e-9);
  EXPECT_NEAR(ap.aoa_of_point({0.0, 5.0}), 90.0, 1e-9);
  EXPECT_NEAR(ap.aoa_of_point({-5.0, 0.0}), 180.0, 1e-9);
  EXPECT_NEAR(ap.aoa_of_point({5.0, 5.0}), 45.0, 1e-9);
}

TEST(ApPose, AoaIsMirrorSymmetricAboutAxis) {
  // A ULA cannot distinguish a source above the axis from one below.
  const ApPose ap{{0.0, 0.0}, 0.0};
  EXPECT_NEAR(ap.aoa_of_point({3.0, 2.0}), ap.aoa_of_point({3.0, -2.0}), 1e-9);
}

TEST(ApPose, RotatedArrayShiftsReference) {
  const ApPose ap{{2.0, 2.0}, 90.0};  // axis along +y
  EXPECT_NEAR(ap.aoa_of_point({2.0, 8.0}), 0.0, 1e-9);   // along axis
  EXPECT_NEAR(ap.aoa_of_point({8.0, 2.0}), 90.0, 1e-9);  // broadside
}

TEST(ApPose, AoaRangeAlwaysValid) {
  const ApPose ap{{9.0, 6.0}, 37.0};
  for (double x = 0.5; x < 18.0; x += 2.5) {
    for (double y = 0.5; y < 12.0; y += 2.5) {
      if (distance({x, y}, ap.position) < 1e-9) continue;
      const double aoa = ap.aoa_of_point({x, y});
      EXPECT_GE(aoa, 0.0);
      EXPECT_LE(aoa, 180.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Second-order (corner) bounce geometry through trace_paths.

MultipathConfig second_order_config() {
  MultipathConfig cfg;
  cfg.max_reflections = 2;
  cfg.reflection_loss = 0.8;      // keep double bounces above the floor.
  cfg.min_rel_amplitude = 1e-4;
  return cfg;
}

TEST(CornerBounces, EveryPathIsAtLeastAsLongAsTheDirect) {
  const Room room{10.0, 8.0};
  const ApPose ap{{7.5, 5.5}, 20.0};
  const Vec2 client{2.0, 2.5};
  const auto paths = trace_paths(room, ap, client, second_order_config(),
                                 dsp::ArrayConfig{});
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths.front().reflections, 0);
  bool saw_double = false;
  for (const Path& p : paths) {
    EXPECT_GE(p.length_m, paths.front().length_m - 1e-12);
    EXPECT_NEAR(p.toa_s, p.length_m / dsp::kSpeedOfLight, 1e-18);
    if (p.reflections == 2) saw_double = true;
  }
  EXPECT_TRUE(saw_double) << "no second-order bounce survived the floor";
}

TEST(CornerBounces, CornerImageMergesBothWallOrdersCoherently) {
  // Mirroring across a vertical and a horizontal wall commutes, so the
  // corner image appears once per wall order; trace_paths must merge
  // the two coincident paths into one with double the single-image
  // amplitude (coherent sum of identical phases).
  const Room room{10.0, 8.0};
  const ApPose ap{{6.0, 4.0}, 0.0};
  const Vec2 client{2.0, 3.0};
  const auto cfg = second_order_config();
  const dsp::ArrayConfig array;
  const auto paths = trace_paths(room, ap, client, cfg, array);

  // Corner image across x=0 then y=0: (-cx, -cy).
  const Vec2 corner_image{-client.x, -client.y};
  const double len = distance(ap.position, corner_image);
  const double expected_amp =
      2.0 / len * cfg.reflection_loss * cfg.reflection_loss;
  bool found = false;
  for (const Path& p : paths) {
    if (p.reflections != 2) continue;
    if (std::abs(p.length_m - len) > 1e-9) continue;
    found = true;
    EXPECT_NEAR(std::abs(p.gain), expected_amp, 1e-9);
    EXPECT_NEAR(p.aoa_deg,
                ap.aoa_of_direction(corner_image - ap.position), 1e-9);
  }
  EXPECT_TRUE(found) << "corner double-bounce path missing";

  // Opposite-wall orders do NOT commute: x=0 then x=W translates by
  // +2W while x=W then x=0 translates by -2W, so both images survive
  // as distinct paths (no merge, single-image amplitude).
  const Vec2 left_right{2.0 * room.width_m + client.x, client.y};
  const double lr_len = distance(ap.position, left_right);
  for (const Path& p : paths) {
    if (p.reflections == 2 && std::abs(p.length_m - lr_len) < 1e-9) {
      EXPECT_NEAR(std::abs(p.gain),
                  1.0 / lr_len * cfg.reflection_loss * cfg.reflection_loss,
                  1e-9);
    }
  }
}

TEST(CornerBounces, ClientInCornerStillTracesSortedFinitePaths) {
  const Room room{10.0, 8.0};
  const ApPose ap{{9.0, 7.0}, 0.0};
  const Vec2 client{0.0, 0.0};  // exactly in the corner.
  const auto paths = trace_paths(room, ap, client, second_order_config(),
                                 dsp::ArrayConfig{});
  ASSERT_FALSE(paths.empty());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].toa_s, paths[i - 1].toa_s);
  }
  for (const Path& p : paths) {
    EXPECT_TRUE(std::isfinite(p.aoa_deg));
    EXPECT_TRUE(std::isfinite(std::abs(p.gain)));
    EXPECT_GE(p.aoa_deg, 0.0);
    EXPECT_LE(p.aoa_deg, 180.0);
  }
}

// ---------------------------------------------------------------------------
// Degenerate scatterer placements.

TEST(Scatterers, CoincidentWithArrayIsSkippedNotFatal) {
  const Room room{10.0, 8.0};
  const ApPose ap{{6.0, 4.0}, 0.0};
  const Vec2 client{2.0, 3.0};
  MultipathConfig cfg;
  cfg.max_reflections = 0;
  const std::vector<Vec2> scatterers{ap.position};
  std::vector<Path> paths;
  ASSERT_NO_THROW(paths = trace_paths(room, ap, client, cfg,
                                      dsp::ArrayConfig{}, scatterers));
  // Only the direct path: the degenerate scatterer contributes nothing.
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths.front().reflections, 0);
}

TEST(Scatterers, CoincidentWithClientIsSkippedNotFatal) {
  const Room room{10.0, 8.0};
  const ApPose ap{{6.0, 4.0}, 0.0};
  const Vec2 client{2.0, 3.0};
  MultipathConfig cfg;
  cfg.max_reflections = 0;
  const std::vector<Vec2> scatterers{client};
  std::vector<Path> paths;
  ASSERT_NO_THROW(paths = trace_paths(room, ap, client, cfg,
                                      dsp::ArrayConfig{}, scatterers));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths.front().reflections, 0);
}

TEST(Scatterers, NearButNotCoincidentStillScatters) {
  const Room room{10.0, 8.0};
  const ApPose ap{{6.0, 4.0}, 0.0};
  const Vec2 client{2.0, 3.0};
  MultipathConfig cfg;
  cfg.max_reflections = 0;
  cfg.min_rel_amplitude = 0.0;
  const std::vector<Vec2> scatterers{{6.0, 4.1}};  // 10 cm off the AP.
  const auto paths =
      trace_paths(room, ap, client, cfg, dsp::ArrayConfig{}, scatterers);
  ASSERT_EQ(paths.size(), 2u);
  const Path& bounce = paths.back();
  EXPECT_EQ(bounce.reflections, 1);
  EXPECT_NEAR(bounce.aoa_deg, 90.0, 1e-9);  // arrives broadside from +y.
}

}  // namespace
}  // namespace roarray::channel
