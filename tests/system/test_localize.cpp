#include "loc/localize.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "sim/testbed.hpp"

namespace roarray::loc {
namespace {

LocalizeConfig paper_config() {
  LocalizeConfig cfg;
  cfg.room = channel::Room{18.0, 12.0};
  cfg.grid_step_m = 0.1;
  return cfg;
}

/// Observations with perfect AoAs for a target from the paper testbed.
std::vector<ApObservation> perfect_observations(const Vec2& target,
                                                std::size_t num_aps) {
  const sim::Testbed tb = sim::make_paper_testbed();
  std::vector<ApObservation> obs;
  for (std::size_t i = 0; i < std::min(num_aps, tb.aps.size()); ++i) {
    ApObservation o;
    o.pose = tb.aps[i];
    o.aoa_deg = tb.aps[i].aoa_of_point(target);
    o.weight = 1.0;
    obs.push_back(o);
  }
  return obs;
}

TEST(Localize, PerfectAoasRecoverTargetToGridResolution) {
  const Vec2 target{7.3, 4.8};
  const auto obs = perfect_observations(target, 6);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.position.x, target.x, 0.15);
  EXPECT_NEAR(r.position.y, target.y, 0.15);
}

TEST(Localize, EmptyObservationsInvalid) {
  const LocalizeResult r = localize({}, paper_config());
  EXPECT_FALSE(r.valid);
}

TEST(Localize, BadGridStepThrows) {
  LocalizeConfig cfg = paper_config();
  cfg.grid_step_m = 0.0;
  EXPECT_THROW(localize(perfect_observations({5, 5}, 3), cfg),
               std::invalid_argument);
}

TEST(Localize, TwoApsSufficeWithPerfectAngles) {
  const Vec2 target{12.0, 7.0};
  const auto obs = perfect_observations(target, 2);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  // ULA mirror ambiguity can allow multiple optima; with the paper
  // testbed poses the target side is identifiable for interior points.
  EXPECT_NEAR(r.position.x, target.x, 0.5);
  EXPECT_NEAR(r.position.y, target.y, 0.5);
}

TEST(Localize, WeightsArbitrateConflictingAoas) {
  // Two APs vote for different targets; the heavier one must win.
  const Vec2 target_a{5.0, 5.0};
  const Vec2 target_b{14.0, 8.0};
  const sim::Testbed tb = sim::make_paper_testbed();
  std::vector<ApObservation> obs;
  // Three APs for target A with high weight.
  for (int i = 0; i < 3; ++i) {
    ApObservation o;
    o.pose = tb.aps[static_cast<std::size_t>(i)];
    o.aoa_deg = o.pose.aoa_of_point(target_a);
    o.weight = 10.0;
    obs.push_back(o);
  }
  // Three APs for target B with tiny weight.
  for (int i = 3; i < 6; ++i) {
    ApObservation o;
    o.pose = tb.aps[static_cast<std::size_t>(i)];
    o.aoa_deg = o.pose.aoa_of_point(target_b);
    o.weight = 0.01;
    obs.push_back(o);
  }
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_LT(channel::distance(r.position, target_a), 1.0);
}

TEST(Localize, NoisyAnglesDegradeGracefully) {
  const Vec2 target{9.0, 6.0};
  auto obs = perfect_observations(target, 6);
  // Bias every AoA by 5 degrees.
  for (auto& o : obs) o.aoa_deg = std::min(180.0, o.aoa_deg + 5.0);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  const double err = channel::distance(r.position, target);
  EXPECT_GT(err, 0.05);  // not exact anymore
  EXPECT_LT(err, 3.0);   // but bounded
}

TEST(Localize, CostIsZeroForConsistentObservations) {
  const Vec2 target{6.0, 6.0};
  const auto obs = perfect_observations(target, 6);
  const LocalizeResult r = localize(obs, paper_config());
  // Grid point nearest to the target has near-zero cost.
  EXPECT_LT(r.cost, 10.0);
}

// Regression: all-zero (or otherwise degenerate) RSSI weights used to
// make every grid candidate cost 0, silently returning a "valid" (0, 0)
// fix; a NaN weight likewise poisoned the scan but still reported
// valid. Both must now surface as a typed error.
TEST(Localize, AllZeroWeightsAreATypedErrorNotABogusFix) {
  auto obs = perfect_observations({7.0, 5.0}, 5);
  for (auto& o : obs) o.weight = 0.0;
  const LocalizeResult r = localize(obs, paper_config());
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.status, LocalizeStatus::kDegenerateWeights);
  EXPECT_FALSE(r.used_fusion);
}

TEST(Localize, NanWeightsAreATypedErrorNotABogusFix) {
  auto obs = perfect_observations({7.0, 5.0}, 5);
  for (auto& o : obs) o.weight = std::nan("");
  const LocalizeResult r = localize(obs, paper_config());
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.status, LocalizeStatus::kDegenerateWeights);
}

TEST(Localize, DegenerateObservationsAreScreenedNotFatal) {
  // Two poisoned observations ride along with four good ones: the round
  // still resolves, and the fused diagnostics stay aligned with the
  // caller's indices (screened slots keep default entries).
  const Vec2 target{7.3, 4.8};
  auto obs = perfect_observations(target, 6);
  obs[1].weight = 0.0;
  obs[4].weight = std::nan("");
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.status, LocalizeStatus::kOk);
  EXPECT_NEAR(r.position.x, target.x, 0.15);
  EXPECT_NEAR(r.position.y, target.y, 0.15);
  ASSERT_TRUE(r.used_fusion);
  ASSERT_EQ(r.fusion.per_ap.size(), obs.size());
  EXPECT_FALSE(r.fusion.per_ap[1].inlier);
  EXPECT_FALSE(r.fusion.per_ap[4].inlier);
  EXPECT_TRUE(r.fusion.per_ap[0].inlier);
}

TEST(Localize, StatusNamesAreStable) {
  EXPECT_STREQ(localize_status_name(LocalizeStatus::kOk), "ok");
  EXPECT_STREQ(localize_status_name(LocalizeStatus::kNoObservations),
               "no-observations");
  EXPECT_STREQ(localize_status_name(LocalizeStatus::kDegenerateWeights),
               "degenerate-weights");
}

TEST(Localize, EmptyStatusIsNoObservations) {
  const LocalizeResult r = localize({}, paper_config());
  EXPECT_EQ(r.status, LocalizeStatus::kNoObservations);
}

// The robust layer's acceptance story at the localize API: one blocked
// AP (confidently wrong AoA) barely moves the robust fix while the
// naive argmin visibly drifts.
TEST(Localize, RobustFixShrugsOffOneLyingApWhereNaiveDrifts) {
  const Vec2 target{11.0, 7.5};
  auto obs = perfect_observations(target, 5);
  obs[2].aoa_deg = std::min(180.0, obs[2].aoa_deg + 30.0);

  LocalizeConfig naive_cfg = paper_config();
  naive_cfg.robust = false;
  const LocalizeResult naive = localize(obs, naive_cfg);
  const LocalizeResult robust = localize(obs, paper_config());
  ASSERT_TRUE(naive.valid);
  ASSERT_TRUE(robust.valid);
  ASSERT_TRUE(robust.used_fusion);
  const double naive_err = channel::distance(naive.position, target);
  const double robust_err = channel::distance(robust.position, target);
  EXPECT_LT(robust_err, 0.2);
  EXPECT_LT(robust_err, naive_err);
  EXPECT_FALSE(robust.fusion.per_ap[2].inlier);
}

// --- Grid argmin tie-breaking and degenerate candidates. The grid search
// visits tiles of candidates out of row-major order; ties must still
// resolve to the first tied candidate in row-major order (iy, then ix),
// exactly as a full row-major scan with a strict-less update would.

LocalizeConfig naive_config(double width, double height, double step) {
  LocalizeConfig cfg;
  cfg.room = channel::Room{width, height};
  cfg.grid_step_m = step;
  cfg.robust = false;
  return cfg;
}

Vec2 grid_point(int ix, int iy, double step) {
  return {static_cast<double>(ix) * step, static_cast<double>(iy) * step};
}

TEST(LocalizeGrid, OneApRayTieResolvesToFirstRowMajorCell) {
  // Array along +x, observed AoA 0: every candidate on the AP's row to
  // its right sees AoA exactly 0, so a whole ray of cells costs 0.
  const double step = 0.1;
  ApObservation o;
  o.pose = ApPose{grid_point(20, 30, step), 0.0};
  o.aoa_deg = 0.0;
  const LocalizeResult r = localize({&o, 1}, naive_config(18.0, 12.0, step));
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.position.x, grid_point(21, 30, step).x);
  EXPECT_EQ(r.position.y, grid_point(21, 30, step).y);
}

TEST(LocalizeGrid, TieAcrossTilesPrefersLowerRowInALaterTile) {
  // With a power-of-two step every coordinate is exact, so candidates at
  // offsets k * (10, -3) cells from an AP on a grid point share one
  // bearing bit for bit (k = 1, 2, 4): cells (10, 12), (20, 9), (40, 3),
  // in 16-cell tile columns 0, 1 and 2 of tile row 0. The lowest row is
  // in the last of those tiles.
  const double step = 0.125;
  ApObservation o;
  o.pose = ApPose{grid_point(0, 15, step), 0.0};
  o.aoa_deg = o.pose.aoa_of_point(grid_point(10, 12, step));
  const LocalizeConfig cfg = naive_config(5.5, 5.5, step);
  // The first candidate in row-major order whose AoA is exactly the
  // observed one is the expected fix.
  Vec2 first{-1.0, -1.0};
  const int n = static_cast<int>(std::floor(5.5 / step)) + 1;
  for (int iy = 0; iy < n && first.x < 0.0; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      const Vec2 c = grid_point(ix, iy, step);
      if (channel::distance(c, o.pose.position) < 1e-9) continue;
      if (o.pose.aoa_of_point(c) == o.aoa_deg) {
        first = c;
        break;
      }
    }
  }
  ASSERT_EQ(o.pose.aoa_of_point(grid_point(40, 3, step)), o.aoa_deg);
  ASSERT_LE(first.y, grid_point(40, 3, step).y);

  const LocalizeResult r = localize({&o, 1}, cfg);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.position.x, first.x);
  EXPECT_EQ(r.position.y, first.y);
}

TEST(LocalizeGrid, SymmetricTwoApTieResolvesToLowerRow) {
  // Two arrays on the line y = 6 with their axes along +x see a target and
  // its mirror image across that line at the same AoA, bit for bit (the
  // step keeps coordinates exact), so both cells cost exactly 0.
  const double step = 0.25;
  const Vec2 target = grid_point(30, 14, step);  // (7.5, 3.5)
  const Vec2 mirror = grid_point(30, 34, step);  // (7.5, 8.5)
  std::vector<ApObservation> obs(2);
  obs[0].pose = ApPose{grid_point(2, 24, step), 0.0};
  obs[1].pose = ApPose{grid_point(70, 24, step), 0.0};
  for (ApObservation& o : obs) {
    o.aoa_deg = o.pose.aoa_of_point(target);
    ASSERT_EQ(o.pose.aoa_of_point(mirror), o.aoa_deg);
  }
  const LocalizeResult r = localize(obs, naive_config(18.0, 12.0, step));
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.position.x, target.x);
  EXPECT_EQ(r.position.y, target.y);
}

TEST(LocalizeGrid, CandidateOnAnApIsSkipped) {
  // AP 0 sits on grid candidate (50, 40), exactly or 0.5 nm off it (both
  // inside the 1e-9 m on-AP radius), its axis along +x and its observed
  // AoA 180: the candidates left of it on its row score 0 for it. AP 1
  // points straight at AP 0, so the on-AP candidate would win if it were
  // scored.
  const double step = 0.1;
  const Vec2 cell = grid_point(50, 40, step);
  for (const double offset : {0.0, 5e-10}) {
    std::vector<ApObservation> obs(2);
    obs[0].pose = ApPose{{cell.x + offset, cell.y}, 0.0};
    obs[0].aoa_deg = 180.0;
    obs[1].pose = ApPose{{9.0, 0.5}, 0.0};
    obs[1].aoa_deg = obs[1].pose.aoa_of_point(obs[0].pose.position);
    const LocalizeResult r = localize(obs, naive_config(18.0, 12.0, step));
    ASSERT_TRUE(r.valid);
    EXPECT_FALSE(r.position.x == cell.x && r.position.y == cell.y)
        << "offset " << offset;
    EXPECT_GT(r.cost, 0.0);
    EXPECT_TRUE(std::isfinite(r.cost));
    EXPECT_LT(channel::distance(r.position, cell), 0.5);
  }
}

class LocalizeTargetSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LocalizeTargetSweep, InteriorTargetsRecovered) {
  const auto [x, y] = GetParam();
  const Vec2 target{x, y};
  const auto obs = perfect_observations(target, 6);
  const LocalizeResult r = localize(obs, paper_config());
  ASSERT_TRUE(r.valid);
  EXPECT_LT(channel::distance(r.position, target), 0.3)
      << "target (" << x << ", " << y << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Targets, LocalizeTargetSweep,
    ::testing::Values(std::pair<double, double>{2.0, 2.0},
                      std::pair<double, double>{16.0, 10.0},
                      std::pair<double, double>{9.0, 6.0},
                      std::pair<double, double>{3.5, 9.5},
                      std::pair<double, double>{14.2, 2.7}));

}  // namespace
}  // namespace roarray::loc
