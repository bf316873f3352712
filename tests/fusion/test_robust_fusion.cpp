// Unit suite for the robust NLoS-aware fusion layer (src/fusion/):
// Huber loss contracts, unit weights on clean data, breakdown behaviour
// with lying APs, the ToA positive-bias model, and input validation.
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "fusion/fusion.hpp"
#include "fusion/loss.hpp"

namespace roarray::fusion {
namespace {

/// Five wall-mounted APs around the default 18 x 12 m room, axes angled
/// so every array faces the interior (mirroring the paper's testbed
/// style deployment).
std::vector<channel::ApPose> five_aps() {
  return {
      {{0.0, 2.0}, 90.0},  {{0.0, 10.0}, 45.0},  {{9.0, 12.0}, 0.0},
      {{18.0, 9.0}, 270.0}, {{10.0, 0.0}, 180.0},
  };
}

/// Observations with exact geometric AoAs for `target` (weights 1.0,
/// no ToA) — the all-inlier baseline every robust mode must nail.
std::vector<Observation> clean_observations(const channel::Vec2& target) {
  std::vector<Observation> obs;
  for (const channel::ApPose& ap : five_aps()) {
    Observation o;
    o.pose = ap;
    o.aoa_deg = ap.aoa_of_point(target);
    obs.push_back(o);
  }
  return obs;
}

TEST(RobustLossTest, HuberWeightIsExactlyOneInsideBand) {
  EXPECT_EQ(huber_weight(0.0, 1.0), 1.0);
  EXPECT_EQ(huber_weight(0.999, 1.0), 1.0);
  EXPECT_EQ(huber_weight(1.0, 1.0), 1.0);
  EXPECT_NEAR(huber_weight(2.0, 1.0), 0.5, 1e-15);
}

TEST(RobustLossTest, RhoIsContinuousAtTheHuberKnee) {
  const double below = huber_rho(1.0 - 1e-12, 1.0);
  const double above = huber_rho(1.0 + 1e-12, 1.0);
  EXPECT_NEAR(below, above, 1e-10);
  EXPECT_NEAR(huber_rho(1.0, 1.0), 0.5, 1e-15);
}

TEST(FuseRobustTest, RecoversTruthOnCleanData) {
  const channel::Vec2 target{9.63, 4.58};
  const auto obs = clean_observations(target);
  const channel::Room room;
  FusionConfig cfg;
  const FusionReport rep = fuse_robust(obs, room, {9.6, 4.6}, cfg);
  EXPECT_TRUE(rep.converged);
  EXPECT_FALSE(rep.used_ransac);
  EXPECT_EQ(rep.fallback, FusionFallback::kNone);
  EXPECT_NEAR(rep.position.x, target.x, 1e-4);
  EXPECT_NEAR(rep.position.y, target.y, 1e-4);
  EXPECT_EQ(rep.inliers, 5);
  ASSERT_EQ(rep.per_ap.size(), obs.size());
  for (const ApDiagnostics& d : rep.per_ap) {
    EXPECT_TRUE(d.inlier);
    EXPECT_EQ(d.robust_weight, 1.0);  // inside the Huber band: exactly 1.
    EXPECT_LT(std::abs(d.residual_m), 1e-3);
  }
}

// The bit-compatibility contract from the module header: with every
// residual inside the Huber band each IRLS weight is exactly 1.0, and
// multiplying by 1.0 is exact, so the solve is plain weighted least
// squares bit for bit — the RSSI weights alone shape it.
TEST(FuseRobustTest, CleanDataWeightsAreExactlyOneInsideHuberBand) {
  const channel::Vec2 target{5.21, 7.77};
  auto obs = clean_observations(target);
  // Unequal weights so the test also covers the RSSI weighting path.
  const double weights[] = {0.4, 1.7, 0.9, 2.3, 1.1};
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i].weight = weights[i];
  const channel::Room room;
  const channel::Vec2 init{5.2, 7.8};  // grid-quantized seed, as in loc.

  const FusionReport rep = fuse_robust(obs, room, init, FusionConfig{});
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.fallback, FusionFallback::kNone);
  EXPECT_EQ(rep.inliers, 5);
  ASSERT_EQ(rep.per_ap.size(), obs.size());
  for (const ApDiagnostics& d : rep.per_ap) {
    EXPECT_LE(d.residual_deg, kHuberDeltaDeg);
    EXPECT_EQ(d.robust_weight, 1.0);
  }
  EXPECT_NEAR(rep.position.x, target.x, 1e-4);
  EXPECT_NEAR(rep.position.y, target.y, 1e-4);
}

TEST(FuseRobustTest, OneLiarOfFiveBarelyMovesTheFix) {
  const channel::Vec2 target{12.4, 6.9};
  auto obs = clean_observations(target);
  obs[2].aoa_deg += 35.0;  // blocked-LoS AP: confidently wrong bearing.
  const channel::Room room;
  FusionConfig cfg;
  const FusionReport rep = fuse_robust(obs, room, {12.0, 7.0}, cfg);
  EXPECT_NEAR(rep.position.x, target.x, 0.3);
  EXPECT_NEAR(rep.position.y, target.y, 0.3);
  ASSERT_EQ(rep.per_ap.size(), 5u);
  EXPECT_FALSE(rep.per_ap[2].inlier);
  EXPECT_GT(rep.per_ap[2].residual_deg, kInlierResidualDeg);
  EXPECT_GE(rep.inliers, 4);
}

TEST(FuseRobustTest, TwoLiarsOfFiveStillRecovered) {
  const channel::Vec2 target{4.2, 8.4};
  auto obs = clean_observations(target);
  obs[0].aoa_deg -= 40.0;
  obs[3].aoa_deg += 28.0;
  const channel::Room room;
  const FusionReport rep = fuse_robust(obs, room, {4.0, 8.5}, FusionConfig{});
  EXPECT_NEAR(rep.position.x, target.x, 0.5);
  EXPECT_NEAR(rep.position.y, target.y, 0.5);
  EXPECT_TRUE(rep.per_ap[1].inlier);
  EXPECT_TRUE(rep.per_ap[2].inlier);
  EXPECT_TRUE(rep.per_ap[4].inlier);
}

TEST(FuseRobustTest, ToaExcessFlagsBiasedApEvenWithConsistentAoa) {
  const channel::Vec2 target{9.0, 6.0};
  auto obs = clean_observations(target);
  for (Observation& o : obs) {
    o.has_toa = true;
    o.toa_s = 100e-9;  // sanitizer rebias: every honest AP reports ~alike.
  }
  obs[1].toa_s = 200e-9;  // wrong peak picked: late arrival, right-ish AoA.
  const channel::Room room;
  FusionConfig cfg;
  const FusionReport rep = fuse_robust(obs, room, {9.0, 6.0}, cfg);
  // Estimated bias = excess over median beyond the 40 ns slack.
  EXPECT_NEAR(rep.per_ap[1].toa_bias_s, 60e-9, 1e-12);
  EXPECT_FALSE(rep.per_ap[1].inlier);
  EXPECT_LT(rep.per_ap[1].robust_weight, 0.2);
  // The honest APs carry no estimated bias and stay inliers.
  for (std::size_t i : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(rep.per_ap[i].toa_bias_s, 0.0);
    EXPECT_TRUE(rep.per_ap[i].inlier);
  }
  // The position is untouched: the ToA term carries no range information
  // by design, it only downweights.
  EXPECT_NEAR(rep.position.x, target.x, 1e-3);
  EXPECT_NEAR(rep.position.y, target.y, 1e-3);
}

TEST(FuseRobustTest, ToaTermNeedsQuorum) {
  const channel::Vec2 target{9.0, 6.0};
  auto obs = clean_observations(target);
  // Only two APs report ToA: below kToaMinObservations, the term is off
  // and a wild ToA must not hurt anyone.
  obs[0].has_toa = true;
  obs[0].toa_s = 900e-9;
  obs[1].has_toa = true;
  obs[1].toa_s = 100e-9;
  const channel::Room room;
  const FusionReport rep = fuse_robust(obs, room, {9.0, 6.0}, FusionConfig{});
  EXPECT_EQ(rep.per_ap[0].toa_bias_s, 0.0);
  EXPECT_TRUE(rep.per_ap[0].inlier);
  EXPECT_EQ(rep.inliers, 5);
}

TEST(FuseRobustTest, ResultIsClampedToRoom) {
  // Two APs on the left wall both pointing at a target; the third lies
  // hard. Whatever happens, the fix must stay inside the room.
  const channel::Vec2 target{1.0, 1.0};
  auto obs = clean_observations(target);
  obs[0].aoa_deg = 179.0;
  const channel::Room room;
  const FusionReport rep = fuse_robust(obs, room, {0.1, 0.1}, FusionConfig{});
  EXPECT_TRUE(room.contains(rep.position));
}

TEST(FuseRobustTest, RejectsDegenerateInputs) {
  const channel::Room room;
  const FusionConfig cfg;
  std::vector<Observation> one(1);
  EXPECT_THROW((void)fuse_robust(one, room, {1.0, 1.0}, cfg),
               std::invalid_argument);
  auto obs = clean_observations({9.0, 6.0});
  obs[0].weight = 0.0;
  EXPECT_THROW((void)fuse_robust(obs, room, {9.0, 6.0}, cfg),
               std::invalid_argument);
  obs[0].weight = 1.0;
  obs[1].aoa_deg = std::nan("");
  EXPECT_THROW((void)fuse_robust(obs, room, {9.0, 6.0}, cfg),
               std::invalid_argument);
}

TEST(FusionNamesTest, EnumNamesAreStable) {
  EXPECT_STREQ(fusion_fallback_name(FusionFallback::kNone), "none");
  EXPECT_STREQ(fusion_fallback_name(FusionFallback::kRansac), "ransac");
  EXPECT_STREQ(fusion_fallback_name(FusionFallback::kRansacNoGain),
               "ransac-no-gain");
  EXPECT_STREQ(fusion_fallback_name(FusionFallback::kDegenerate),
               "degenerate");
}

}  // namespace
}  // namespace roarray::fusion
