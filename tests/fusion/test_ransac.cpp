// RANSAC hypothesis-stage tests: bearing-pair intersection geometry,
// mirror-fold enumeration, deterministic subsampling under a fixed
// seed, and end-to-end rescue of a fix that IRLS alone cannot save.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "fusion/fusion.hpp"
#include "fusion/ransac.hpp"

namespace roarray::fusion {
namespace {

std::vector<channel::ApPose> eight_aps() {
  return {
      {{0.0, 2.0}, 90.0},   {{0.0, 10.0}, 45.0},  {{9.0, 12.0}, 0.0},
      {{18.0, 9.0}, 270.0}, {{10.0, 0.0}, 180.0}, {{18.0, 3.0}, 250.0},
      {{4.0, 12.0}, 340.0}, {{0.0, 6.0}, 80.0},
  };
}

/// Twelve APs: 66 pairs, more than kMaxHypothesisPairs.
std::vector<channel::ApPose> twelve_aps() {
  std::vector<channel::ApPose> aps = eight_aps();
  aps.insert(aps.end(), {{{14.0, 12.0}, 20.0},
                         {{6.0, 0.0}, 160.0},
                         {{18.0, 6.0}, 280.0},
                         {{0.0, 4.0}, 100.0}});
  return aps;
}

std::vector<Observation> exact_observations(
    const std::vector<channel::ApPose>& aps, const channel::Vec2& target) {
  std::vector<Observation> obs;
  for (const channel::ApPose& ap : aps) {
    Observation o;
    o.pose = ap;
    o.aoa_deg = ap.aoa_of_point(target);
    obs.push_back(o);
  }
  return obs;
}

bool near(const channel::Vec2& a, const channel::Vec2& b, double tol) {
  return std::abs(a.x - b.x) <= tol && std::abs(a.y - b.y) <= tol;
}

TEST(RansacTest, ExactPairIntersectsAtTheTarget) {
  const channel::Vec2 target{7.3, 5.1};
  const auto aps = eight_aps();
  auto obs = exact_observations({aps[0], aps[3]}, target);
  const channel::Room room;
  const auto hyps = bearing_pair_hypotheses(obs, room);
  ASSERT_FALSE(hyps.empty());
  // One of the fold combinations must land on the true target; mirror
  // ghosts may also appear (and are what the consensus stage rejects).
  EXPECT_TRUE(std::any_of(hyps.begin(), hyps.end(), [&](const Hypothesis& h) {
    return near(h.position, target, 1e-9);
  }));
  for (const Hypothesis& h : hyps) {
    EXPECT_TRUE(room.contains(h.position));
    EXPECT_EQ(h.ap_a, 0);
    EXPECT_EQ(h.ap_b, 1);
  }
}

TEST(RansacTest, EveryPairYieldsATruthHypothesis) {
  const channel::Vec2 target{11.8, 7.6};
  const auto obs = exact_observations(eight_aps(), target);
  const channel::Room room;
  // 28 pairs < kMaxHypothesisPairs = 64.
  const auto hyps = bearing_pair_hypotheses(obs, room);
  // With exhaustive enumeration, every one of the 28 pairs contributes a
  // candidate at the true position (among its ghosts).
  int at_truth = 0;
  for (const Hypothesis& h : hyps) {
    if (near(h.position, target, 1e-9)) ++at_truth;
  }
  EXPECT_EQ(at_truth, 28);
}

TEST(RansacTest, FixedSeedIsDeterministicAcrossCalls) {
  const channel::Vec2 target{6.0, 9.0};
  const auto obs = exact_observations(twelve_aps(), target);
  const channel::Room room;
  // 66 pairs > kMaxHypothesisPairs: the seeded subsample runs.
  const auto a = bearing_pair_hypotheses(obs, room);
  const auto b = bearing_pair_hypotheses(obs, room);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position.x, b[i].position.x);
    EXPECT_EQ(a[i].position.y, b[i].position.y);
    EXPECT_EQ(a[i].ap_a, b[i].ap_a);
    EXPECT_EQ(a[i].ap_b, b[i].ap_b);
  }
}

TEST(RansacTest, FuseRobustIsDeterministicWithOutliersAndSubsampling) {
  const channel::Vec2 target{13.5, 4.0};
  // 66 pairs > kMaxHypothesisPairs: exercise the seeded-subsample path.
  auto obs = exact_observations(twelve_aps(), target);
  obs[1].aoa_deg += 50.0;
  obs[4].aoa_deg -= 45.0;
  obs[6].aoa_deg += 30.0;
  obs[9].aoa_deg -= 35.0;
  obs[10].aoa_deg += 40.0;
  const channel::Room room;
  // A far-off seed makes the first IRLS converge somewhere poor so the
  // hypothesis stage actually runs.
  const FusionReport a = fuse_robust(obs, room, {1.0, 11.0}, FusionConfig{});
  const FusionReport b = fuse_robust(obs, room, {1.0, 11.0}, FusionConfig{});
  EXPECT_TRUE(a.used_ransac);
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.used_ransac, b.used_ransac);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.inliers, b.inliers);
}

TEST(RansacTest, HypothesisStageRescuesABadInitialFix) {
  // Four of eight APs lie and the initial fix sits in the wrong corner:
  // gradient descent from there cannot cross the room, but a bearing
  // pair of two honest APs proposes the true position directly. Four
  // honest of eight stay below kMinInlierFraction even at the truth, so
  // the hypothesis stage must engage.
  const channel::Vec2 target{15.0, 3.0};
  auto obs = exact_observations(eight_aps(), target);
  obs[0].aoa_deg += 55.0;
  obs[2].aoa_deg -= 50.0;
  obs[4].aoa_deg -= 40.0;
  obs[6].aoa_deg += 45.0;
  const channel::Room room;
  const FusionReport rep = fuse_robust(obs, room, {1.0, 11.0}, FusionConfig{});
  EXPECT_TRUE(rep.used_ransac);
  EXPECT_EQ(rep.fallback, FusionFallback::kRansac);
  EXPECT_NEAR(rep.position.x, target.x, 0.5);
  EXPECT_NEAR(rep.position.y, target.y, 0.5);
  EXPECT_GE(rep.inliers, 4);
}

}  // namespace
}  // namespace roarray::fusion
