// RANSAC hypothesis stage for robust fusion: candidate positions from
// minimal AP subsets. A single ULA AoA constrains the target to two
// mirror bearing rays (the array cannot tell the two sides of its axis
// apart), so a minimal subset is one AP *pair* and every hypothesis is
// a ray-ray intersection — up to four per pair once both folds of both
// APs are enumerated.
//
// Enumeration is deterministic: pairs in (i < j) lexicographic order,
// fold combinations in a fixed order, and — only when the pair count
// exceeds kMaxHypothesisPairs — a splitmix64-seeded
// Fisher-Yates subsample, so a fixed seed always scores the same
// hypothesis list.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fusion/fusion.hpp"

namespace roarray::fusion {

/// Pair hypotheses actually scored: all pairs when there are at most
/// this many, otherwise a seeded deterministic subsample.
inline constexpr int kMaxHypothesisPairs = 64;
/// Seed of that subsample.
inline constexpr std::uint64_t kRansacSeed = 0x9e3779b97f4a7c15ull;

/// One candidate position and the pair that generated it.
struct Hypothesis {
  Vec2 position;
  int ap_a = 0;  ///< observation indices of the generating pair.
  int ap_b = 0;
};

/// Enumerates bearing-ray intersection hypotheses for every scored AP
/// pair, keeping only candidates inside `room` and strictly in front of
/// both arrays. Deterministic (see the file comment).
[[nodiscard]] std::vector<Hypothesis> bearing_pair_hypotheses(
    std::span<const Observation> observations, const Room& room);

}  // namespace roarray::fusion
