#include "fusion/ransac.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "dsp/angles.hpp"

namespace roarray::fusion {

namespace {

/// splitmix64 step: the standard 64-bit mixer (deterministic, no
/// <random> state), used only to subsample the pair list.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `axis` rotated by `deg` counter-clockwise.
[[nodiscard]] Vec2 rotate_deg(const Vec2& axis, double deg) noexcept {
  const double r = dsp::deg_to_rad(deg);
  const double c = std::cos(r);
  const double s = std::sin(r);
  return {c * axis.x - s * axis.y, s * axis.x + c * axis.y};
}

/// Intersects the rays p_a + t_a u_a and p_b + t_b u_b. Returns true
/// with the intersection when the rays meet strictly in front of both
/// APs (t > min_range) and are not near-parallel.
[[nodiscard]] bool intersect_rays(const Vec2& pa, const Vec2& ua,
                                  const Vec2& pb, const Vec2& ub, Vec2& out) {
  constexpr double kMinRangeM = 0.05;
  const double det = ub.x * ua.y - ub.y * ua.x;  // cross(ub, ua)
  if (std::abs(det) < 1e-9) return false;        // parallel bearings.
  const Vec2 d = pb - pa;
  const double ta = (ub.x * d.y - ub.y * d.x) / det;
  const double tb = (ua.x * d.y - ua.y * d.x) / det;
  if (ta <= kMinRangeM || tb <= kMinRangeM) return false;
  out = pa + ua * ta;
  return true;
}

}  // namespace

std::vector<Hypothesis> bearing_pair_hypotheses(
    std::span<const Observation> observations, const Room& room) {
  const int n = static_cast<int>(observations.size());
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  if (static_cast<int>(pairs.size()) > kMaxHypothesisPairs) {
    // Seeded Fisher-Yates prefix: the first kMaxHypothesisPairs
    // entries after the partial shuffle are a uniform deterministic
    // subsample of the pair list.
    std::uint64_t state = kRansacSeed;
    for (int k = 0; k < kMaxHypothesisPairs; ++k) {
      const auto span_left = static_cast<std::uint64_t>(
          static_cast<int>(pairs.size()) - k);
      const auto pick = static_cast<std::size_t>(
          static_cast<std::uint64_t>(k) + splitmix64(state) % span_left);
      std::swap(pairs[static_cast<std::size_t>(k)], pairs[pick]);
    }
    pairs.resize(static_cast<std::size_t>(kMaxHypothesisPairs));
  }

  std::vector<Hypothesis> out;
  out.reserve(pairs.size() * 4);
  for (const auto& [i, j] : pairs) {
    const Observation& a = observations[static_cast<std::size_t>(i)];
    const Observation& b = observations[static_cast<std::size_t>(j)];
    // Both ULA folds of both APs, in a fixed order.
    const Vec2 dirs_a[2] = {rotate_deg(a.pose.axis_unit(), a.aoa_deg),
                            rotate_deg(a.pose.axis_unit(), -a.aoa_deg)};
    const Vec2 dirs_b[2] = {rotate_deg(b.pose.axis_unit(), b.aoa_deg),
                            rotate_deg(b.pose.axis_unit(), -b.aoa_deg)};
    for (const Vec2& ua : dirs_a) {
      for (const Vec2& ub : dirs_b) {
        Vec2 x;
        if (!intersect_rays(a.pose.position, ua, b.pose.position, ub, x)) {
          continue;
        }
        if (!room.contains(x)) continue;
        out.push_back({x, i, j});
      }
    }
  }
  return out;
}

}  // namespace roarray::fusion
