#include "loc/localize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/angles.hpp"

namespace roarray::loc {

namespace {

using linalg::index_t;

/// Edge length, in grid cells, of the tiles the grid search bounds and
/// visits as a unit.
constexpr index_t kTileCells = 16;

/// Widening of every per-tile AoA interval [deg]. It covers the rounding
/// of the corner and cell AoAs (< 1e-8 deg wherever acos is
/// well-conditioned) and of the circular distances (< 1e-12 deg for
/// |AoA| <= kMaxBoundedAoaDeg), so a tile's bound never exceeds the
/// computed cost of any of its cells.
constexpr double kSlackDeg = 1e-6;

/// Within this many degrees of endfire (0 or 180) acos loses precision
/// (d acos / dc blows up at c = +-1), so a corner AoA this close to an
/// end extends the interval to the end itself.
constexpr double kEndfireSnapDeg = 1e-3;

/// Margin [m] by which a tile's box is grown for the AP-inside and
/// ray-crossing tests, so neither decides a grazing case by rounding.
constexpr double kBoxMarginM = 1e-6;

/// Up to this |AoA| the subtraction in angle_diff_deg rounds by < 1e-12
/// deg. Its rounding grows with |AoA|, so a larger observed AoA
/// contributes 0 to every bound instead.
constexpr double kMaxBoundedAoaDeg = 720.0;

/// Candidates closer than this to an AP are skipped (AoA undefined).
constexpr double kOnApM = 1e-9;

/// One usable observation with its array axis (cos and sin) hoisted out
/// of the per-cell loop.
struct GridAp {
  Vec2 position;
  Vec2 axis;
  double aoa_deg = 0.0;
  double weight = 0.0;
};

/// AoA [deg] of offset `v` (norm `n` > 0) from an array with unit axis
/// `axis`: the operations of ApPose::aoa_of_point, in the same order.
[[nodiscard]] double aoa_of_offset(const Vec2& v, double n, const Vec2& axis) {
  const Vec2 u{v.x / n, v.y / n};
  const double c = std::clamp(u.dot(axis), -1.0, 1.0);
  return dsp::rad_to_deg(std::acos(c));
}

/// Paper Eq. 19 cost of one candidate: sum_i R_i * (phi_i(x) - phi_hat_i)^2,
/// accumulated in observation order. Returns +infinity, which the caller
/// never selects, for a candidate sitting on an AP or once the partial
/// sum exceeds `limit` (the terms are non-negative, so the full sum would
/// too).
[[nodiscard]] double grid_cell_cost(const Vec2& cand, std::span<const GridAp> aps,
                                    double limit) {
  constexpr double kSkip = std::numeric_limits<double>::infinity();
  double cost = 0.0;
  for (const GridAp& ap : aps) {
    const Vec2 v = cand - ap.position;
    const double n = v.norm();
    if (n < kOnApM) return kSkip;
    const double d = dsp::angle_diff_deg(aoa_of_offset(v, n, ap.axis), ap.aoa_deg);
    cost += ap.weight * d * d;
    if (cost > limit) return kSkip;
  }
  return cost;
}

/// Axis-aligned box spanned by a tile's corner cells.
struct Box {
  double x0, x1, y0, y1;

  [[nodiscard]] bool contains(const Vec2& p) const noexcept {
    return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
  }
  [[nodiscard]] Box grown(double m) const noexcept {
    return {x0 - m, x1 + m, y0 - m, y1 + m};
  }
};

/// Slab test: does the ray p + t * dir, t >= 0, meet the box?
[[nodiscard]] bool ray_meets_box(const Vec2& p, const Vec2& dir, const Box& b) {
  double t_lo = 0.0;
  double t_hi = std::numeric_limits<double>::infinity();
  const auto clip = [&](double origin, double step, double lo, double hi) {
    if (step == 0.0) return origin >= lo && origin <= hi;
    double t0 = (lo - origin) / step;
    double t1 = (hi - origin) / step;
    if (t0 > t1) std::swap(t0, t1);
    t_lo = std::max(t_lo, t0);
    t_hi = std::min(t_hi, t1);
    return t_lo <= t_hi;
  };
  return clip(p.x, dir.x, b.x0, b.x1) && clip(p.y, dir.y, b.y0, b.y1);
}

/// Circular distance [deg] from `aoa` to the arc [lo, hi] (hi - lo < 360).
[[nodiscard]] double arc_distance_deg(double aoa, double lo, double hi) {
  if (dsp::wrap_deg_360(aoa - lo) <= hi - lo) return 0.0;
  return std::min(dsp::angle_diff_deg(aoa, lo), dsp::angle_diff_deg(aoa, hi));
}

/// Lower bound on grid_cell_cost over every cell of the tile whose corner
/// cells span `box`. Each AP's AoA over a convex region that does not
/// hold the AP lies between its corner extremes, reaching 0 (180) only
/// where the ray along +axis (-axis) crosses the region.
[[nodiscard]] double tile_lower_bound(const Box& box, std::span<const GridAp> aps) {
  const Box near = box.grown(kBoxMarginM);
  const Vec2 corners[4] = {{box.x0, box.y0}, {box.x1, box.y0},
                           {box.x0, box.y1}, {box.x1, box.y1}};
  double bound = 0.0;
  for (const GridAp& ap : aps) {
    if (!(std::abs(ap.aoa_deg) <= kMaxBoundedAoaDeg)) continue;
    double lo = 0.0;
    double hi = 180.0;
    if (!near.contains(ap.position)) {
      lo = 180.0;
      hi = 0.0;
      for (const Vec2& c : corners) {
        const Vec2 v = c - ap.position;
        const double phi = aoa_of_offset(v, v.norm(), ap.axis);
        lo = std::min(lo, phi);
        hi = std::max(hi, phi);
      }
      if (lo < kEndfireSnapDeg || ray_meets_box(ap.position, ap.axis, near)) {
        lo = 0.0;
      }
      if (hi > 180.0 - kEndfireSnapDeg ||
          ray_meets_box(ap.position, ap.axis * -1.0, near)) {
        hi = 180.0;
      }
    }
    const double d = arc_distance_deg(ap.aoa_deg, lo - kSlackDeg, hi + kSlackDeg);
    bound += ap.weight * d * d;
  }
  return bound;
}

/// Best candidate of the grid and its cost (DBL_MAX when none scored).
struct GridFix {
  Vec2 position;
  double cost = std::numeric_limits<double>::max();
};

/// Exact argmin of grid_cell_cost over the nx x ny grid, ties broken on
/// the lowest (iy, ix): the result of a row-major scan with a strict-less
/// update. Tiles are visited in ascending lower-bound order; once a
/// tile's bound exceeds the best cost no remaining tile can hold a better
/// cell or an equal one.
[[nodiscard]] GridFix grid_argmin(index_t nx, index_t ny, double step,
                                  std::span<const GridAp> aps) {
  const index_t tiles_x = (nx + kTileCells - 1) / kTileCells;
  const index_t tiles_y = (ny + kTileCells - 1) / kTileCells;
  struct Tile {
    double bound;
    index_t tx, ty;
  };
  std::vector<Tile> tiles;
  tiles.reserve(static_cast<std::size_t>(tiles_x * tiles_y));
  const auto coord = [step](index_t i) { return static_cast<double>(i) * step; };
  for (index_t ty = 0; ty < tiles_y; ++ty) {
    for (index_t tx = 0; tx < tiles_x; ++tx) {
      const Box box{coord(tx * kTileCells),
                    coord(std::min(nx, (tx + 1) * kTileCells) - 1),
                    coord(ty * kTileCells),
                    coord(std::min(ny, (ty + 1) * kTileCells) - 1)};
      tiles.push_back({tile_lower_bound(box, aps), tx, ty});
    }
  }
  std::stable_sort(tiles.begin(), tiles.end(),
                   [](const Tile& a, const Tile& b) { return a.bound < b.bound; });

  GridFix best;
  index_t best_key = -1;  // iy * nx + ix of the best cell; -1 = none yet.
  for (const Tile& t : tiles) {
    if (t.bound > best.cost) break;
    const index_t iy_end = std::min(ny, (t.ty + 1) * kTileCells);
    const index_t ix_end = std::min(nx, (t.tx + 1) * kTileCells);
    for (index_t iy = t.ty * kTileCells; iy < iy_end; ++iy) {
      for (index_t ix = t.tx * kTileCells; ix < ix_end; ++ix) {
        const Vec2 cand{coord(ix), coord(iy)};
        const double cost = grid_cell_cost(cand, aps, best.cost);
        const index_t key = iy * nx + ix;
        if (cost < best.cost || (cost == best.cost && best_key >= 0 && key < best_key)) {
          best.cost = cost;
          best.position = cand;
          best_key = key;
        }
      }
    }
  }
  return best;
}

/// An observation contributes only with a finite AoA and a positive,
/// finite weight; anything else (all-zero RSSI weights, NaNs from an
/// upstream failure) previously produced a silent bogus (0, 0) fix.
[[nodiscard]] bool usable_observation(const ApObservation& o) noexcept {
  return std::isfinite(o.aoa_deg) && std::isfinite(o.weight) && o.weight > 0.0;
}

}  // namespace

const char* localize_status_name(LocalizeStatus s) noexcept {
  switch (s) {
    case LocalizeStatus::kOk: return "ok";
    case LocalizeStatus::kNoObservations: return "no-observations";
    case LocalizeStatus::kDegenerateWeights: return "degenerate-weights";
  }
  return "unknown";
}

LocalizeResult localize(std::span<const ApObservation> observations,
                        const LocalizeConfig& cfg,
                        const runtime::ThreadPool* /*pool*/) {
  cfg.room.validate();
  if (cfg.grid_step_m <= 0.0) {
    throw std::invalid_argument("localize: grid step must be positive");
  }
  LocalizeResult out;
  if (observations.empty()) return out;

  std::vector<ApObservation> usable;
  std::vector<std::size_t> src_index;  // usable slot -> input index.
  usable.reserve(observations.size());
  src_index.reserve(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    if (!usable_observation(observations[i])) continue;
    usable.push_back(observations[i]);
    src_index.push_back(i);
  }
  if (usable.empty()) {
    out.status = LocalizeStatus::kDegenerateWeights;
    return out;
  }

  const auto nx = static_cast<index_t>(
      std::floor(cfg.room.width_m / cfg.grid_step_m)) + 1;
  const auto ny = static_cast<index_t>(
      std::floor(cfg.room.height_m / cfg.grid_step_m)) + 1;
  std::vector<GridAp> grid_aps(usable.size());
  for (std::size_t i = 0; i < usable.size(); ++i) {
    grid_aps[i] = {usable[i].pose.position, usable[i].pose.axis_unit(),
                   usable[i].aoa_deg, usable[i].weight};
  }
  const GridFix fix = grid_argmin(nx, ny, cfg.grid_step_m, grid_aps);
  out.position = fix.position;
  out.cost = fix.cost;
  out.valid = true;
  out.status = LocalizeStatus::kOk;

  // Robust fusion refinement, seeded by the grid argmin. Below the AP
  // floor the grid fix stands alone: a 2-AP robust solve has no
  // redundancy to tell an inlier from a liar.
  if (cfg.robust && static_cast<int>(usable.size()) >= cfg.robust_min_aps) {
    std::vector<fusion::Observation> fobs(usable.size());
    for (std::size_t i = 0; i < usable.size(); ++i) {
      fobs[i].pose = usable[i].pose;
      fobs[i].aoa_deg = usable[i].aoa_deg;
      fobs[i].weight = usable[i].weight;
      fobs[i].toa_s = usable[i].toa_s;
      fobs[i].has_toa = usable[i].has_toa && std::isfinite(usable[i].toa_s);
    }
    fusion::FusionReport report =
        fusion::fuse_robust(fobs, cfg.room, out.position, cfg.fusion);
    out.used_fusion = true;
    out.position = report.position;
    out.cost = report.cost;
    // Re-align per-AP diagnostics with the caller's input span; screened
    // observations keep default (non-inlier, zero-weight) entries.
    std::vector<fusion::ApDiagnostics> aligned(observations.size());
    for (std::size_t i = 0; i < src_index.size(); ++i) {
      aligned[src_index[i]] = report.per_ap[i];
    }
    report.per_ap = std::move(aligned);
    out.fusion = std::move(report);
  }
  return out;
}

}  // namespace roarray::loc
