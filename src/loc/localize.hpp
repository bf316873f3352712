// Multi-AP localization: RSSI-weighted AoA triangulation on a candidate
// grid (paper Eq. 19, Section III-D "Multi-AP localization"), refined by
// the robust NLoS-aware fusion layer (src/fusion/, DESIGN.md §13) when
// enough APs report.
#pragma once

#include <span>
#include <vector>

#include "channel/geometry.hpp"
#include "fusion/fusion.hpp"

namespace roarray::runtime {
class ThreadPool;
}

namespace roarray::loc {

using channel::ApPose;
using channel::Room;
using channel::Vec2;

/// One AP's contribution: its pose, the estimated direct-path AoA, and
/// an RSSI-derived weight (linear power; relative scale is what matters).
/// ToA is optional (has_toa gates it) and feeds only the fusion layer's
/// NLoS positive-bias model — sanitization strips absolute range from
/// it, so it never places the client on its own.
struct ApObservation {
  ApPose pose;
  double aoa_deg = 0.0;
  double weight = 1.0;
  double toa_s = 0.0;
  bool has_toa = false;
};

struct LocalizeConfig {
  Room room;
  double grid_step_m = 0.1;  ///< the paper's 10 cm search grid.
  /// Robust fusion refinement (default on). The naive weighted grid
  /// argmin always runs first and seeds the IRLS solve; with robust off
  /// — or fewer usable APs than robust_min_aps — the grid fix is
  /// returned as-is, exactly the pre-fusion behaviour.
  bool robust = true;
  int robust_min_aps = 3;
  fusion::FusionConfig fusion;  ///< empty: fusion's settings are fixed.
};

/// Typed outcome of a localize call. Only kOk yields a usable position.
enum class LocalizeStatus {
  kOk,
  kNoObservations,      ///< empty observation span.
  kDegenerateWeights,   ///< every observation had a non-finite AoA or a
                        ///< non-positive / non-finite weight.
};

[[nodiscard]] const char* localize_status_name(LocalizeStatus s) noexcept;

struct LocalizeResult {
  Vec2 position;
  /// Weighted squared AoA deviation at the grid optimum; when
  /// used_fusion is set, the fusion layer's total robust cost instead.
  double cost = 0.0;
  bool valid = false;  ///< == (status == LocalizeStatus::kOk).
  LocalizeStatus status = LocalizeStatus::kNoObservations;
  /// True when the robust fusion layer produced `position`; false on the
  /// naive-grid path (robust off, or fewer than robust_min_aps usable
  /// observations).
  bool used_fusion = false;
  /// Fusion diagnostics, index-aligned with the *input* span (entries
  /// for observations screened out as degenerate stay default). Only
  /// meaningful when used_fusion is true.
  fusion::FusionReport fusion;
};

/// Finds argmin_x sum_i R_i * (phi_i(x) - phi_hat_i)^2 over a uniform
/// grid covering the room, where phi_i(x) is the AoA AP i would observe
/// for a target at x, then (by default) refines it with the robust
/// fusion layer. Observations with non-finite AoA or non-positive /
/// non-finite weight are screened out; if none survive the result
/// carries a typed error status instead of a silent bogus fix. Throws
/// std::invalid_argument on a non-positive grid step.
///
/// The grid argmin is exact, not a heuristic. The grid is cut into
/// 16 x 16-candidate tiles; each tile gets a conservative lower bound on
/// the cost of every candidate in it (per AP, the circular distance from
/// phi_hat_i to the tile's AoA interval, widened by a rounding slack).
/// Tiles are evaluated candidate by candidate in ascending bound order,
/// and the search stops at the first tile whose bound exceeds the best
/// cost found. Candidates within 1e-9 m of an AP are skipped, and cost
/// ties resolve to the lowest (row, column), so position and cost are
/// bit-identical to a full row-major scan with a strict-less update.
/// The search is serial: `pool` no longer splits the grid and is kept
/// for source compatibility only; the fusion refinement is
/// single-threaded and deterministic by construction.
[[nodiscard]] LocalizeResult localize(std::span<const ApObservation> observations,
                                      const LocalizeConfig& cfg,
                                      const runtime::ThreadPool* pool = nullptr);

}  // namespace roarray::loc
