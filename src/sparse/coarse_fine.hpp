// Coarse-to-fine factored dictionary search (ROADMAP item 1; the
// MOMP-style two-resolution pattern): a cheap greedy pass over
// decimated per-dimension grids selects candidate (theta, tau) cells,
// local refinement windows around the survivors are unioned per
// dimension, and the convex solve then runs restricted to the pruned
// Cartesian sub-dictionary through SupportOperator — turning the
// dominant per-iteration cost from O(M L Ntau + M Nth Ntau) over the
// full grid into the same expressions over the (much smaller) selected
// index sets. See DESIGN.md "Coarse-to-fine factored dictionary" for
// the agreement contract with the full-grid solve.
#pragma once

#include <vector>

#include "dsp/grid.hpp"
#include "sparse/operator.hpp"

namespace roarray::sparse {

/// The coarse pass's fixed settings: the two-resolution design of MOMP
/// with one decimation per axis.
///
/// Grid decimation factors of the coarse pass. The coarse grid keeps
/// every decimation-th fine sample starting at index 0, so coarse atoms
/// are fine atoms and candidates map back by index * decimation.
inline constexpr index_t kCoarseAoaDecimation = 4;
inline constexpr index_t kCoarseToaDecimation = 2;
/// Half-width (in fine grid cells) of the refinement window unioned
/// around each coarse candidate. decimation / 2 covers every fine cell
/// whose nearest coarse sample is the candidate; the AoA radius adds
/// one cell of slack because the broad AoA mainlobe lets noise push the
/// coarse argmax across a bin boundary, while the ToA correlation is
/// sharp enough (and its decimation small enough) that the exact cover
/// suffices.
inline constexpr index_t kAoaRefineRadius = kCoarseAoaDecimation / 2 + 1;
inline constexpr index_t kToaRefineRadius = kCoarseToaDecimation / 2;
/// Atom budget of the coarse greedy pass, per snapshot. Must cover the
/// paths present; it leaves headroom over the default
/// core::RoArrayConfig::max_paths.
inline constexpr index_t kCoarseMaxCandidates = 8;
/// Early-stop residual of the coarse pass, as a fraction of ||y||.
inline constexpr double kCoarseResidualTolerance = 0.02;
/// Coarse atoms whose least-squares coefficient magnitude falls below
/// this fraction of the strongest atom's (per snapshot column) are
/// noise picks — the greedy pass keeps selecting into the noise floor
/// after the real paths are explained — and spawn no refinement window.
/// Without this filter a moderate-SNR burst unions windows over most of
/// the grid and the restricted solve prunes nothing.
inline constexpr double kCoarseMinRelGain = 0.12;

/// Settings of the coarse-to-fine solve path (consumed by
/// core::RoArrayConfig).
struct CoarseFineConfig {
  /// Off by default: the full-grid solve stays the reference path.
  bool enabled = false;
  /// Iteration cap of the restricted convex solve. The pruned
  /// subproblem is orders of magnitude smaller and far better
  /// conditioned than the full-grid one, so it stabilizes its
  /// (grid-quantized) peaks in a fraction of the full budget; the cap
  /// applies as min(solver.max_iterations, this). <= 0 inherits
  /// solver.max_iterations unchanged.
  int max_refine_iterations = 100;
  /// Convergence tolerance (relative iterate change) of the restricted
  /// solve; applies as max(solver.tolerance, this). The peaks only need
  /// grid-cell accuracy, so easy (rank-1, small-support) subproblems
  /// exit long before the iteration cap while hard ones keep their full
  /// budget — an adaptive cut the blunt cap cannot make. <= 0 inherits
  /// solver.tolerance unchanged. Must be < 1.
  double refine_tolerance = 3e-4;

  /// Throws std::invalid_argument when refine_tolerance is not < 1.
  void validate() const;
};

/// The coarse companion of a fine grid: every `decimation`-th sample,
/// starting at the first. Returns the fine grid unchanged when the
/// decimation keeps every point.
[[nodiscard]] dsp::Grid decimate_grid(const dsp::Grid& fine,
                                      index_t decimation);

/// A factored (per-dimension) support over the fine grids: strictly
/// increasing AoA and ToA column indices. The pruned dictionary is
/// their Cartesian product — exactly what SupportOperator consumes.
struct FactoredSupport {
  std::vector<index_t> aoa;
  std::vector<index_t> toa;

  [[nodiscard]] bool empty() const noexcept {
    return aoa.empty() || toa.empty();
  }
};

/// Runs the coarse greedy (OMP) pass on every snapshot column of
/// `snapshots` against `coarse_op` — the operator over the grids
/// decimated by kCoarseAoaDecimation and kCoarseToaDecimation — and
/// unions the refinement windows of every selected atom into a factored
/// fine-grid support. The grid tail past the last coarse sample (when
/// the point count does not divide evenly) lies within the last coarse
/// atom's window, so every fine cell stays reachable. Returns an empty support iff no snapshot had any
/// correlated energy (an all-zero measurement). Throws
/// std::invalid_argument when `coarse_op` does not match the decimated
/// fine grids. The coarse pass reads none of the CoarseFineConfig
/// fields; the parameter keeps the signature stable for callers.
[[nodiscard]] FactoredSupport select_factored_support(
    const KroneckerOperator& coarse_op, const CMat& snapshots,
    index_t fine_aoa_n, index_t fine_toa_n, const CoarseFineConfig& cfg);

}  // namespace roarray::sparse
