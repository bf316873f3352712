// ROArray: robust joint AoA/ToA estimation by sparse recovery over a
// (theta, tau) sampling grid — the paper's primary contribution
// (Sections III-A, III-B, III-D).
//
// Pipeline per burst of CSI packets:
//   1. (optional) sanitize each packet: remove the per-packet detection
//      delay so packets are coherently fusable;
//   2. stack each M x L CSI matrix into a 90-dim measurement (Eq. 15);
//   3. multi-packet fusion: l1-SVD reduction of the snapshot matrix to
//      its dominant subspace (Section III-D "Multi-Packet fusion");
//   4. solve the l2,1 problem over the Kronecker-structured joint
//      steering operator (Eq. 16); a single packet is its one-column
//      case, the l1 problem of Eq. 18;
//   5. peaks of |a| reshaped over the grid are the paths; the smallest
//      ToA peak is the direct path (Section III-B).
#pragma once

#include <span>
#include <vector>

#include "dsp/constants.hpp"
#include "dsp/grid.hpp"
#include "dsp/spectrum.hpp"
#include "linalg/matrix.hpp"
#include "runtime/context.hpp"
#include "sparse/coarse_fine.hpp"
#include "sparse/fista.hpp"

namespace roarray::core {

using linalg::CMat;
using linalg::CVec;
using linalg::index_t;

/// One estimated propagation path.
struct PathEstimate {
  double aoa_deg = 0.0;
  double toa_s = 0.0;
  double power = 0.0;  ///< normalized spectrum power in (0, 1].
};

struct RoArrayConfig {
  dsp::Grid aoa_grid = dsp::Grid(0.0, 180.0, 91);
  dsp::Grid toa_grid = dsp::Grid(0.0, 784e-9, 50);
  sparse::SolveConfig solver;  ///< FISTA by default; kappa auto.
  /// Sanitize packets (detection-delay detrend) before fusing. Required
  /// for coherent multi-packet fusion; optional for single packets.
  bool sanitize = true;
  double rebias_delay_s = 100e-9;
  /// Dominant-subspace size for l1-SVD fusion; <= 0 = estimate from the
  /// singular-value profile.
  index_t fusion_rank = -1;
  /// Peak extraction.
  index_t max_paths = 6;
  double min_peak_rel_height = 0.12;
  /// Minimum grid-sample separation between accepted spectrum peaks
  /// along each axis (a candidate is suppressed only when it is within
  /// BOTH windows of an already accepted peak). Smaller values resolve
  /// closer path pairs at the risk of reporting sidelobes as paths.
  index_t min_peak_sep_aoa = 2;
  index_t min_peak_sep_toa = 1;
  /// The direct path is the smallest-ToA peak whose power is at least
  /// this fraction of the strongest peak; weaker residual spikes are
  /// listed in `paths` but never win the direct-path pick.
  double min_direct_rel_power = 0.4;
  /// Coarse-to-fine solve path (sparse/coarse_fine.hpp): when enabled,
  /// a cheap greedy pass over decimated grids selects candidate
  /// (AoA, ToA) cells and the convex solve runs restricted to the
  /// refined support. Cheaper per estimate than the full-grid solve
  /// (EXPERIMENTS.md records the measured ratio, which moves as either
  /// path is optimized); results agree with the full-grid solve to grid
  /// resolution on well-separated paths but are not bit-identical to it
  /// (off-support coefficients are exactly zero). Default off.
  sparse::CoarseFineConfig coarse_fine;
};

/// Full estimation result.
struct RoArrayResult {
  std::vector<PathEstimate> paths;  ///< sorted by ascending ToA.
  PathEstimate direct;              ///< smallest-ToA path.
  bool valid = false;               ///< false if no path was found.
  dsp::Spectrum2d spectrum;         ///< |a| over the (AoA, ToA) grid.
  int solver_iterations = 0;
  bool solver_converged = false;
};

/// Stacks an M x L CSI matrix into the measurement vector of Eq. 15
/// (antenna-fastest ordering).
[[nodiscard]] CVec stack_csi(const CMat& csi);

/// Reshapes sparse coefficient magnitudes onto the (AoA, ToA) grid as a
/// normalized 2-D spectrum (coefficient (i, j) at column j * Nth + i).
[[nodiscard]] dsp::Spectrum2d coefficients_to_spectrum(const CVec& coeffs,
                                                       const dsp::Grid& aoa_grid,
                                                       const dsp::Grid& toa_grid);

/// Same, from the row norms of a multi-snapshot coefficient matrix.
[[nodiscard]] dsp::Spectrum2d coefficients_to_spectrum(const CMat& coeffs,
                                                       const dsp::Grid& aoa_grid,
                                                       const dsp::Grid& toa_grid);

/// Runs the ROArray estimator on a burst of CSI packets (one or many).
/// With an optional per-iteration callback receiving the current sparse
/// iterate in full-grid coordinates (one column for a single packet, the
/// fused l1-SVD columns for a burst), used to trace spectrum sharpening
/// (paper Fig. 3). Throws std::invalid_argument on an empty burst, a CSI
/// shape mismatch or max_paths < 1.
[[nodiscard]] RoArrayResult roarray_estimate(
    std::span<const CMat> packets, const RoArrayConfig& cfg,
    const dsp::ArrayConfig& array_cfg,
    const sparse::IterationCallback& callback = nullptr);

/// Same, with a runtime context: a non-null cache reuses the steering
/// factors / Lipschitz estimate across calls sharing (grids, array); a
/// non-null pool parallelizes multi-snapshot operator applications.
/// Results are bit-identical to the context-free overload.
[[nodiscard]] RoArrayResult roarray_estimate(
    std::span<const CMat> packets, const RoArrayConfig& cfg,
    const dsp::ArrayConfig& array_cfg, const runtime::EstimateContext& ctx,
    const sparse::IterationCallback& callback = nullptr);

/// One CSI burst (the packets of one AP for one measurement round).
using CsiBurst = std::vector<CMat>;

/// Runs roarray_estimate over many bursts — e.g. one per AP, or one per
/// Monte Carlo trial — fanning out across ctx.pool (serial when null)
/// with the operator setup shared through ctx.cache. results[i] is
/// bit-identical to roarray_estimate(bursts[i], ...) at any thread
/// count.
///
/// Concurrency contract (DESIGN.md §8): the only cross-thread state is
/// the slot-per-burst results vector — worker i writes slot i and
/// nothing else — plus the internally synchronized cache/pool in ctx.
/// No locking happens at this layer, and none must be added without
/// thread-safety annotations (runtime/thread_annotations.hpp).
[[nodiscard]] std::vector<RoArrayResult> roarray_estimate_batch(
    std::span<const CsiBurst> bursts, const RoArrayConfig& cfg,
    const dsp::ArrayConfig& array_cfg, const runtime::EstimateContext& ctx = {});

/// AoA-only sparse spectrum (paper Section III-A): solves the group
/// problem over the spatial steering factor with every subcarrier as a
/// snapshot. Cheaper than the joint solve; used by phase calibration.
[[nodiscard]] dsp::Spectrum1d roarray_aoa_spectrum(
    const CMat& csi, const dsp::Grid& aoa_grid,
    const dsp::ArrayConfig& array_cfg, const sparse::SolveConfig& solver = {});

}  // namespace roarray::core
