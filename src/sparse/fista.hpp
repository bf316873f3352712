// Proximal-gradient solvers (ISTA / FISTA) for the paper's Lagrangian
// sparse-recovery objective (Eq. 11 / Eq. 18):
//
//     min_x  1/2 ||y - S x||_2^2 + kappa ||x||_1
//
// and its multi-snapshot (l2,1 / l1-SVD) generalization
//
//     min_X  1/2 ||Y - S X||_F^2 + kappa sum_i ||X(i,:)||_2.
//
// The paper solves the constrained SOCP form with CVX; the Lagrangian
// proximal form has identical minimizers (see DESIGN.md) and maps the
// "iteration progress" of the paper's Fig. 3 onto solver iterations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sparse/operator.hpp"

namespace roarray::sparse {

/// Which proximal-gradient flavor to run.
enum class Algorithm {
  kIsta,   ///< plain proximal gradient (baseline, slower convergence).
  kFista,  ///< Nesterov-accelerated with adaptive (function) restart.
};

/// Solver configuration.
struct SolveConfig {
  Algorithm algorithm = Algorithm::kFista;
  int max_iterations = 400;
  /// Stop when the relative iterate change drops below this.
  double tolerance = 1e-6;
  /// Regularization weight kappa. <= 0 means "auto": kappa =
  /// kappa_ratio * ||S^H y||_inf (the smallest kappa giving x = 0 is
  /// exactly ||S^H y||_inf, so the ratio directly sets sparsity).
  double kappa = -1.0;
  double kappa_ratio = 0.15;
  /// Safety factor applied to the power-iteration Lipschitz estimate.
  double lipschitz_safety = 1.05;
  /// Precomputed lambda_max(S^H S) (e.g. from runtime::OperatorCache).
  /// <= 0 means "estimate per call by power iteration". Because the
  /// power iteration is deterministic, a cached value equals the
  /// per-call one exactly — solutions are bit-identical either way.
  double lipschitz_hint = -1.0;
  /// Reuse cached forward applications across iterations: S z is formed
  /// from the momentum identity S z = (1 + beta) S x_new - beta S x_prev
  /// instead of a fresh operator application, cutting the per-iteration
  /// operator cost from 3 applications to 2 (the objective evaluation's
  /// S x_new is kept and becomes the next iterate's cached value). The
  /// identity is exact in exact arithmetic; in floating point iterates
  /// match the direct path to solver tolerance (see DESIGN.md). false
  /// recovers the direct 3-application path.
  bool reuse_applies = true;
};

/// What the per-iteration ToA-block screen did over one solve (DESIGN.md
/// §5 item 10). Counts only, no clock: reading them or not leaves every
/// other result bit for bit the same. Each gradient (one per iteration,
/// two on a monotone restart) screens the ToA blocks that are not live
/// in the point the step starts from. All zero for an operator without
/// Kronecker structure.
struct ScreenStats {
  /// Gradients that formed the residual's ToA correlation on every
  /// block: the first, each reference refresh, and every gradient when
  /// the stale-reference bound is off (M k > kSmallRowLimit) or its
  /// drift is not finite.
  std::int64_t full_correlates = 0;
  /// Non-live blocks the stale-reference drift bound cleared without
  /// forming their correlation.
  std::int64_t drift_cleared = 0;
  /// Non-live blocks decided by the exact test on their freshly formed
  /// correlation (on a full correlate, every non-live block).
  std::int64_t exact_tested = 0;

  friend bool operator==(const ScreenStats&, const ScreenStats&) = default;
};

/// Result of a single-snapshot solve.
struct SolveResult {
  CVec x;                         ///< recovered sparse coefficient vector.
  int iterations = 0;             ///< iterations actually run.
  bool converged = false;         ///< tolerance reached before max_iterations.
  double kappa = 0.0;             ///< regularization weight actually used.
  std::vector<double> objective;  ///< objective value after each iteration.
  ScreenStats screen;             ///< block-screen counters.
};

/// Result of a multi-snapshot (group) solve.
struct GroupSolveResult {
  CMat x;                         ///< n x k row-sparse coefficient matrix.
  int iterations = 0;
  bool converged = false;
  double kappa = 0.0;
  std::vector<double> objective;
  ScreenStats screen;             ///< block-screen counters.
};

/// Optional per-iteration observer (used to trace spectrum sharpening,
/// paper Fig. 3). Called after each iteration with the current iterate.
using IterationCallback = std::function<void(int iteration, const CVec& x)>;

/// Smallest kappa for which the l1 solution is identically zero.
[[nodiscard]] double kappa_max(const LinearOperator& op, const CVec& y);

/// Solves min_x 1/2 ||y - S x||^2 + kappa ||x||_1.
/// Throws std::invalid_argument on dimension mismatch.
[[nodiscard]] SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                                   const SolveConfig& cfg = {},
                                   const IterationCallback& callback = nullptr);

/// Solves the row-group problem
/// min_X 1/2 ||Y - S X||_F^2 + kappa sum_i ||X(i,:)||_2.
/// The optional pool parallelizes the per-snapshot operator columns
/// (results identical to the serial path).
[[nodiscard]] GroupSolveResult solve_group_l1(
    const LinearOperator& op, const CMat& y, const SolveConfig& cfg = {},
    const runtime::ThreadPool* pool = nullptr);

/// Objective value 1/2 ||y - S x||^2 + kappa ||x||_1 (for tests/benches).
[[nodiscard]] double l1_objective(const LinearOperator& op, const CVec& y,
                                  const CVec& x, double kappa);

}  // namespace roarray::sparse
