// The FISTA solver for the paper's Lagrangian sparse-recovery objective
// in its multi-snapshot (l2,1 / l1-SVD) form
//
//     min_X  1/2 ||Y - S X||_F^2 + kappa sum_i ||X(i,:)||_2,
//
// whose one-column case is the single-snapshot problem (Eq. 11 / Eq. 18)
//
//     min_x  1/2 ||y - S x||_2^2 + kappa ||x||_1
//
// (for one column the row norm is |x_i|). solve_group_l1 is the one
// iteration loop; solve_l1 runs it on y as an m x 1 matrix.
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

/// Safety factor the solver applies to its Lipschitz estimate (the
/// step is 1 / (kLipschitzSafety * lambda_max(S^H S))).
inline constexpr double kLipschitzSafety = 1.05;

/// Solver configuration. The solver is FISTA with a monotone (function)
/// restart, and it forms S z from cached forward applications (two
/// operator applications per iteration; see DESIGN.md §5).
struct SolveConfig {
  int max_iterations = 400;
  /// Stop when the relative iterate change drops below this.
  double tolerance = 1e-6;
  /// Regularization weight kappa. <= 0 means "auto": kappa =
  /// kappa_ratio * ||S^H y||_inf (the smallest kappa giving x = 0 is
  /// exactly ||S^H y||_inf, so the ratio directly sets sparsity).
  double kappa = -1.0;
  double kappa_ratio = 0.15;
  /// Precomputed lambda_max(S^H S) (e.g. from runtime::OperatorCache).
  /// <= 0 means "estimate per call" (sparse::operator_norm_sq). Because
  /// that estimate is deterministic, a cached value equals the per-call
  /// one exactly — solutions are bit-identical either way.
  double lipschitz_hint = -1.0;
};

/// What the per-iteration ToA-block screen did over one solve (DESIGN.md
/// §5 item 10). Counts only, no clock: reading them or not leaves every
/// other result bit for bit the same. Each gradient (one per iteration,
/// two on a monotone restart) screens the ToA blocks that are not live
/// in the point the step starts from.
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

/// Result of a single-snapshot solve (solve_l1).
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
/// paper Fig. 3). Called after each iteration with the current n x k
/// iterate.
using IterationCallback = std::function<void(int iteration, const CMat& x)>;

/// Solves min_x 1/2 ||y - S x||^2 + kappa ||x||_1: solve_group_l1 on y
/// as one column, bit for bit (errors name solve_l1).
/// Throws std::invalid_argument on dimension mismatch. The estimators
/// call solve_group_l1; this spelling is kept because
/// perfbench/traced.cpp calls it (tests and micro benchmarks use it
/// too).
[[nodiscard]] SolveResult solve_l1(const KroneckerOperator& op, const CVec& y,
                                   const SolveConfig& cfg = {});

/// Solves the row-group problem
/// min_X 1/2 ||Y - S X||_F^2 + kappa sum_i ||X(i,:)||_2.
/// The optional callback sees every iterate. The solve runs on the
/// calling thread; callers parallelize across solves (one per burst),
/// never inside one.
[[nodiscard]] GroupSolveResult solve_group_l1(
    const KroneckerOperator& op, const CMat& y, const SolveConfig& cfg = {},
    const IterationCallback& callback = nullptr);

}  // namespace roarray::sparse
