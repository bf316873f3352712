// Orthogonal Matching Pursuit: the classic greedy alternative to l1
// relaxation. Included as an ablation against the paper's convex
// formulation — OMP is faster per path but needs an explicit sparsity
// budget and is brittle when paths are correlated or SNR is low, which
// is exactly the regime the paper targets.
#pragma once

#include <vector>

#include "sparse/operator.hpp"

namespace roarray::sparse {

struct OmpConfig {
  /// Greedy iterations = maximum number of recovered atoms.
  index_t max_atoms = 6;
  /// Stop early once the residual norm falls below this fraction of the
  /// measurement norm.
  double residual_tolerance = 0.05;
};

struct OmpResult {
  CVec x;                        ///< sparse coefficients (dense storage).
  std::vector<index_t> support;  ///< selected atom indices, in pick order.
  double residual_norm = 0.0;    ///< final ||y - S x||.
  index_t iterations = 0;
};

/// Greedy solve of y ~= S x with at most cfg.max_atoms nonzeros:
/// repeatedly picks the atom best correlated with the residual, then
/// re-fits all selected coefficients by least squares. Throws
/// std::invalid_argument on dimension mismatch or a non-positive budget.
[[nodiscard]] OmpResult solve_omp(const KroneckerOperator& op, const CVec& y,
                                  const OmpConfig& cfg = {});

}  // namespace roarray::sparse
