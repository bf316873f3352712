// ADMM solver for the same l1 objective as sparse/fista.hpp, using the
// Woodbury identity so the per-iteration linear solve only touches the
// small row Gram matrix S S^H (m x m), never the huge grid dimension.
// The library never calls it: it is the tests' independent oracle for
// the FISTA engine (a different algorithm reaching the same minimizer).
#pragma once

#include "sparse/fista.hpp"
#include "sparse/operator.hpp"

namespace roarray::sparse {

/// ADMM-specific knobs on top of the shared stopping parameters.
struct AdmmConfig {
  int max_iterations = 200;
  double tolerance = 1e-6;   ///< on primal and dual residual norms.
  double rho = 1.0;          ///< augmented-Lagrangian penalty.
  double kappa = -1.0;       ///< <= 0: auto, kappa_ratio * ||S^H y||_inf.
  double kappa_ratio = 0.15;
};

/// Solves min_x 1/2||y - S x||^2 + kappa ||x||_1 by ADMM splitting
/// (x-update via Woodbury through S S^H, z-update via soft threshold).
[[nodiscard]] SolveResult solve_l1_admm(const KroneckerOperator& op,
                                        const CVec& y,
                                        const AdmmConfig& cfg = {});

}  // namespace roarray::sparse
