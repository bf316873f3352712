// Test-side conveniences and references around the library's operator
// and kernels. Nothing in the library calls them: the solvers run on
// KroneckerOperator's in-place applies, and these exist so tests (and
// the ADMM oracle in support/admm.hpp) can state results against plain
// matrices.
#pragma once

#include "linalg/backend/backend.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "sparse/operator.hpp"

namespace roarray::linalg {

/// Blocked drop-in for matmul_adj_left(a, b) (C = A^H B) through
/// gemm_adj_left. Throws on shape mismatch. Null backend uses the
/// process-global table.
[[nodiscard]] CMat matmul_adj_left_blocked(
    const CMat& a, const CMat& b, const backend::Backend* be = nullptr);

}  // namespace roarray::linalg

namespace roarray::sparse {

/// S x and S^H y on a multi-snapshot matrix, returned by value
/// (apply_mat_into / apply_adjoint_mat_into into a fresh matrix).
[[nodiscard]] CMat apply_mat(const KroneckerOperator& op, const CMat& x);
[[nodiscard]] CMat apply_adjoint_mat(const KroneckerOperator& op,
                                     const CMat& y);

/// The dense matrix of op, column j = S e_j (small problems only).
[[nodiscard]] CMat to_dense(const KroneckerOperator& op);

/// The small Gram matrix G = S S^H (rows x rows), used by ADMM through
/// the Woodbury identity: (right right^H) (x) (left left^H), formed from
/// the two small factor Grams, never touching the column dimension.
[[nodiscard]] CMat row_gram(const KroneckerOperator& op);

/// Smallest kappa for which the l1 solution is identically zero:
/// ||S^H y||_inf.
[[nodiscard]] double kappa_max(const KroneckerOperator& op, const CVec& y);

/// Objective value 1/2 ||y - S x||^2 + kappa ||x||_1.
[[nodiscard]] double l1_objective(const KroneckerOperator& op, const CVec& y,
                                  const CVec& x, double kappa);

/// Complex soft-thresholding: the proximal operator of t * ||.||_1 on
/// C^n shrinks each element's magnitude by t, preserving its phase:
/// prox(z) = z * max(0, 1 - t / |z|), zeroing when |z| <= t. One scalar
/// loop (std::abs on complex is hypot-based); the ADMM oracle's z-step.
void soft_threshold_inplace(CVec& x, double t);

/// Row-group soft-thresholding: the proximal operator of
/// t * sum_i ||X(i, :)||_2 (the l2,1 norm). Shrinks each row's l2 norm
/// by t, preserving direction: the group prox the FISTA engine fuses
/// into its gradient step (sparse/fista.cpp), as one standalone pass.
///
/// Row norms are accumulated in a column-major sweep against a per-row
/// buffer (Backend::row_sq_accumulate); per row the squared norm sums
/// over columns in ascending order, so the values match the row-outer
/// formulation exactly. The decision is row_shrink_factors' and the
/// write Backend::row_scale's. Null backend uses the process-global
/// table; pass one explicitly only to pin a table.
void group_soft_threshold_rows_inplace(
    CMat& x, double t, const linalg::backend::Backend* be = nullptr);

}  // namespace roarray::sparse
