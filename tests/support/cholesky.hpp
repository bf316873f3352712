// Cholesky factorization for Hermitian positive-definite matrices: the
// small-Gram solve of the ADMM test oracle (support/admm.hpp), its only
// user.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::linalg {

/// Computes the lower-triangular factor L with A = L L^H.
/// Throws std::domain_error if A is not (numerically) positive definite.
[[nodiscard]] CMat cholesky(const CMat& a);

/// Solves A x = b given the Cholesky factor L of A (forward then
/// backward substitution).
[[nodiscard]] CVec cholesky_solve(const CMat& l, const CVec& b);

}  // namespace roarray::linalg
