// The operator norm ||S||_2^2 = lambda_max(S^H S), the Lipschitz
// constant the proximal-gradient solvers step against: power iteration
// on a dense matrix, run per factor on a Kronecker operator.
#pragma once

#include "sparse/operator.hpp"

namespace roarray::sparse {

/// Estimates lambda_max(S^H S) of the dense matrix s by power iteration
/// on S^H S with a deterministic starting vector. Accurate to ~1% in
/// tens of iterations, which is plenty: FISTA only needs an upper bound
/// within a small safety factor (applied by the caller). Throws
/// std::invalid_argument on a non-positive iteration count; returns 0.0
/// only for a genuinely zero (or empty) matrix.
[[nodiscard]] double operator_norm_sq(const CMat& s, int iterations = 60);

/// ||L||^2 * ||R||^2 for S = R (x) L (the joint steering dictionary of
/// paper Eq. 16, its coarse-to-fine restrictions, and a 1-D dictionary
/// A (x) [1], whose [1] factor has norm exactly 1), each factor's norm
/// by `iterations` steps of the dense overload on the small factor
/// matrix: exact, since the singular values of a Kronecker product are
/// the products of the factors' singular values, and it never applies
/// the joint operator. Same errors as the dense overload.
[[nodiscard]] double operator_norm_sq(const KroneckerOperator& op,
                                      int iterations = 60);

}  // namespace roarray::sparse
