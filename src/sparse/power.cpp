#include "sparse/power.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace roarray::sparse {

double operator_norm_sq(const LinearOperator& op, int iterations) {
  if (iterations <= 0) {
    // A silent 0.0 here used to surface much later as a misleading
    // "solve_l1: zero operator" from resolve_step.
    throw std::invalid_argument("operator_norm_sq: iterations must be positive");
  }
  if (const KroneckerOperator* kron = op.kronecker()) {
    return operator_norm_sq(DenseOperator(kron->left()), iterations) *
           operator_norm_sq(DenseOperator(kron->right()), iterations);
  }
  const index_t n = op.cols();
  if (n == 0 || op.rows() == 0) return 0.0;
  // Deterministic pseudo-random start vector: avoids pathological
  // alignment with an eigen-null direction without seeding a real RNG.
  // The iteration runs on single-column matrices through the _into
  // interface so the round trips recycle their buffers; the values
  // match the vector-interface formulation bit for bit.
  CMat v(n, 1);
  double seed = 0.5;
  for (index_t i = 0; i < n; ++i) {
    seed = std::fmod(seed * 997.0 + 1.0, 1.0) + 0.1;
    v(i, 0) = cxd{seed, 0.37 * seed + 0.01};
  }
  double nv = norm_fro(v);
  v *= cxd{1.0 / nv, 0.0};

  CMat sv(op.rows(), 1);
  CMat w(n, 1);
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    op.apply_mat_into(v, sv);
    op.apply_adjoint_mat_into(sv, w);
    const double nw = norm_fro(w);
    if (nw <= 0.0) return 0.0;
    lambda = nw;  // ||S^H S v|| -> lambda_max as v converges
    w *= cxd{1.0 / nw, 0.0};
    std::swap(v, w);
  }
  return lambda;
}

}  // namespace roarray::sparse
