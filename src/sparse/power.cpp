#include "sparse/power.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/gemm.hpp"

namespace roarray::sparse {

double operator_norm_sq(const CMat& s, int iterations) {
  if (iterations <= 0) {
    // A silent 0.0 here used to surface much later as a misleading
    // "solve_l1: zero operator" from resolve_step.
    throw std::invalid_argument("operator_norm_sq: iterations must be positive");
  }
  const index_t n = s.cols();
  const index_t m = s.rows();
  if (n == 0 || m == 0) return 0.0;
  // Deterministic pseudo-random start vector: avoids pathological
  // alignment with an eigen-null direction without seeding a real RNG.
  // The round trips recycle single-column buffers.
  CMat v(n, 1);
  double seed = 0.5;
  for (index_t i = 0; i < n; ++i) {
    seed = std::fmod(seed * 997.0 + 1.0, 1.0) + 0.1;
    v(i, 0) = cxd{seed, 0.37 * seed + 0.01};
  }
  double nv = norm_fro(v);
  v *= cxd{1.0 / nv, 0.0};

  CMat sv(m, 1);
  CMat w(n, 1);
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    linalg::gemm(m, 1, n, s.data(), v.data(), sv.data());
    linalg::gemm_adj_left(n, 1, m, s.data(), sv.data(), w.data());
    const double nw = norm_fro(w);
    if (nw <= 0.0) return 0.0;
    lambda = nw;  // ||S^H S v|| -> lambda_max as v converges
    w *= cxd{1.0 / nw, 0.0};
    std::swap(v, w);
  }
  return lambda;
}

double operator_norm_sq(const KroneckerOperator& op, int iterations) {
  return operator_norm_sq(op.left(), iterations) *
         operator_norm_sq(op.right(), iterations);
}

}  // namespace roarray::sparse
