#include "support/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace roarray::linalg {

CMat cholesky(const CMat& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const index_t n = a.rows();
  CMat l(n, n);
  for (index_t j = 0; j < n; ++j) {
    // Diagonal entry: sqrt(a_jj - sum_k |l_jk|^2), must be real positive.
    double diag = a(j, j).real();
    for (index_t k = 0; k < j; ++k) diag -= std::norm(l(j, k));
    if (diag <= 0.0 || !std::isfinite(diag)) {
      throw std::domain_error("cholesky: matrix is not positive definite");
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = cxd{ljj, 0.0};
    for (index_t i = j + 1; i < n; ++i) {
      cxd acc = a(i, j);
      for (index_t k = 0; k < j; ++k) acc -= l(i, k) * std::conj(l(j, k));
      l(i, j) = acc / ljj;
    }
  }
  return l;
}

CVec cholesky_solve(const CMat& l, const CVec& b) {
  const index_t n = l.rows();
  if (l.cols() != n) throw std::invalid_argument("cholesky_solve: L must be square");
  if (b.size() != n) throw std::invalid_argument("cholesky_solve: size mismatch");
  // Forward: L y = b.
  CVec y(n);
  for (index_t i = 0; i < n; ++i) {
    cxd acc = b[i];
    for (index_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
    y[i] = acc / l(i, i);
  }
  // Backward: L^H x = y.
  CVec x(n);
  for (index_t i = n - 1; i >= 0; --i) {
    cxd acc = y[i];
    for (index_t k = i + 1; k < n; ++k) acc -= std::conj(l(k, i)) * x[k];
    x[i] = acc / std::conj(l(i, i));
  }
  return x;
}

}  // namespace roarray::linalg
