#include "support/admm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sparse/prox.hpp"
#include "support/cholesky.hpp"
#include "support/reference.hpp"

namespace roarray::sparse {

using linalg::cholesky;
using linalg::cholesky_solve;

SolveResult solve_l1_admm(const KroneckerOperator& op, const CVec& y,
                          const AdmmConfig& cfg) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_l1_admm: rhs size");
  if (cfg.rho <= 0.0) throw std::invalid_argument("solve_l1_admm: rho must be > 0");
  if (cfg.max_iterations < 1) {
    throw std::invalid_argument("solve_l1_admm: max_iterations");
  }

  SolveResult out;
  out.kappa = cfg.kappa > 0.0 ? cfg.kappa : cfg.kappa_ratio * kappa_max(op, y);

  const index_t m = op.rows();
  const index_t n = op.cols();

  // Woodbury: (S^H S + rho I)^{-1} b = (b - S^H (rho I + S S^H)^{-1} S b)/rho.
  // Factor (rho I + S S^H) once.
  CMat small = row_gram(op);
  for (index_t i = 0; i < m; ++i) small(i, i) += cxd{cfg.rho, 0.0};
  const CMat l_factor = cholesky(small);

  const CVec sty = op.apply_adjoint(y);
  CVec x(n), z(n), u(n);

  auto x_update = [&](const CVec& b) {
    const CVec sb = op.apply(b);
    const CVec inner = cholesky_solve(l_factor, sb);
    CVec corr = op.apply_adjoint(inner);
    CVec result = b;
    result -= corr;
    result *= cxd{1.0 / cfg.rho, 0.0};
    return result;
  };

  for (int it = 1; it <= cfg.max_iterations; ++it) {
    // b = S^H y + rho (z - u)
    CVec b = z;
    b -= u;
    b *= cxd{cfg.rho, 0.0};
    b += sty;
    x = x_update(b);

    CVec z_old = z;
    z = x;
    z += u;
    soft_threshold_inplace(z, out.kappa / cfg.rho);

    // u += x - z
    CVec primal = x;
    primal -= z;
    u += primal;

    out.iterations = it;
    out.objective.push_back(l1_objective(op, y, z, out.kappa));

    CVec dual = z;
    dual -= z_old;
    const double primal_res = norm2(primal) / std::max(1.0, norm2(x));
    const double dual_res = cfg.rho * norm2(dual) / std::max(1.0, norm2(u) * cfg.rho);
    if (primal_res < cfg.tolerance && dual_res < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(z);  // z is the sparse iterate (exactly thresholded)
  return out;
}

}  // namespace roarray::sparse
