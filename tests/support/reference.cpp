#include "support/reference.hpp"

#include <stdexcept>
#include <vector>

#include "linalg/gemm.hpp"
#include "sparse/prox.hpp"

namespace roarray::linalg {

CMat matmul_adj_left_blocked(const CMat& a, const CMat& b,
                             const backend::Backend* be) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_adj_left_blocked: shape mismatch");
  }
  CMat c(a.cols(), b.cols());
  gemm_adj_left(a.cols(), b.cols(), a.rows(), a.data(), b.data(), c.data(),
                be);
  return c;
}

}  // namespace roarray::linalg

namespace roarray::sparse {

CMat apply_mat(const KroneckerOperator& op, const CMat& x) {
  CMat y;
  op.apply_mat_into(x, y);
  return y;
}

CMat apply_adjoint_mat(const KroneckerOperator& op, const CMat& y) {
  CMat x;
  op.apply_adjoint_mat_into(y, x);
  return x;
}

CMat to_dense(const KroneckerOperator& op) {
  const index_t n = op.cols();
  CMat s(op.rows(), n);
  for (index_t j = 0; j < n; ++j) {
    CVec e(n);
    e[j] = cxd{1.0, 0.0};
    s.set_col(j, op.apply(e));
  }
  return s;
}

CMat row_gram(const KroneckerOperator& op) {
  const CMat gl = linalg::matmul_blocked(op.left(), adjoint(op.left()));
  const CMat gr = linalg::matmul_blocked(op.right(), adjoint(op.right()));
  const index_t m = gl.rows();
  const index_t l = gr.rows();
  CMat g(m * l, m * l);
  for (index_t lj = 0; lj < l; ++lj) {
    for (index_t li = 0; li < l; ++li) {
      const cxd grv = gr(li, lj);
      for (index_t mj = 0; mj < m; ++mj) {
        for (index_t mi = 0; mi < m; ++mi) {
          g(li * m + mi, lj * m + mj) = grv * gl(mi, mj);
        }
      }
    }
  }
  return g;
}

double kappa_max(const KroneckerOperator& op, const CVec& y) {
  return norm_inf(op.apply_adjoint(y));
}

double l1_objective(const KroneckerOperator& op, const CVec& y, const CVec& x,
                    double kappa) {
  CVec r = op.apply(x);
  r -= y;
  return 0.5 * norm2_sq(r) + kappa * norm1(x);
}

void group_soft_threshold_rows_inplace(CMat& x, double t,
                                       const linalg::backend::Backend* be) {
  const auto& bk = be != nullptr ? *be : linalg::backend::active();
  const index_t n = x.rows();
  const index_t k = x.cols();
  if (n == 0 || k == 0) return;
  // scale[i] holds the squared row norm during the sweep, then the
  // shrink factor or the zero-row marker (row_shrink_factors).
  std::vector<double> scale(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < k; ++j) {
    bk.row_sq_accumulate(x.data() + j * n, n, scale.data());
  }
  RowShrink shrunk;
  row_shrink_factors(scale.data(), 0, n, t, shrunk);
  for (index_t j = 0; j < k; ++j) {
    bk.row_scale(x.data() + j * n, n, scale.data());
  }
}

}  // namespace roarray::sparse
