#include "sparse/operator.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <string>

#include "linalg/backend/backend.hpp"
#include "linalg/gemm.hpp"

namespace roarray::sparse {

using linalg::gemm;
namespace backend = linalg::backend;

namespace {

void ensure_shape(CMat& m, index_t rows, index_t cols) {
  if (m.rows() != rows || m.cols() != cols) m = CMat(rows, cols);
}

/// Returns f after checking that every entry is finite (see the
/// KroneckerOperator constructor).
CMat finite_factor(CMat f, const char* what) {
  const double* d = reinterpret_cast<const double*>(f.data());
  for (index_t i = 0; i < 2 * f.size(); ++i) {
    if (!std::isfinite(d[i])) {
      throw std::invalid_argument(std::string("KroneckerOperator: ") + what +
                                  " factor has a non-finite entry");
    }
  }
  return f;
}

/// max_j ||f(:, j)||^2.
double max_col_norm_sq(const CMat& f) {
  double mx = 0.0;
  for (index_t j = 0; j < f.cols(); ++j) {
    double acc = 0.0;
    for (index_t i = 0; i < f.rows(); ++i) acc += std::norm(f(i, j));
    mx = std::max(mx, acc);
  }
  return mx;
}

/// True when linalg::gemm runs a product of this output height and
/// reduction depth on a per-column kernel (gemm_cols, gemm_cols_depth):
/// each output column is then computed from its own input column by the
/// same operations wherever it sits in the call, so a product over a
/// run of columns writes exactly those columns of the full product.
/// The generic tile groups columns when it packs them, so a masked
/// product runs it over every column instead.
bool per_column_gemm(index_t rows, index_t depth) {
  return rows <= backend::kSmallRowLimit || depth <= backend::kSmallDepthLimit;
}

/// Grows v to at least n entries (allocates only on first use).
void ensure_size(std::vector<index_t>& v, index_t n) {
  if (static_cast<index_t>(v.size()) < n) v.resize(static_cast<std::size_t>(n));
}

}  // namespace

KroneckerOperator::KroneckerOperator(CMat left, CMat right)
    : left_(finite_factor(std::move(left), "left")),
      right_(finite_factor(std::move(right), "right")),
      left_adj_(linalg::adjoint(left_)),
      right_t_(linalg::transpose(right_)),
      right_conj_(linalg::conjugate(right_)),
      left_col_norm_sq_max_(max_col_norm_sq(left_)),
      right_col_norm_sq_max_(max_col_norm_sq(right_)) {}

KroneckerOperator::KroneckerOperator(CMat left)
    : KroneckerOperator(std::move(left), CMat(1, 1, cxd{1.0, 0.0})) {}

// The reshape trick. A column-major block X of k unknown columns
// (each N_l*N_r, AoA-fastest) is, viewed in memory, an N_l x (N_r*k)
// matrix whose column (c*N_r + j) holds snapshot c's AoA slice at ToA
// bin j. Likewise an output block Y (each column M*L, antenna-fastest)
// is an M x (L*k) matrix. The forward map per snapshot c is
//   Y_c = left * X_c * right^T,
// so the whole block is:
//   (1) B = left * X           one GEMM over all N_r*k columns,
//   (2) permute B (M x N_r*k) into B' (M*k x N_r): row (c*M + r),
//   (3) Y' = B' * right^T      one GEMM, rows = M*k,
//   (4) scatter Y' back to Y (column c, entry l*M + r).
// The permutations move contiguous M-element runs (memcpy), and the
// result matches the per-column path to rounding.
//
// With a live mask (and M*k <= kSmallRowLimit, so both GEMMs run on
// gemm_cols) step (1) runs on the live blocks' column runs only, and
// steps (2)-(3) keep only the live blocks' columns of B' and rows of
// right^T. Both are exact: gemm_cols writes +0 for an all-zero input
// column (per-entry zero-skip, accumulator from +0), so a dead block's
// columns of B are +0; each of its terms in (3) is (+0) * finite = +/-0,
// and adding +/-0 to an accumulator that starts at +0 (and so never
// holds -0) leaves it unchanged.
void KroneckerOperator::apply_blocks(const cxd* x, index_t k,
                                     const std::uint8_t* live, cxd* y,
                                     Workspace& ws) const {
  const index_t m = left_.rows(), nl = left_.cols();
  const index_t l = right_.rows(), nr = right_.cols();
  const bool masked = live != nullptr && m * k <= backend::kSmallRowLimit;

  ensure_shape(ws.b, m, nr * k);
  index_t nt = nr;  // ToA blocks summed in (3): all, or ws.terms[0, nt)
  if (masked) {
    for_each_block_run(live, nr, [&](index_t j0, index_t j1) {
      for (index_t c = 0; c < k; ++c) {
        gemm(m, j1 - j0, nl, left_.data(), x + (c * nr + j0) * nl,
             ws.b.data() + (c * nr + j0) * m);
      }
    });
    ensure_size(ws.terms, nr);
    nt = 0;
    for (index_t j = 0; j < nr; ++j) {
      if (live[j] != 0) ws.terms[static_cast<std::size_t>(nt++)] = j;
    }
  } else {
    gemm(m, nr * k, nl, left_.data(), x, ws.b.data());
  }
  const auto term = [&](index_t d) {
    return nt == nr ? d : ws.terms[static_cast<std::size_t>(d)];
  };

  const cxd* bp = ws.b.data();  // Y' == Y for one snapshot: no permutation
  if (k > 1 || nt < nr) {
    ensure_shape(ws.bp, m * k, nr);
    for (index_t d = 0; d < nt; ++d) {
      for (index_t c = 0; c < k; ++c) {
        std::memcpy(ws.bp.data() + d * (m * k) + c * m,
                    ws.b.data() + (c * nr + term(d)) * m,
                    static_cast<std::size_t>(m) * sizeof(cxd));
      }
    }
    bp = ws.bp.data();
  }
  const cxd* rt = right_t_.data();
  if (nt < nr) {
    ensure_shape(ws.rt, nr, l);
    for (index_t li = 0; li < l; ++li) {
      for (index_t d = 0; d < nt; ++d) {
        ws.rt.data()[li * nt + d] = right_t_(term(d), li);
      }
    }
    rt = ws.rt.data();
  }

  if (k == 1) {
    gemm(m, l, nt, bp, rt, y);
    return;
  }
  ensure_shape(ws.yp, m * k, l);
  gemm(m * k, l, nt, bp, rt, ws.yp.data());
  for (index_t c = 0; c < k; ++c) {
    for (index_t li = 0; li < l; ++li) {
      std::memcpy(y + c * (m * l) + li * m,
                  ws.yp.data() + li * (m * k) + c * m,
                  static_cast<std::size_t>(m) * sizeof(cxd));
    }
  }
}

// Adjoint of the same factorization: X_c = left^H * (Y_c * conj(right)),
// batched as gather -> GEMM (toa_correlate) -> permute -> GEMM
// (aoa_expand). The final product runs against the precomputed left^H
// rather than a dot-product adjoint kernel: its inner dimension is the
// tiny antenna count, so streaming down contiguous N_l columns beats
// length-M dots. It writes straight into the caller's x block (its
// column layout is exactly the N_l x (N_r*k) view of the unknowns).
void KroneckerOperator::toa_correlate(const cxd* y, index_t k,
                                      const std::uint8_t* cols, CMat& bp,
                                      Workspace& ws) const {
  const index_t m = left_.rows();
  const index_t l = right_.rows(), nr = right_.cols();
  const index_t mk = m * k;
  ensure_shape(bp, mk, nr);
  const cxd* yp = y;  // Y' == Y for one snapshot: no permutation
  if (k > 1) {
    ensure_shape(ws.yp, mk, l);
    for (index_t c = 0; c < k; ++c) {
      for (index_t li = 0; li < l; ++li) {
        std::memcpy(ws.yp.data() + li * mk + c * m, y + c * (m * l) + li * m,
                    static_cast<std::size_t>(m) * sizeof(cxd));
      }
    }
    yp = ws.yp.data();
  }
  if (cols == nullptr || mk > backend::kSmallRowLimit) {
    gemm(mk, nr, l, yp, right_conj_.data(), bp.data());
    return;
  }
  for_each_block_run(cols, nr, [&](index_t j0, index_t j1) {
    gemm(mk, j1 - j0, l, yp, right_conj_.data() + j0 * l, bp.data() + j0 * mk);
  });
}

void KroneckerOperator::aoa_expand(const CMat& bp, index_t k,
                                   const std::uint8_t* keep, cxd* x,
                                   Workspace& ws) const {
  const index_t m = left_.rows(), nl = left_.cols();
  const index_t nr = right_.cols();
  const bool masked = keep != nullptr && per_column_gemm(nl, m);

  const cxd* b = bp.data();  // one snapshot: bp already is B
  if (k > 1) {
    ensure_shape(ws.b, m, nr * k);
    for (index_t c = 0; c < k; ++c) {
      for (index_t j = 0; j < nr; ++j) {
        if (masked && keep[j] == 0) continue;
        std::memcpy(ws.b.data() + (c * nr + j) * m,
                    bp.data() + j * (m * k) + c * m,
                    static_cast<std::size_t>(m) * sizeof(cxd));
      }
    }
    b = ws.b.data();
  }
  if (!masked) {
    gemm(nl, nr * k, m, left_adj_.data(), b, x);
    return;
  }
  for_each_block_run(keep, nr, [&](index_t j0, index_t j1) {
    for (index_t c = 0; c < k; ++c) {
      gemm(nl, j1 - j0, m, left_adj_.data(), b + (c * nr + j0) * m,
           x + (c * nr + j0) * nl);
    }
  });
}

CVec KroneckerOperator::apply(const CVec& x) const {
  if (x.size() != cols()) {
    throw std::invalid_argument("KroneckerOperator::apply: size");
  }
  CVec y(rows());
  Workspace ws;
  apply_blocks(x.data(), 1, nullptr, y.data(), ws);
  return y;
}

CVec KroneckerOperator::apply_adjoint(const CVec& y) const {
  if (y.size() != rows()) {
    throw std::invalid_argument("KroneckerOperator::apply_adjoint: size");
  }
  CVec x(cols());
  Workspace ws;
  CMat bp;
  toa_correlate(y.data(), 1, nullptr, bp, ws);
  aoa_expand(bp, 1, nullptr, x.data(), ws);
  return x;
}

void KroneckerOperator::apply_mat_into(const CMat& x, CMat& y) const {
  if (x.rows() != cols()) {
    throw std::invalid_argument("KroneckerOperator::apply_mat: rows");
  }
  ensure_shape(y, rows(), x.cols());
  if (x.cols() == 0) return;
  Workspace ws;
  apply_blocks(x.data(), x.cols(), nullptr, y.data(), ws);
}

void KroneckerOperator::apply_adjoint_mat_into(const CMat& y, CMat& x) const {
  if (y.rows() != rows()) {
    throw std::invalid_argument("KroneckerOperator::apply_adjoint_mat: rows");
  }
  ensure_shape(x, cols(), y.cols());
  if (y.cols() == 0) return;
  Workspace ws;
  CMat bp;
  toa_correlate(y.data(), y.cols(), nullptr, bp, ws);
  aoa_expand(bp, y.cols(), nullptr, x.data(), ws);
}

namespace {

/// Gathers the given columns of src into a new matrix, validating the
/// support is non-empty, strictly increasing, and in range.
CMat gather_columns(const CMat& src, const std::vector<index_t>& support,
                    const char* what) {
  if (support.empty()) {
    throw std::invalid_argument(std::string("SupportOperator: empty ") + what);
  }
  index_t prev = -1;
  for (const index_t idx : support) {
    if (idx <= prev || idx >= src.cols()) {
      throw std::invalid_argument(
          std::string("SupportOperator: ") + what +
          " must be strictly increasing and within the factor columns");
    }
    prev = idx;
  }
  CMat out(src.rows(), static_cast<index_t>(support.size()));
  for (index_t j = 0; j < out.cols(); ++j) {
    std::memcpy(out.data() + j * out.rows(),
                src.data() + support[static_cast<std::size_t>(j)] * src.rows(),
                static_cast<std::size_t>(src.rows()) * sizeof(cxd));
  }
  return out;
}

}  // namespace

SupportOperator::SupportOperator(const KroneckerOperator& full,
                                 std::vector<index_t> left_support,
                                 std::vector<index_t> right_support)
    : KroneckerOperator(
          gather_columns(full.left(), left_support, "left support"),
          gather_columns(full.right(), right_support, "right support")),
      left_support_(std::move(left_support)),
      right_support_(std::move(right_support)),
      full_left_cols_(full.left().cols()),
      full_cols_(full.cols()) {}

index_t SupportOperator::full_index(index_t local) const {
  const auto ni = static_cast<index_t>(left_support_.size());
  if (local < 0 || local >= cols()) {
    throw std::out_of_range("SupportOperator::full_index");
  }
  const index_t a = local % ni;
  const index_t b = local / ni;
  return right_support_[static_cast<std::size_t>(b)] * full_left_cols_ +
         left_support_[static_cast<std::size_t>(a)];
}

CVec SupportOperator::scatter(const CVec& x_restricted) const {
  if (x_restricted.size() != cols()) {
    throw std::invalid_argument("SupportOperator::scatter: size");
  }
  CVec full(full_cols_);
  for (index_t local = 0; local < cols(); ++local) {
    full[full_index(local)] = x_restricted[local];
  }
  return full;
}

CMat SupportOperator::scatter(const CMat& x_restricted) const {
  if (x_restricted.rows() != cols()) {
    throw std::invalid_argument("SupportOperator::scatter: rows");
  }
  CMat full(full_cols_, x_restricted.cols());
  for (index_t local = 0; local < cols(); ++local) {
    const index_t fi = full_index(local);
    for (index_t k = 0; k < x_restricted.cols(); ++k) {
      full(fi, k) = x_restricted(local, k);
    }
  }
  return full;
}

}  // namespace roarray::sparse
