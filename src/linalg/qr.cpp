#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roarray::linalg {

HouseholderQr::HouseholderQr(index_t rows, index_t max_cols)
    : m_(rows),
      work_(rows, std::clamp<index_t>(max_cols, 0, rows)),
      v_(rows, work_.cols()),
      reflects_(static_cast<std::size_t>(work_.cols()), 0) {}

// (I - 2 v v^H) b over rows k .. m - 1, v the k-th stored reflector.
void HouseholderQr::apply_reflector(index_t k, cxd* b) const noexcept {
  const cxd* v = v_.data() + k * m_;
  cxd dot_vb{};
  for (index_t i = k; i < m_; ++i) dot_vb += std::conj(v[i]) * b[i];
  const cxd scale = 2.0 * dot_vb;
  for (index_t i = k; i < m_; ++i) b[i] -= scale * v[i];
}

void HouseholderQr::add_column(const cxd* col) {
  if (n_ == m_) throw std::invalid_argument("qr: requires rows >= cols");
  if (n_ == work_.cols()) throw std::length_error("qr: column budget exhausted");
  const index_t k = n_;
  cxd* w = work_.data() + k * m_;
  std::copy(col, col + m_, w);
  for (index_t j = 0; j < k; ++j) {
    if (reflects_[static_cast<std::size_t>(j)] != 0) apply_reflector(j, w);
  }

  // The reflector of column k, from w[k:m].
  cxd* v = v_.data() + k * m_;
  double xnorm_sq = 0.0;
  for (index_t i = k; i < m_; ++i) {
    v[i] = w[i];
    xnorm_sq += std::norm(w[i]);
  }
  const double xnorm = std::sqrt(xnorm_sq);
  if (xnorm > 0.0) {
    // alpha = -phase(x0) * ||x|| so that v = x - alpha e1 avoids cancellation.
    const cxd x0 = v[k];
    const cxd phase = std::abs(x0) > 0.0 ? x0 / std::abs(x0) : cxd{1.0, 0.0};
    const cxd alpha = -phase * xnorm;
    v[k] -= alpha;
    double vnorm_sq = 0.0;
    for (index_t i = k; i < m_; ++i) vnorm_sq += std::norm(v[i]);
    const double vnorm = std::sqrt(vnorm_sq);
    if (vnorm > 0.0) {
      const cxd inv{1.0 / vnorm, 0.0};
      for (index_t i = k; i < m_; ++i) v[i] *= inv;
      reflects_[static_cast<std::size_t>(k)] = 1;
    }
    w[k] = alpha;
    for (index_t i = k + 1; i < m_; ++i) w[i] = cxd{};
  }
  // Column k is final: later reflectors only touch later columns.
  for (index_t i = 0; i < m_; ++i) work_max_ = std::max(work_max_, std::abs(w[i]));
  ++n_;
}

void HouseholderQr::back_substitute(const cxd* c, cxd* x) const {
  const double pivot_tol = kRankTol * std::max(1.0, work_max_);
  for (index_t i = n_ - 1; i >= 0; --i) {
    cxd acc = c[i];
    for (index_t j = i + 1; j < n_; ++j) acc -= work_(i, j) * x[j];
    const cxd rii = work_(i, i);
    if (std::abs(rii) <= pivot_tol) {
      throw std::domain_error("qr solve: matrix is numerically rank deficient");
    }
    x[i] = acc / rii;
  }
}

}  // namespace roarray::linalg
