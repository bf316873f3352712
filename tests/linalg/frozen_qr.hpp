// A frozen copy of the batch Householder QR the library's batch
// factorization and least-squares solves ran before they were rebuilt
// on the column-append linalg::HouseholderQr. Differential tests compare
// the library with it bit for bit; do not "fix" or modernize it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/vector.hpp"

namespace roarray::testing::frozen {

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// Thin factorization A = Q R: Q (m x n, orthonormal columns), R (n x n,
/// upper triangular).
struct QrResult {
  CMat q;
  CMat r;
};

struct HouseholderQr {
  CMat work;
  std::vector<CVec> reflectors;
  index_t m = 0;
  index_t n = 0;

  explicit HouseholderQr(const CMat& a) : work(a), m(a.rows()), n(a.cols()) {
    if (m < n) throw std::invalid_argument("qr: requires rows >= cols");
    reflectors.reserve(static_cast<std::size_t>(n));
    factorize();
  }

  void factorize() {
    for (index_t k = 0; k < n; ++k) {
      CVec v(m - k);
      double xnorm_sq = 0.0;
      for (index_t i = k; i < m; ++i) {
        v[i - k] = work(i, k);
        xnorm_sq += std::norm(work(i, k));
      }
      const double xnorm = std::sqrt(xnorm_sq);
      if (xnorm > 0.0) {
        const cxd x0 = v[0];
        const cxd phase = std::abs(x0) > 0.0 ? x0 / std::abs(x0) : cxd{1.0, 0.0};
        const cxd alpha = -phase * xnorm;
        v[0] -= alpha;
        const double vnorm = norm2(v);
        if (vnorm > 0.0) {
          v *= cxd{1.0 / vnorm, 0.0};
          apply_reflector_to_trailing(v, k);
        }
        work(k, k) = alpha;
        for (index_t i = k + 1; i < m; ++i) work(i, k) = cxd{};
      }
      reflectors.push_back(std::move(v));
    }
  }

  void apply_reflector_to_trailing(const CVec& v, index_t k) {
    for (index_t j = k + 1; j < n; ++j) {
      cxd dot_vx{};
      for (index_t i = k; i < m; ++i) dot_vx += std::conj(v[i - k]) * work(i, j);
      const cxd scale = 2.0 * dot_vx;
      for (index_t i = k; i < m; ++i) work(i, j) -= scale * v[i - k];
    }
  }

  void apply_qh(CVec& b) const {
    for (index_t k = 0; k < n; ++k) {
      const CVec& v = reflectors[static_cast<std::size_t>(k)];
      if (v.size() == 0) continue;
      cxd dot_vb{};
      for (index_t i = k; i < m; ++i) dot_vb += std::conj(v[i - k]) * b[i];
      const cxd scale = 2.0 * dot_vb;
      for (index_t i = k; i < m; ++i) b[i] -= scale * v[i - k];
    }
  }

  void apply_q(CVec& b) const {
    for (index_t k = n - 1; k >= 0; --k) {
      const CVec& v = reflectors[static_cast<std::size_t>(k)];
      if (v.size() == 0) continue;
      cxd dot_vb{};
      for (index_t i = k; i < m; ++i) dot_vb += std::conj(v[i - k]) * b[i];
      const cxd scale = 2.0 * dot_vb;
      for (index_t i = k; i < m; ++i) b[i] -= scale * v[i - k];
    }
  }

  [[nodiscard]] CVec back_substitute(const CVec& c) const {
    const double pivot_tol = linalg::kRankTol * std::max(1.0, norm_max(work));
    CVec x(n);
    for (index_t i = n - 1; i >= 0; --i) {
      cxd acc = c[i];
      for (index_t j = i + 1; j < n; ++j) acc -= work(i, j) * x[j];
      const cxd rii = work(i, i);
      if (std::abs(rii) <= pivot_tol) {
        throw std::domain_error("qr solve: matrix is numerically rank deficient");
      }
      x[i] = acc / rii;
    }
    return x;
  }
};

inline QrResult qr(const CMat& a) {
  HouseholderQr h(a);
  const index_t m = a.rows();
  const index_t n = a.cols();
  QrResult out;
  out.r = CMat(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) out.r(i, j) = h.work(i, j);
  out.q = CMat(m, n);
  for (index_t j = 0; j < n; ++j) {
    CVec e(m);
    e[j] = cxd{1.0, 0.0};
    h.apply_q(e);
    out.q.set_col(j, e);
  }
  return out;
}

inline CVec lstsq(const CMat& a, const CVec& b) {
  if (b.size() != a.rows()) throw std::invalid_argument("lstsq: size mismatch");
  HouseholderQr h(a);
  CVec c = b;
  h.apply_qh(c);
  return h.back_substitute(c);
}

inline CMat solve(const CMat& a, const CMat& b) {
  if (a.rows() != a.cols()) throw std::invalid_argument("solve: matrix must be square");
  if (b.rows() != a.rows()) throw std::invalid_argument("solve: shape mismatch");
  HouseholderQr h(a);
  CMat x(a.cols(), b.cols());
  for (index_t j = 0; j < b.cols(); ++j) {
    CVec c = b.col_vec(j);
    h.apply_qh(c);
    x.set_col(j, h.back_substitute(c));
  }
  return x;
}

}  // namespace roarray::testing::frozen

namespace roarray::testing {

/// True when the n complex entries at a and b agree bit for bit (NaN
/// payloads and zero signs included).
inline bool same_bits(const linalg::cxd* a, const linalg::cxd* b,
                      linalg::index_t n) {
  return n == 0 ||
         std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(linalg::cxd)) ==
             0;
}

inline bool same_bits(const linalg::CVec& a, const linalg::CVec& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

inline bool same_bits(const linalg::CMat& a, const linalg::CMat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_bits(a.data(), b.data(), a.size());
}

}  // namespace roarray::testing
