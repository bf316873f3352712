// Shared helpers for the test suites.
#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <random>
#include <vector>

#include "linalg/backend/backend.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::testing {

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// The backend tables a case runs under: scalar always, simd when the
/// binary and the CPU have it.
inline std::vector<const linalg::backend::Backend*> backend_tables() {
  std::vector<const linalg::backend::Backend*> out = {
      &linalg::backend::scalar()};
  if (linalg::backend::simd() != nullptr) {
    out.push_back(linalg::backend::simd());
  }
  return out;
}

/// Restores the env/auto backend selection however a test that calls
/// linalg::backend::force exits.
struct BackendForceGuard {
  BackendForceGuard() = default;
  BackendForceGuard(const BackendForceGuard&) = delete;
  BackendForceGuard& operator=(const BackendForceGuard&) = delete;
  ~BackendForceGuard() { linalg::backend::force(nullptr); }
};

/// Deterministic RNG for reproducible tests.
inline std::mt19937_64 make_rng(std::uint64_t seed = 42) {
  return std::mt19937_64{seed};
}

/// Random complex matrix with iid standard normal re/im parts.
inline CMat random_cmat(index_t rows, index_t cols, std::mt19937_64& rng) {
  std::normal_distribution<double> n(0.0, 1.0);
  CMat m(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) m(i, j) = cxd{n(rng), n(rng)};
  return m;
}

/// Random complex vector.
inline CVec random_cvec(index_t n, std::mt19937_64& rng) {
  std::normal_distribution<double> d(0.0, 1.0);
  CVec v(n);
  for (index_t i = 0; i < n; ++i) v[i] = cxd{d(rng), d(rng)};
  return v;
}

/// Random Hermitian matrix A = B + B^H.
inline CMat random_hermitian(index_t n, std::mt19937_64& rng) {
  const CMat b = random_cmat(n, n, rng);
  CMat a = b;
  const CMat bh = adjoint(b);
  a += bh;
  return a;
}

/// Random Hermitian positive-definite matrix A = B B^H + eps I.
inline CMat random_hpd(index_t n, std::mt19937_64& rng, double eps = 0.5) {
  const CMat b = random_cmat(n, n, rng);
  CMat a = matmul(b, adjoint(b));
  for (index_t i = 0; i < n; ++i) a(i, i) += cxd{eps, 0.0};
  return a;
}

/// Asserts two complex matrices are element-wise close.
inline void expect_mat_near(const CMat& a, const CMat& b, double tol,
                            const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(std::abs(a(i, j) - b(i, j)), 0.0, tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

/// Asserts two complex vectors are element-wise close.
inline void expect_vec_near(const CVec& a, const CVec& b, double tol,
                            const char* what = "") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, tol) << what << " at " << i;
  }
}

/// Checks Q^H Q = I.
inline void expect_orthonormal_columns(const CMat& q, double tol) {
  const CMat g = matmul_adj_left(q, q);
  for (index_t j = 0; j < g.cols(); ++j) {
    for (index_t i = 0; i < g.rows(); ++i) {
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(g(i, j)), expected, tol)
          << "gram at (" << i << "," << j << ")";
    }
  }
}

}  // namespace roarray::testing
