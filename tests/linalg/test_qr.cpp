#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "frozen_qr.hpp"

namespace roarray::linalg {
namespace {

/// Factors every column of `a`, in order.
HouseholderQr factor(const CMat& a) {
  HouseholderQr h(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) h.add_column(a.data() + j * a.rows());
  return h;
}

/// Q^H b: reflectors 0 .. cols() - 1 in order.
CVec reflect_qh(const HouseholderQr& h, CVec b) {
  for (index_t k = 0; k < h.cols(); ++k) h.apply_reflector(k, b.data());
  return b;
}

/// Q b: the reflectors in reverse order (each one is its own inverse).
CVec reflect_q(const HouseholderQr& h, CVec b) {
  for (index_t k = h.cols() - 1; k >= 0; --k) h.apply_reflector(k, b.data());
  return b;
}

/// Q^H a, column by column.
CMat qh_times(const HouseholderQr& h, const CMat& a) {
  CMat out(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) out.set_col(j, reflect_qh(h, a.col_vec(j)));
  return out;
}

/// The thin Q: Q applied to the first cols() identity columns.
CMat thin_q(const HouseholderQr& h) {
  CMat q(h.rows(), h.cols());
  for (index_t j = 0; j < h.cols(); ++j) {
    CVec e(h.rows());
    e[j] = cxd{1.0, 0.0};
    q.set_col(j, reflect_q(h, std::move(e)));
  }
  return q;
}

/// The leading cols() x cols() block of Q^H a: R, up to rounding below
/// its diagonal.
CMat r_factor(const HouseholderQr& h, const CMat& a) {
  const CMat qha = qh_times(h, a);
  CMat r(h.cols(), h.cols());
  for (index_t j = 0; j < h.cols(); ++j)
    for (index_t i = 0; i < h.cols(); ++i) r(i, j) = qha(i, j);
  return r;
}

/// The least-squares fit min_x ||A x - b||: back-substitution on Q^H b.
CVec least_squares(const HouseholderQr& h, const CVec& b) {
  const CVec c = reflect_qh(h, b);
  CVec x(h.cols());
  h.back_substitute(c.data(), x.data());
  return x;
}

/// QR = A, with Q^H A upper triangular below the diagonal.
void expect_factors(const CMat& a, double tol) {
  const HouseholderQr h = factor(a);
  const CMat qha = qh_times(h, a);
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = j + 1; i < a.rows(); ++i)
      EXPECT_NEAR(std::abs(qha(i, j)), 0.0, tol) << i << ", " << j;
  testing::expect_mat_near(matmul(thin_q(h), r_factor(h, a)), a, tol, "QR = A");
}

TEST(Qr, ReconstructsSquareMatrix) {
  auto rng = testing::make_rng(1);
  expect_factors(testing::random_cmat(5, 5, rng), 1e-10);
}

TEST(Qr, ReconstructsTallMatrix) {
  auto rng = testing::make_rng(2);
  const CMat a = testing::random_cmat(9, 4, rng);
  const HouseholderQr h = factor(a);
  EXPECT_EQ(h.rows(), 9);
  EXPECT_EQ(h.cols(), 4);
  expect_factors(a, 1e-10);
}

TEST(Qr, QHasOrthonormalColumns) {
  auto rng = testing::make_rng(3);
  const CMat a = testing::random_cmat(8, 5, rng);
  testing::expect_orthonormal_columns(thin_q(factor(a)), 1e-10);
}

TEST(Qr, QhPreservesNorm) {
  auto rng = testing::make_rng(9);
  const CMat a = testing::random_cmat(11, 6, rng);
  const HouseholderQr h = factor(a);
  for (int t = 0; t < 4; ++t) {
    const CVec b = testing::random_cvec(11, rng);
    EXPECT_NEAR(norm2(reflect_qh(h, b)), norm2(b), 1e-12 * norm2(b));
  }
}

TEST(Qr, RIsUpperTriangular) {
  // Q^H A, formed one reflector at a time, vanishes below the diagonal.
  auto rng = testing::make_rng(4);
  const CMat a = testing::random_cmat(6, 6, rng);
  const CMat qha = qh_times(factor(a), a);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = j + 1; i < 6; ++i)
      EXPECT_NEAR(std::abs(qha(i, j)), 0.0, 1e-12);
}

TEST(Qr, WideMatrixThrows) {
  // A 2 x 5 matrix factors only as far as its rows: the budget caps at
  // rows() and the third column is refused.
  auto rng = testing::make_rng(10);
  EXPECT_THROW((void)factor(testing::random_cmat(2, 5, rng)),
               std::invalid_argument);
}

TEST(Qr, SolveRecoversKnownSolution) {
  auto rng = testing::make_rng(5);
  const CMat a = testing::random_cmat(7, 7, rng);
  const CVec x_true = testing::random_cvec(7, rng);
  const CVec b = matvec(a, x_true);
  testing::expect_vec_near(least_squares(factor(a), b), x_true, 1e-9, "solve");
}

TEST(Qr, SolveMultipleRhs) {
  auto rng = testing::make_rng(6);
  const CMat a = testing::random_cmat(5, 5, rng);
  const CMat x_true = testing::random_cmat(5, 3, rng);
  const CMat b = matmul(a, x_true);
  const HouseholderQr h = factor(a);
  CMat x(5, 3);
  for (index_t j = 0; j < 3; ++j) x.set_col(j, least_squares(h, b.col_vec(j)));
  testing::expect_mat_near(x, x_true, 1e-9, "multi-rhs solve");
}

TEST(Qr, SolveSingularThrows) {
  CMat a(3, 3);  // rank 1
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) a(i, j) = cxd{1.0, 0.0};
  EXPECT_THROW((void)least_squares(factor(a), CVec(3)), std::domain_error);
}

TEST(Qr, LstsqExactForConsistentSystem) {
  auto rng = testing::make_rng(7);
  const CMat a = testing::random_cmat(10, 4, rng);
  const CVec x_true = testing::random_cvec(4, rng);
  const CVec b = matvec(a, x_true);
  testing::expect_vec_near(least_squares(factor(a), b), x_true, 1e-9,
                           "consistent least squares");
}

TEST(Qr, LstsqResidualIsOrthogonalToRange) {
  auto rng = testing::make_rng(8);
  const CMat a = testing::random_cmat(12, 5, rng);
  const CVec b = testing::random_cvec(12, rng);
  const CVec x = least_squares(factor(a), b);
  CVec r = matvec(a, x);
  r -= b;
  // Normal equations: A^H r = 0 at the least-squares optimum.
  const CVec g = matvec_adj(a, r);
  EXPECT_NEAR(norm2(g), 0.0, 1e-8);
}

TEST(Qr, HandlesZeroColumnGracefully) {
  CMat a(3, 2);
  a(0, 1) = cxd{1.0, 0.0};  // first column all zero
  EXPECT_THROW((void)least_squares(factor(a), CVec(3)), std::domain_error);
}

// Column-by-column appends against the frozen batch factorization, bit
// for bit: every prefix's least-squares fit with Q^H y grown one
// reflector per column (what solve_omp runs), Q formed from the
// reflectors, and multi-rhs square solves, on random matrices, a zero
// column and a column whose squared norm underflows to zero (a
// degenerate reflector that stays nonzero and still enters Q and Q^H).
TEST(Qr, ColumnAppendsMatchFrozenBatchBitForBit) {
  auto rng = testing::make_rng(11);
  std::vector<CMat> cases;
  for (const auto& [m, n] : {std::pair<index_t, index_t>{1, 1}, {3, 1}, {5, 5},
                            {9, 4}, {23, 8}, {12, 12}, {40, 17}}) {
    cases.push_back(testing::random_cmat(m, n, rng));
  }
  CMat zero_col = testing::random_cmat(7, 4, rng);
  for (index_t i = 0; i < 7; ++i) zero_col(i, 2) = cxd{};
  cases.push_back(zero_col);
  CMat tiny_col = testing::random_cmat(6, 3, rng);
  for (index_t i = 0; i < 6; ++i) tiny_col(i, 0) = cxd{1e-200, -1e-200};
  cases.push_back(tiny_col);

  for (const CMat& a : cases) {
    const index_t m = a.rows();
    const index_t n = a.cols();
    SCOPED_TRACE(std::to_string(m) + " x " + std::to_string(n));
    const CVec y = testing::random_cvec(m, rng);

    HouseholderQr inc(m, n + 3);  // a budget past rows() still caps at rows()
    CVec qhy = y;
    for (index_t s = 0; s < n; ++s) {
      inc.add_column(a.data() + s * m);
      inc.apply_reflector(s, qhy.data());
      CMat prefix(m, s + 1);
      for (index_t j = 0; j <= s; ++j) prefix.set_col(j, a.col_vec(j));
      bool frozen_threw = false;
      CVec want;
      try {
        want = testing::frozen::lstsq(prefix, y);
      } catch (const std::domain_error&) {
        frozen_threw = true;
      }
      CVec got(s + 1);
      if (frozen_threw) {
        EXPECT_THROW(inc.back_substitute(qhy.data(), got.data()),
                     std::domain_error);
      } else {
        inc.back_substitute(qhy.data(), got.data());
        EXPECT_TRUE(testing::same_bits(got, want)) << "prefix " << s + 1;
      }
    }
    EXPECT_TRUE(testing::same_bits(thin_q(inc), testing::frozen::qr(a).q));
    if (m == n) {
      const CMat b = testing::random_cmat(m, 2, rng);
      bool frozen_threw = false;
      CMat want_x;
      try {
        want_x = testing::frozen::solve(a, b);
      } catch (const std::domain_error&) {
        frozen_threw = true;
      }
      for (index_t j = 0; j < b.cols(); ++j) {
        if (frozen_threw) {
          EXPECT_THROW((void)least_squares(inc, b.col_vec(j)), std::domain_error);
        } else {
          EXPECT_TRUE(testing::same_bits(least_squares(inc, b.col_vec(j)),
                                         want_x.col_vec(j)));
        }
      }
    }
  }
}

TEST(Qr, DegenerateReflectorLeavesLaterColumnsAlone) {
  // A NaN below the diagonal makes column 0's squared norm NaN, so its
  // reflector is degenerate: it must not touch columns 1 and 2. Their R
  // entries stay finite and match the frozen batch factorization bit for
  // bit, which back-substitution against a finite right-hand side reads
  // out (it uses every entry of R on and above the diagonal), while Q,
  // which applies every reflector, turns NaN.
  auto rng = testing::make_rng(13);
  CMat a = testing::random_cmat(5, 3, rng);
  a(2, 0) = cxd{std::numeric_limits<double>::quiet_NaN(), 0.0};
  const HouseholderQr got = factor(a);
  const testing::frozen::HouseholderQr want(a);
  for (index_t j = 1; j < 3; ++j) {
    for (index_t i = 0; i <= j; ++i) {
      EXPECT_TRUE(std::isfinite(want.work(i, j).real()) &&
                  std::isfinite(want.work(i, j).imag()))
          << i << ", " << j;
    }
  }
  const CVec c = testing::random_cvec(3, rng);
  CVec x(3);
  got.back_substitute(c.data(), x.data());
  for (index_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(x[i].real()) && std::isfinite(x[i].imag())) << i;
  }
  EXPECT_TRUE(testing::same_bits(x, want.back_substitute(c)));
  EXPECT_TRUE(std::isnan(thin_q(got)(0, 0).real()));
}

TEST(Qr, AppendPastRowsThrows) {
  auto rng = testing::make_rng(12);
  const CMat a = testing::random_cmat(2, 3, rng);
  HouseholderQr h(2, 3);
  h.add_column(a.data());
  h.add_column(a.data() + 2);
  EXPECT_THROW(h.add_column(a.data() + 4), std::invalid_argument);
  HouseholderQr small(4, 1);
  small.add_column(a.data());
  EXPECT_THROW(small.add_column(a.data()), std::length_error);
}

class QrRandomSizes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(QrRandomSizes, FactorizationInvariantsHold) {
  const auto [m, n] = GetParam();
  auto rng = testing::make_rng(static_cast<std::uint64_t>(m * 100 + n));
  const CMat a = testing::random_cmat(m, n, rng);
  expect_factors(a, 1e-9);
  testing::expect_orthonormal_columns(thin_q(factor(a)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QrRandomSizes,
    ::testing::Values(std::pair<index_t, index_t>{1, 1},
                      std::pair<index_t, index_t>{3, 1},
                      std::pair<index_t, index_t>{4, 4},
                      std::pair<index_t, index_t>{10, 3},
                      std::pair<index_t, index_t>{20, 12},
                      std::pair<index_t, index_t>{30, 30},
                      std::pair<index_t, index_t>{50, 8}));

}  // namespace
}  // namespace roarray::linalg
