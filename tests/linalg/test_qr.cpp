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

TEST(Qr, ReconstructsSquareMatrix) {
  auto rng = testing::make_rng(1);
  const CMat a = testing::random_cmat(5, 5, rng);
  const QrResult f = qr(a);
  testing::expect_mat_near(matmul(f.q, f.r), a, 1e-10, "QR = A");
}

TEST(Qr, ReconstructsTallMatrix) {
  auto rng = testing::make_rng(2);
  const CMat a = testing::random_cmat(9, 4, rng);
  const QrResult f = qr(a);
  EXPECT_EQ(f.q.rows(), 9);
  EXPECT_EQ(f.q.cols(), 4);
  EXPECT_EQ(f.r.rows(), 4);
  testing::expect_mat_near(matmul(f.q, f.r), a, 1e-10, "QR = A");
}

TEST(Qr, QHasOrthonormalColumns) {
  auto rng = testing::make_rng(3);
  const CMat a = testing::random_cmat(8, 5, rng);
  const QrResult f = qr(a);
  testing::expect_orthonormal_columns(f.q, 1e-10);
}

TEST(Qr, RIsUpperTriangular) {
  auto rng = testing::make_rng(4);
  const CMat a = testing::random_cmat(6, 6, rng);
  const QrResult f = qr(a);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = j + 1; i < 6; ++i)
      EXPECT_NEAR(std::abs(f.r(i, j)), 0.0, 1e-12);
}

TEST(Qr, WideMatrixThrows) {
  EXPECT_THROW(qr(CMat(2, 5)), std::invalid_argument);
}

TEST(Qr, SolveRecoversKnownSolution) {
  auto rng = testing::make_rng(5);
  const CMat a = testing::random_cmat(7, 7, rng);
  const CVec x_true = testing::random_cvec(7, rng);
  const CVec b = matvec(a, x_true);
  const CVec x = solve(a, b);
  testing::expect_vec_near(x, x_true, 1e-9, "solve");
}

TEST(Qr, SolveMultipleRhs) {
  auto rng = testing::make_rng(6);
  const CMat a = testing::random_cmat(5, 5, rng);
  const CMat x_true = testing::random_cmat(5, 3, rng);
  const CMat b = matmul(a, x_true);
  const CMat x = solve(a, b);
  testing::expect_mat_near(x, x_true, 1e-9, "multi-rhs solve");
}

TEST(Qr, SolveRejectsNonSquare) {
  EXPECT_THROW(solve(CMat(3, 2), CVec(3)), std::invalid_argument);
}

TEST(Qr, SolveSingularThrows) {
  CMat a(3, 3);  // rank 1
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) a(i, j) = cxd{1.0, 0.0};
  EXPECT_THROW(solve(a, CVec(3)), std::domain_error);
}

TEST(Qr, LstsqExactForConsistentSystem) {
  auto rng = testing::make_rng(7);
  const CMat a = testing::random_cmat(10, 4, rng);
  const CVec x_true = testing::random_cvec(4, rng);
  const CVec b = matvec(a, x_true);
  testing::expect_vec_near(lstsq(a, b), x_true, 1e-9, "consistent lstsq");
}

TEST(Qr, LstsqResidualIsOrthogonalToRange) {
  auto rng = testing::make_rng(8);
  const CMat a = testing::random_cmat(12, 5, rng);
  const CVec b = testing::random_cvec(12, rng);
  const CVec x = lstsq(a, b);
  CVec r = matvec(a, x);
  r -= b;
  // Normal equations: A^H r = 0 at the least-squares optimum.
  const CVec g = matvec_adj(a, r);
  EXPECT_NEAR(norm2(g), 0.0, 1e-8);
}

TEST(Qr, LstsqSizeMismatchThrows) {
  EXPECT_THROW(lstsq(CMat(4, 2), CVec(3)), std::invalid_argument);
}

TEST(Qr, HandlesZeroColumnGracefully) {
  CMat a(3, 2);
  a(0, 1) = cxd{1.0, 0.0};  // first column all zero
  EXPECT_THROW(lstsq(a, CVec(3)), std::domain_error);
}

// Column-by-column appends against the frozen batch factorization, bit
// for bit: every prefix's least-squares fit with Q^H y grown one
// reflector per column (what solve_omp runs), the batch lstsq, qr and
// solve, on random matrices, a zero column and a column whose squared
// norm underflows to zero (a degenerate reflector that stays nonzero and
// still enters Q and Q^H).
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
        EXPECT_THROW((void)lstsq(prefix, y), std::domain_error);
      } else {
        inc.back_substitute(qhy.data(), got.data());
        EXPECT_TRUE(testing::same_bits(got, want)) << "prefix " << s + 1;
        EXPECT_TRUE(testing::same_bits(lstsq(prefix, y), want));
      }
    }
    const QrResult got = qr(a);
    const QrResult want = testing::frozen::qr(a);
    EXPECT_TRUE(testing::same_bits(got.q, want.q));
    EXPECT_TRUE(testing::same_bits(got.r, want.r));
    if (m == n) {
      const CMat b = testing::random_cmat(m, 2, rng);
      bool frozen_threw = false;
      CMat want_x;
      try {
        want_x = testing::frozen::solve(a, b);
      } catch (const std::domain_error&) {
        frozen_threw = true;
      }
      if (frozen_threw) {
        EXPECT_THROW((void)solve(a, b), std::domain_error);
      } else {
        EXPECT_TRUE(testing::same_bits(solve(a, b), want_x));
      }
    }
  }
}

TEST(Qr, DegenerateReflectorLeavesLaterColumnsAlone) {
  // A NaN below the diagonal makes column 0's squared norm NaN, so its
  // reflector is degenerate: it must not touch columns 1 and 2 (their R
  // entries stay finite and match the frozen batch factorization bit for
  // bit), while Q, which applies every reflector, turns NaN.
  auto rng = testing::make_rng(13);
  CMat a = testing::random_cmat(5, 3, rng);
  a(2, 0) = cxd{std::numeric_limits<double>::quiet_NaN(), 0.0};
  const QrResult got = qr(a);
  const QrResult want = testing::frozen::qr(a);
  for (index_t j = 1; j < 3; ++j) {
    for (index_t i = 0; i <= j; ++i) {
      EXPECT_TRUE(std::isfinite(got.r(i, j).real()) &&
                  std::isfinite(got.r(i, j).imag()))
          << i << ", " << j;
    }
    EXPECT_TRUE(testing::same_bits(got.r.data() + j * 3, want.r.data() + j * 3, 3));
  }
  EXPECT_TRUE(std::isnan(got.q(0, 0).real()));
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
  const QrResult f = qr(a);
  testing::expect_mat_near(matmul(f.q, f.r), a, 1e-9, "QR = A");
  testing::expect_orthonormal_columns(f.q, 1e-9);
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
