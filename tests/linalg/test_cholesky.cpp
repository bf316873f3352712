#include "support/cholesky.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace roarray::linalg {
namespace {

TEST(Cholesky, ReconstructsHpdMatrix) {
  auto rng = testing::make_rng(51);
  const CMat a = testing::random_hpd(6, rng);
  const CMat l = cholesky(a);
  testing::expect_mat_near(matmul(l, adjoint(l)), a, 1e-9, "L L^H = A");
}

TEST(Cholesky, FactorIsLowerTriangularWithPositiveDiagonal) {
  auto rng = testing::make_rng(52);
  const CMat a = testing::random_hpd(5, rng);
  const CMat l = cholesky(a);
  for (index_t j = 0; j < 5; ++j) {
    EXPECT_GT(l(j, j).real(), 0.0);
    EXPECT_NEAR(l(j, j).imag(), 0.0, 1e-12);
    for (index_t i = 0; i < j; ++i) EXPECT_NEAR(std::abs(l(i, j)), 0.0, 1e-15);
  }
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(cholesky(CMat(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteThrows) {
  CMat a = CMat::identity(3);
  a(1, 1) = cxd{-1.0, 0.0};
  EXPECT_THROW(cholesky(a), std::domain_error);
}

TEST(Cholesky, SingularThrows) {
  CMat a(2, 2);
  a(0, 0) = cxd{1.0, 0.0};
  a(0, 1) = cxd{1.0, 0.0};
  a(1, 0) = cxd{1.0, 0.0};
  a(1, 1) = cxd{1.0, 0.0};
  EXPECT_THROW(cholesky(a), std::domain_error);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  auto rng = testing::make_rng(53);
  const CMat a = testing::random_hpd(8, rng);
  const CVec x_true = testing::random_cvec(8, rng);
  const CVec b = matvec(a, x_true);
  const CMat l = cholesky(a);
  testing::expect_vec_near(cholesky_solve(l, b), x_true, 1e-8, "chol solve");
}

TEST(Cholesky, SolveSizeMismatchThrows) {
  auto rng = testing::make_rng(54);
  const CMat l = cholesky(testing::random_hpd(3, rng));
  EXPECT_THROW(cholesky_solve(l, CVec(4)), std::invalid_argument);
}

class CholeskySizes : public ::testing::TestWithParam<index_t> {};

TEST_P(CholeskySizes, SolveConsistentAcrossSizes) {
  const index_t n = GetParam();
  auto rng = testing::make_rng(static_cast<std::uint64_t>(500 + n));
  const CMat a = testing::random_hpd(n, rng);
  const CVec x_true = testing::random_cvec(n, rng);
  const CVec b = matvec(a, x_true);
  const CVec x = cholesky_solve(cholesky(a), b);
  CVec err = x;
  err -= x_true;
  EXPECT_NEAR(norm2(err), 0.0, 1e-7 * std::max(1.0, norm2(x_true)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 4, 10, 24, 64, 90));

}  // namespace
}  // namespace roarray::linalg
