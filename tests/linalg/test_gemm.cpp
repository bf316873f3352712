#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include "support/reference.hpp"
#include "../test_util.hpp"

namespace roarray::linalg {
namespace {

namespace rt = roarray::testing;

// Shapes chosen to hit every dispatch path in gemm():
//  - m <= 16: fixed-height column kernels,
//  - k <= 8 (m > 16): fixed-depth kernels,
//  - both large: the generic blocked tile,
// plus degenerate edges.
struct Shape {
  index_t m, n, k;
};

const Shape kShapes[] = {
    {1, 1, 1},    // scalar
    {3, 50, 91},  // Kronecker forward first GEMM (small m)
    {15, 30, 50}, // small m near the kSmallRowLimit boundary
    {16, 5, 40},  // exactly at the fixed-height limit
    {91, 250, 3}, // Kronecker adjoint final GEMM (small k)
    {90, 12, 8},  // exactly at the fixed-depth limit
    {17, 9, 9},   // just past both small limits: generic tile
    {130, 40, 33},// spans multiple row tiles
    {20, 70, 140},// spans multiple column tiles
};

TEST(GemmBlocked, MatchesNaiveMatmulAcrossDispatchPaths) {
  auto rng = rt::make_rng(610);
  for (const auto& s : kShapes) {
    const CMat a = rt::random_cmat(s.m, s.k, rng);
    const CMat b = rt::random_cmat(s.k, s.n, rng);
    rt::expect_mat_near(matmul_blocked(a, b), matmul(a, b), 1e-12, "gemm");
  }
}

TEST(GemmBlocked, AdjointLeftMatchesNaive) {
  auto rng = rt::make_rng(611);
  for (const auto& s : kShapes) {
    // A is k x m here (the adjoint contracts over rows).
    const CMat a = rt::random_cmat(s.k, s.m, rng);
    const CMat b = rt::random_cmat(s.k, s.n, rng);
    rt::expect_mat_near(matmul_adj_left_blocked(a, b), matmul_adj_left(a, b),
                        1e-12, "gemm_adj_left");
  }
}

TEST(GemmBlocked, HandlesZeroEntriesLikeNaive) {
  // The zero-skip must not change values when B is sparse.
  auto rng = rt::make_rng(612);
  CMat a = rt::random_cmat(21, 30, rng);
  CMat b = rt::random_cmat(30, 10, rng);
  for (index_t j = 0; j < b.cols(); ++j) {
    for (index_t i = 0; i < b.rows(); ++i) {
      if ((i + j) % 3 != 0) b(i, j) = cxd{0.0, 0.0};
    }
  }
  rt::expect_mat_near(matmul_blocked(a, b), matmul(a, b), 1e-12, "sparse b");
}

TEST(GemmBlocked, EmptyInnerDimensionYieldsZero) {
  const CMat a(4, 0);
  const CMat b(0, 3);
  const CMat c = matmul_blocked(a, b);
  ASSERT_EQ(c.rows(), 4);
  ASSERT_EQ(c.cols(), 3);
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < 4; ++i) {
      EXPECT_EQ(c(i, j), (cxd{0.0, 0.0}));
    }
  }
}

TEST(GemmBlocked, ShapeMismatchThrows) {
  const CMat a(4, 5);
  const CMat b(6, 3);
  EXPECT_THROW(matmul_blocked(a, b), std::invalid_argument);
  EXPECT_THROW(matmul_adj_left_blocked(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace roarray::linalg
