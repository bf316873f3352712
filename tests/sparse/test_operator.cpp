#include "sparse/operator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dsp/grid.hpp"
#include "dsp/steering.hpp"
#include "linalg/backend/backend.hpp"
#include "linalg/gemm.hpp"
#include "sparse/power.hpp"
#include "support/reference.hpp"
#include "../test_util.hpp"

namespace roarray::sparse {
namespace {

namespace rt = roarray::testing;

// --- A 1-D dictionary A, as A (x) [1] ---

TEST(KroneckerOneD, MatchesMatrixProducts) {
  auto rng = rt::make_rng(61);
  const CMat s = rt::random_cmat(6, 10, rng);
  const KroneckerOperator op(s);
  EXPECT_EQ(op.rows(), 6);
  EXPECT_EQ(op.cols(), 10);
  EXPECT_EQ(op.right().rows(), 1);
  EXPECT_EQ(op.right().cols(), 1);
  EXPECT_EQ(op.right()(0, 0), cxd(1.0, 0.0));
  // Entries are O(1) sums of at most 10 products of O(1) terms: the
  // GEMMs and the dense reference differ by a few ulps of the sum.
  const CVec x = rt::random_cvec(10, rng);
  rt::expect_vec_near(op.apply(x), matvec(s, x), 1e-12, "apply");
  const CVec y = rt::random_cvec(6, rng);
  rt::expect_vec_near(op.apply_adjoint(y), matvec_adj(s, y), 1e-12, "adjoint");
  const CMat xm = rt::random_cmat(10, 4, rng);
  rt::expect_mat_near(apply_mat(op, xm), matmul(s, xm), 1e-12, "apply_mat");
  const CMat ym = rt::random_cmat(6, 4, rng);
  rt::expect_mat_near(apply_adjoint_mat(op, ym), matmul_adj_left(s, ym), 1e-12,
                      "apply_adjoint_mat");
}

TEST(KroneckerOneD, RowGramMatchesSSH) {
  auto rng = rt::make_rng(62);
  const CMat s = rt::random_cmat(5, 12, rng);
  rt::expect_mat_near(row_gram(KroneckerOperator(s)), matmul(s, adjoint(s)),
                      1e-12, "gram");
}

TEST(KroneckerOneD, AdjointIdentityHolds) {
  // <S x, y> == <x, S^H y> for all x, y.
  auto rng = rt::make_rng(63);
  const KroneckerOperator op(rt::random_cmat(7, 9, rng));
  for (int trial = 0; trial < 10; ++trial) {
    const CVec x = rt::random_cvec(9, rng);
    const CVec y = rt::random_cvec(7, rng);
    const cxd lhs = dot(op.apply(x), y);
    const cxd rhs = dot(x, op.apply_adjoint(y));
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-10);
  }
}

TEST(KroneckerOneD, MatVariantsMatchColumnwise) {
  auto rng = rt::make_rng(64);
  const KroneckerOperator op(rt::random_cmat(6, 8, rng));
  const CMat x = rt::random_cmat(8, 4, rng);
  const CMat y = apply_mat(op, x);
  for (index_t j = 0; j < 4; ++j) {
    rt::expect_vec_near(y.col_vec(j), op.apply(x.col_vec(j)), 1e-12, "col");
  }
  const CMat z = rt::random_cmat(6, 3, rng);
  const CMat back = apply_adjoint_mat(op, z);
  for (index_t j = 0; j < 3; ++j) {
    rt::expect_vec_near(back.col_vec(j), op.apply_adjoint(z.col_vec(j)), 1e-12,
                        "adj col");
  }
}

TEST(KroneckerOneD, NormIsTheDenseNormBitForBitAtThePaperGrid) {
  // The [1] factor's power iteration returns exactly 1.0, so a 1-D
  // dictionary steps against the dense matrix's own power-iteration
  // constant, here at the calibration spectrum's shape (3 antennas, the
  // 91-point AoA grid).
  const dsp::ArrayConfig arr;
  const CMat a = dsp::steering_matrix_aoa(dsp::default_aoa_grid(), arr);
  ASSERT_EQ(a.rows(), 3);
  ASSERT_EQ(a.cols(), 91);
  EXPECT_EQ(operator_norm_sq(CMat(1, 1, cxd{1.0, 0.0})), 1.0);
  EXPECT_EQ(operator_norm_sq(KroneckerOperator(a)), operator_norm_sq(a));
}

class KroneckerVsDense : public ::testing::Test {
 protected:
  KroneckerVsDense() {
    cfg_.num_antennas = 3;
    cfg_.num_subcarriers = 8;
    aoa_ = dsp::Grid(0.0, 180.0, 13);
    toa_ = dsp::Grid(0.0, 700e-9, 5);
    op_ = std::make_unique<KroneckerOperator>(
        dsp::steering_matrix_aoa(aoa_, cfg_),
        dsp::steering_matrix_toa(toa_, cfg_));
    dense_ = dsp::steering_matrix_joint(aoa_, toa_, cfg_);
  }

  dsp::ArrayConfig cfg_;
  dsp::Grid aoa_, toa_;
  std::unique_ptr<KroneckerOperator> op_;
  CMat dense_;
};

TEST_F(KroneckerVsDense, DimensionsMatchJointMatrix) {
  EXPECT_EQ(op_->rows(), dense_.rows());
  EXPECT_EQ(op_->cols(), dense_.cols());
}

TEST_F(KroneckerVsDense, ToDenseEqualsJointSteeringMatrix) {
  rt::expect_mat_near(to_dense(*op_), dense_, 1e-10,
                      "Kronecker == Eq.16 matrix");
}

TEST_F(KroneckerVsDense, ApplyMatchesDense) {
  auto rng = rt::make_rng(65);
  for (int t = 0; t < 5; ++t) {
    const CVec x = rt::random_cvec(op_->cols(), rng);
    rt::expect_vec_near(op_->apply(x), matvec(dense_, x), 1e-9, "apply");
  }
}

TEST_F(KroneckerVsDense, AdjointMatchesDense) {
  auto rng = rt::make_rng(66);
  for (int t = 0; t < 5; ++t) {
    const CVec y = rt::random_cvec(op_->rows(), rng);
    rt::expect_vec_near(op_->apply_adjoint(y), matvec_adj(dense_, y), 1e-9,
                        "adjoint");
  }
}

TEST_F(KroneckerVsDense, RowGramMatchesDense) {
  rt::expect_mat_near(row_gram(*op_), matmul(dense_, adjoint(dense_)), 1e-8,
                      "gram");
}

TEST_F(KroneckerVsDense, SizeMismatchThrows) {
  EXPECT_THROW(op_->apply(CVec(op_->cols() + 1)), std::invalid_argument);
  EXPECT_THROW(op_->apply_adjoint(CVec(op_->rows() - 1)), std::invalid_argument);
}

TEST(Kronecker, GenericFactorsAgainstExplicitKroneckerProduct) {
  auto rng = rt::make_rng(67);
  const CMat left = rt::random_cmat(3, 4, rng);   // M x Nl
  const CMat right = rt::random_cmat(5, 2, rng);  // L x Nr
  const KroneckerOperator op(left, right);
  // Explicit small Kronecker product, column (j * Nl + i), row (l * M + m).
  CMat full(15, 8);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 4; ++i)
      for (index_t l = 0; l < 5; ++l)
        for (index_t m = 0; m < 3; ++m)
          full(l * 3 + m, j * 4 + i) = right(l, j) * left(m, i);
  const CVec x = rt::random_cvec(8, rng);
  rt::expect_vec_near(op.apply(x), matvec(full, x), 1e-10, "generic apply");
  const CVec y = rt::random_cvec(15, rng);
  rt::expect_vec_near(op.apply_adjoint(y), matvec_adj(full, y), 1e-10,
                      "generic adjoint");
}

// Non-square factors with four pairwise-distinct dimensions (M=4, Nl=7,
// L=6, Nr=3): catches any transposed-dimension mix-up in the batched
// reshape path that square or matching shapes would mask.
class KroneckerNonSquare : public ::testing::Test {
 protected:
  KroneckerNonSquare() {
    auto rng = rt::make_rng(68);
    left_ = rt::random_cmat(4, 7, rng);   // M x Nl
    right_ = rt::random_cmat(6, 3, rng);  // L x Nr
    op_ = std::make_unique<KroneckerOperator>(left_, right_);
    full_ = CMat(24, 21);
    for (index_t j = 0; j < 3; ++j)
      for (index_t i = 0; i < 7; ++i)
        for (index_t l = 0; l < 6; ++l)
          for (index_t m = 0; m < 4; ++m)
            full_(l * 4 + m, j * 7 + i) = right_(l, j) * left_(m, i);
  }

  CMat left_, right_, full_;
  std::unique_ptr<KroneckerOperator> op_;
};

TEST_F(KroneckerNonSquare, ApplyAndAdjointMatchExplicitProduct) {
  auto rng = rt::make_rng(69);
  EXPECT_EQ(op_->rows(), 24);
  EXPECT_EQ(op_->cols(), 21);
  for (int trial = 0; trial < 5; ++trial) {
    const CVec x = rt::random_cvec(21, rng);
    rt::expect_vec_near(op_->apply(x), matvec(full_, x), 1e-10, "apply");
    const CVec y = rt::random_cvec(24, rng);
    rt::expect_vec_near(op_->apply_adjoint(y), matvec_adj(full_, y), 1e-10,
                        "adjoint");
  }
}

TEST_F(KroneckerNonSquare, BatchedMatApplyIdenticalToPerColumn) {
  // The batched reshape-trick applies must reproduce a per-column loop
  // over apply / apply_adjoint bit for bit (same GEMM kernels, same
  // per-element reduction order).
  auto rng = rt::make_rng(70);
  const CMat x = rt::random_cmat(21, 5, rng);
  const CMat batched = apply_mat(*op_, x);
  ASSERT_EQ(batched.rows(), 24);
  ASSERT_EQ(batched.cols(), 5);
  for (index_t j = 0; j < batched.cols(); ++j) {
    const CVec percol = op_->apply(x.col_vec(j));
    for (index_t i = 0; i < batched.rows(); ++i) {
      EXPECT_EQ(batched(i, j), percol[i]) << "at (" << i << "," << j << ")";
    }
  }
  rt::expect_mat_near(batched, matmul(full_, x), 1e-10, "vs dense");

  const CMat y = rt::random_cmat(24, 5, rng);
  const CMat adj_batched = apply_adjoint_mat(*op_, y);
  for (index_t j = 0; j < adj_batched.cols(); ++j) {
    const CVec percol = op_->apply_adjoint(y.col_vec(j));
    for (index_t i = 0; i < adj_batched.rows(); ++i) {
      EXPECT_EQ(adj_batched(i, j), percol[i]) << "adjoint";
    }
  }
  rt::expect_mat_near(adj_batched, matmul_adj_left(full_, y), 1e-10,
                      "adjoint vs dense");
}

TEST_F(KroneckerNonSquare, RowGramAndToDenseMatchExplicitProduct) {
  rt::expect_mat_near(to_dense(*op_), full_, 1e-10, "to_dense");
  rt::expect_mat_near(row_gram(*op_), matmul(full_, adjoint(full_)), 1e-9,
                      "row_gram");
}

TEST_F(KroneckerNonSquare, MatShapeMismatchThrows) {
  CMat out;
  const CMat bad_x(20, 2);
  EXPECT_THROW(op_->apply_mat_into(bad_x, out), std::invalid_argument);
  const CMat bad_y(25, 2);
  EXPECT_THROW(op_->apply_adjoint_mat_into(bad_y, out), std::invalid_argument);
}

// --- SupportOperator: Cartesian restriction of a Kronecker dictionary ---

class SupportOperatorTest : public KroneckerNonSquare {
 protected:
  SupportOperatorTest()
      : left_support_({1, 4, 6}), right_support_({0, 2}),
        sub_(*op_, left_support_, right_support_) {}

  /// Dense gather of the kept full columns, in local order b*|I| + a.
  [[nodiscard]] CMat restricted_dense() const {
    CMat d(full_.rows(), sub_.cols());
    for (index_t local = 0; local < sub_.cols(); ++local) {
      d.set_col(local, full_.col_vec(sub_.full_index(local)));
    }
    return d;
  }

  std::vector<index_t> left_support_, right_support_;
  SupportOperator sub_;
};

TEST_F(SupportOperatorTest, FullIndexMapsLocalToFullColumns) {
  EXPECT_EQ(sub_.rows(), op_->rows());
  EXPECT_EQ(sub_.cols(), 6);  // |I| * |J| = 3 * 2
  // local b * |I| + a -> right_support[b] * Nl + left_support[a].
  EXPECT_EQ(sub_.full_index(0), 0 * 7 + 1);
  EXPECT_EQ(sub_.full_index(2), 0 * 7 + 6);
  EXPECT_EQ(sub_.full_index(3), 2 * 7 + 1);
  EXPECT_EQ(sub_.full_index(5), 2 * 7 + 6);
  EXPECT_THROW((void)sub_.full_index(-1), std::out_of_range);
  EXPECT_THROW((void)sub_.full_index(6), std::out_of_range);
}

TEST_F(SupportOperatorTest, ApplyAndAdjointMatchTheGatheredDenseColumns) {
  auto rng = rt::make_rng(72);
  const CMat d = restricted_dense();
  for (int t = 0; t < 5; ++t) {
    const CVec x = rt::random_cvec(sub_.cols(), rng);
    rt::expect_vec_near(sub_.apply(x), matvec(d, x), 1e-10, "apply");
    const CVec y = rt::random_cvec(sub_.rows(), rng);
    rt::expect_vec_near(sub_.apply_adjoint(y), matvec_adj(d, y), 1e-10,
                        "adjoint");
  }
  rt::expect_mat_near(row_gram(sub_), matmul(d, adjoint(d)), 1e-9,
                      "row_gram");
}

TEST_F(SupportOperatorTest, ScatterEmbedsOnSupportAndZerosElsewhere) {
  auto rng = rt::make_rng(73);
  const CVec x = rt::random_cvec(sub_.cols(), rng);
  const CVec full = sub_.scatter(x);
  ASSERT_EQ(full.size(), op_->cols());
  for (index_t local = 0; local < sub_.cols(); ++local) {
    EXPECT_EQ(full[sub_.full_index(local)], x[local]);
  }
  index_t nonzero = 0;
  for (index_t i = 0; i < full.size(); ++i) {
    if (full[i] != cxd{0.0, 0.0}) ++nonzero;
  }
  EXPECT_EQ(nonzero, sub_.cols());
  // Restricted apply == full apply of the scattered vector.
  rt::expect_vec_near(sub_.apply(x), op_->apply(full), 1e-10, "consistency");

  // Matrix overload scatters every snapshot column.
  const CMat xm = rt::random_cmat(sub_.cols(), 3, rng);
  const CMat fm = sub_.scatter(xm);
  ASSERT_EQ(fm.rows(), op_->cols());
  for (index_t k = 0; k < 3; ++k) {
    rt::expect_vec_near(fm.col_vec(k), sub_.scatter(xm.col_vec(k)), 0.0,
                        "scatter mat");
  }
}

TEST_F(SupportOperatorTest, RejectsInvalidSupports) {
  EXPECT_THROW(SupportOperator(*op_, {}, {0}), std::invalid_argument);
  EXPECT_THROW(SupportOperator(*op_, {0}, {}), std::invalid_argument);
  EXPECT_THROW(SupportOperator(*op_, {0, 0}, {0}), std::invalid_argument);
  EXPECT_THROW(SupportOperator(*op_, {2, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(SupportOperator(*op_, {0, 7}, {0}), std::invalid_argument);
  EXPECT_THROW(SupportOperator(*op_, {0}, {3}), std::invalid_argument);
  EXPECT_THROW(SupportOperator(*op_, {0}, {-1, 0}), std::invalid_argument);
}

// --- Block-masked Kronecker applies ---

// The three-GEMM forward and adjoint as they stood before the block
// masks: the same gemm calls and permutations over every ToA block. The
// operator's applies must still reproduce them bit for bit.
namespace frozen {

CMat forward(const CMat& left, const CMat& right, const CMat& x) {
  const index_t m = left.rows(), nl = left.cols();
  const index_t l = right.rows(), nr = right.cols(), k = x.cols();
  const CMat right_t = transpose(right);
  CMat y(m * l, k);
  CMat b(m, nr * k);
  linalg::gemm(m, nr * k, nl, left.data(), x.data(), b.data());
  if (k == 1) {
    linalg::gemm(m, l, nr, b.data(), right_t.data(), y.data());
    return y;
  }
  CMat bp(m * k, nr);
  for (index_t c = 0; c < k; ++c)
    for (index_t j = 0; j < nr; ++j)
      std::memcpy(bp.data() + j * (m * k) + c * m,
                  b.data() + (c * nr + j) * m, sizeof(cxd) * m);
  CMat yp(m * k, l);
  linalg::gemm(m * k, l, nr, bp.data(), right_t.data(), yp.data());
  for (index_t c = 0; c < k; ++c)
    for (index_t li = 0; li < l; ++li)
      std::memcpy(y.data() + c * (m * l) + li * m,
                  yp.data() + li * (m * k) + c * m, sizeof(cxd) * m);
  return y;
}

CMat adjoint(const CMat& left, const CMat& right, const CMat& y) {
  const index_t m = left.rows(), nl = left.cols();
  const index_t l = right.rows(), nr = right.cols(), k = y.cols();
  const CMat left_adj = linalg::adjoint(left);
  const CMat right_conj = conjugate(right);
  CMat x(nl * nr, k);
  CMat bp(m * k, nr);
  if (k == 1) {
    linalg::gemm(m, nr, l, y.data(), right_conj.data(), bp.data());
    linalg::gemm(nl, nr, m, left_adj.data(), bp.data(), x.data());
    return x;
  }
  CMat yp(m * k, l);
  for (index_t c = 0; c < k; ++c)
    for (index_t li = 0; li < l; ++li)
      std::memcpy(yp.data() + li * (m * k) + c * m,
                  y.data() + c * (m * l) + li * m, sizeof(cxd) * m);
  linalg::gemm(m * k, nr, l, yp.data(), right_conj.data(), bp.data());
  CMat b(m, nr * k);
  for (index_t c = 0; c < k; ++c)
    for (index_t j = 0; j < nr; ++j)
      std::memcpy(b.data() + (c * nr + j) * m,
                  bp.data() + j * (m * k) + c * m, sizeof(cxd) * m);
  linalg::gemm(nl, nr * k, m, left_adj.data(), b.data(), x.data());
  return x;
}

}  // namespace frozen

bool same_bytes(const cxd* a, const cxd* b, index_t count) {
  return std::memcmp(a, b, sizeof(cxd) * static_cast<std::size_t>(count)) == 0;
}

/// Factor shapes (M, N_l, L, N_r) reaching every GEMM kernel the applies
/// dispatch to: M k on both sides of kSmallRowLimit, N_l on both sides
/// of it, and M > kSmallDepthLimit with N_l > kSmallRowLimit (the AoA
/// product on the generic tile).
struct Shape {
  index_t m, nl, l, nr;
};
constexpr Shape kShapes[] = {{1, 5, 2, 4},  {3, 7, 4, 6},  {2, 17, 3, 5},
                             {4, 9, 5, 3},  {9, 18, 3, 4}, {3, 91, 6, 9}};

/// x (N_l N_r x k) with random entries in the blocks `live` marks and
/// zeros elsewhere (alternating +0 and -0, both of which the masked
/// forward must treat as zero).
CMat block_sparse(index_t nl, index_t nr, index_t k,
                  const std::vector<std::uint8_t>& live,
                  std::mt19937_64& rng) {
  CMat x = rt::random_cmat(nl * nr, k, rng);
  for (index_t c = 0; c < k; ++c)
    for (index_t j = 0; j < nr; ++j)
      if (live[static_cast<std::size_t>(j)] == 0)
        for (index_t a = 0; a < nl; ++a)
          x(j * nl + a, c) = (a % 2 == 0) ? cxd{} : cxd{-0.0, -0.0};
  return x;
}

std::vector<std::uint8_t> random_mask(index_t nr, std::mt19937_64& rng) {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(nr));
  for (auto& b : mask) b = static_cast<std::uint8_t>(rng() % 3 == 0);
  return mask;
}

TEST(KroneckerBlocks, AllBlocksCaseMatchesTheFrozenThreeGemmApplies) {
  const rt::BackendForceGuard guard;
  auto rng = rt::make_rng(81);
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    for (const Shape& s : kShapes) {
      const CMat left = rt::random_cmat(s.m, s.nl, rng);
      const CMat right = rt::random_cmat(s.l, s.nr, rng);
      const KroneckerOperator op(left, right);
      for (index_t k = 1; k <= 6; ++k) {
        const CMat x = block_sparse(s.nl, s.nr, k, random_mask(s.nr, rng), rng);
        const CMat want = frozen::forward(left, right, x);
        const CMat got = apply_mat(op, x);
        EXPECT_TRUE(same_bytes(got.data(), want.data(), want.size()))
            << table->name << " forward m=" << s.m << " nl=" << s.nl
            << " k=" << k;
        const CMat y = rt::random_cmat(s.m * s.l, k, rng);
        const CMat want_adj = frozen::adjoint(left, right, y);
        const CMat got_adj = apply_adjoint_mat(op, y);
        EXPECT_TRUE(same_bytes(got_adj.data(), want_adj.data(), want_adj.size()))
            << table->name << " adjoint m=" << s.m << " nl=" << s.nl
            << " k=" << k;
        if (k == 1) {
          const CVec gv = op.apply(x.col_vec(0));
          EXPECT_TRUE(same_bytes(gv.data(), want.data(), want.size()));
          const CVec ga = op.apply_adjoint(y.col_vec(0));
          EXPECT_TRUE(same_bytes(ga.data(), want_adj.data(), want_adj.size()));
        }
      }
    }
  }
}

TEST(KroneckerBlocks, MaskedForwardOnBlockSparseInputEqualsDenseForward) {
  const rt::BackendForceGuard guard;
  auto rng = rt::make_rng(82);
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    for (const Shape& s : kShapes) {
      const KroneckerOperator op(rt::random_cmat(s.m, s.nl, rng),
                                 rt::random_cmat(s.l, s.nr, rng));
      KroneckerOperator::Workspace ws;  // reused across masks and k
      for (index_t k = 1; k <= 6; ++k) {
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<std::uint8_t> live = random_mask(s.nr, rng);
          if (trial == 0) live.assign(live.size(), 0);  // all blocks dead
          const CMat x = block_sparse(s.nl, s.nr, k, live, rng);
          // A mask may also mark blocks that happen to be zero.
          if (trial == 3) live[0] = 1;
          const CMat want = apply_mat(op, x);
          CMat got(op.rows(), k);
          op.apply_blocks(x.data(), k, live.data(), got.data(), ws);
          EXPECT_TRUE(same_bytes(got.data(), want.data(), want.size()))
              << table->name << " m=" << s.m << " nl=" << s.nl << " k=" << k
              << " trial " << trial;
        }
      }
    }
  }
}

TEST(KroneckerBlocks, MaskedExpansionEqualsDenseAdjointOnKeptBlocks) {
  const rt::BackendForceGuard guard;
  const double sentinel = std::numeric_limits<double>::quiet_NaN();
  auto rng = rt::make_rng(83);
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    for (const Shape& s : kShapes) {
      const KroneckerOperator op(rt::random_cmat(s.m, s.nl, rng),
                                 rt::random_cmat(s.l, s.nr, rng));
      const bool per_column = s.nl <= linalg::backend::kSmallRowLimit ||
                              s.m <= linalg::backend::kSmallDepthLimit;
      KroneckerOperator::Workspace ws;
      CMat bp;
      for (index_t k = 1; k <= 6; ++k) {
        const CMat y = rt::random_cmat(op.rows(), k, rng);
        const CMat want = apply_adjoint_mat(op, y);
        const std::vector<std::uint8_t> keep = random_mask(s.nr, rng);
        op.toa_correlate(y.data(), k, nullptr, bp, ws);
        CMat got(op.cols(), k);
        for (index_t i = 0; i < got.size(); ++i) {
          got.data()[i] = cxd{sentinel, sentinel};
        }
        op.aoa_expand(bp, k, keep.data(), got.data(), ws);
        for (index_t c = 0; c < k; ++c) {
          for (index_t j = 0; j < s.nr; ++j) {
            const cxd* g = got.data() + c * op.cols() + j * s.nl;
            const cxd* w = want.data() + c * op.cols() + j * s.nl;
            if (keep[static_cast<std::size_t>(j)] != 0 || !per_column) {
              EXPECT_TRUE(same_bytes(g, w, s.nl))
                  << table->name << " m=" << s.m << " nl=" << s.nl
                  << " k=" << k << " block " << j;
            } else {
              EXPECT_TRUE(std::isnan(g[0].real())) << "unkept block written";
            }
          }
        }
      }
    }
  }
}

TEST(KroneckerBlocks, MaskedCorrelationEqualsTheFullProductOnMaskedColumns) {
  const rt::BackendForceGuard guard;
  const double sentinel = std::numeric_limits<double>::quiet_NaN();
  auto rng = rt::make_rng(86);
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    for (const Shape& s : kShapes) {
      const KroneckerOperator op(rt::random_cmat(s.m, s.nl, rng),
                                 rt::random_cmat(s.l, s.nr, rng));
      KroneckerOperator::Workspace ws;  // reused across masks and k
      for (index_t k = 1; k <= 6; ++k) {
        const bool masked = s.m * k <= linalg::backend::kSmallRowLimit;
        const CMat y = rt::random_cmat(op.rows(), k, rng);
        CMat want;
        op.toa_correlate(y.data(), k, nullptr, want, ws);
        for (int trial = 0; trial < 3; ++trial) {
          std::vector<std::uint8_t> cols = random_mask(s.nr, rng);
          if (trial == 1) cols.assign(cols.size(), 0);  // no column
          if (trial == 2) cols.assign(cols.size(), 1);  // every column
          CMat got(s.m * k, s.nr);
          for (index_t i = 0; i < got.size(); ++i) {
            got.data()[i] = cxd{sentinel, sentinel};
          }
          op.toa_correlate(y.data(), k, cols.data(), got, ws);
          for (index_t j = 0; j < s.nr; ++j) {
            const cxd* g = got.data() + j * got.rows();
            const cxd* w = want.data() + j * want.rows();
            if (cols[static_cast<std::size_t>(j)] != 0 || !masked) {
              EXPECT_TRUE(same_bytes(g, w, want.rows()))
                  << table->name << " m=" << s.m << " l=" << s.l
                  << " k=" << k << " column " << j << " trial " << trial;
            } else {
              EXPECT_TRUE(std::isnan(g[0].real()))
                  << "unmasked column written: " << table->name
                  << " m=" << s.m << " k=" << k << " column " << j;
            }
          }
        }
      }
    }
  }
}

TEST(KroneckerBlocks, KroneckerAccessorAndColumnNormBound) {
  auto rng = rt::make_rng(84);
  const CMat left = rt::random_cmat(3, 6, rng);
  const KroneckerOperator op(left, rt::random_cmat(4, 5, rng));
  // A restriction is the Kronecker operator of its gathered factors.
  const SupportOperator sub(op, {1, 4}, {0, 2, 3});
  EXPECT_EQ(&sub.sub(), static_cast<const KroneckerOperator*>(&sub));
  EXPECT_EQ(sub.left().cols(), 2);
  EXPECT_EQ(sub.left()(2, 1), left(2, 4));
  EXPECT_EQ(sub.right().cols(), 3);
  EXPECT_EQ(sub.right()(1, 2), op.right()(1, 3));
  double mx = 0.0;
  for (index_t a = 0; a < left.cols(); ++a) {
    double acc = 0.0;
    for (index_t r = 0; r < left.rows(); ++r) acc += std::norm(left(r, a));
    mx = std::max(mx, acc);
  }
  EXPECT_EQ(op.left_col_norm_sq_max(), mx);
  const CMat& right = op.right();
  double rmx = 0.0;
  for (index_t j = 0; j < right.cols(); ++j) {
    double acc = 0.0;
    for (index_t r = 0; r < right.rows(); ++r) acc += std::norm(right(r, j));
    rmx = std::max(rmx, acc);
  }
  EXPECT_EQ(op.right_col_norm_sq_max(), rmx);
  // Unit-modulus steering columns: ||left(:, a)||^2 = M.
  dsp::ArrayConfig cfg;
  cfg.num_antennas = 4;
  const KroneckerOperator sop(
      dsp::steering_matrix_aoa(dsp::Grid(0.0, 180.0, 13), cfg),
      rt::random_cmat(2, 3, rng));
  EXPECT_NEAR(sop.left_col_norm_sq_max(), 4.0, 1e-12);
}

TEST(KroneckerOperator, RejectsNonFiniteFactors) {
  auto rng = rt::make_rng(85);
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (const cxd bad : {cxd{qnan, 0.0}, cxd{0.0, inf}, cxd{-inf, 1.0}}) {
    CMat left = rt::random_cmat(3, 4, rng);
    CMat right = rt::random_cmat(5, 2, rng);
    left(1, 2) = bad;
    EXPECT_THROW(KroneckerOperator(left, right), std::invalid_argument);
    left(1, 2) = cxd{1.0, 0.0};
    right(4, 1) = bad;
    EXPECT_THROW(KroneckerOperator(left, right), std::invalid_argument);
    right(4, 1) = cxd{1.0, 0.0};
    EXPECT_NO_THROW(KroneckerOperator(left, right));
  }
}

}  // namespace
}  // namespace roarray::sparse
