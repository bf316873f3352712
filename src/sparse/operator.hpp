// Abstract linear operators for the sparse-recovery solvers.
//
// Solvers only need S x, S^H y, and the small row Gram matrix S S^H, so
// they are written against this interface. Two implementations exist:
// a dense wrapper and a Kronecker-structured operator exploiting the
// separable AoA x ToA structure of the joint steering matrix (paper
// Eq. 16), which turns the dominant matvec cost from O(M*L*Nth*Ntau)
// into O(M*Nth*Ntau + M*L*Ntau). Both route their matrix products
// through the blocked GEMM kernels in linalg/gemm.hpp; the Kronecker
// operator additionally batches all snapshot columns of apply_mat /
// apply_adjoint_mat into three GEMMs via the reshape trick (see
// DESIGN.md "Operator fast path"), and exposes block-masked forms of
// those GEMMs for the solvers' per-iteration ToA-block screening.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::runtime {
class ThreadPool;
}

namespace roarray::sparse {

class KroneckerOperator;

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// A complex linear map S : C^cols -> C^rows with adjoint access.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual index_t rows() const noexcept = 0;
  [[nodiscard]] virtual index_t cols() const noexcept = 0;

  /// y = S x.
  [[nodiscard]] virtual CVec apply(const CVec& x) const = 0;

  /// x = S^H y.
  [[nodiscard]] virtual CVec apply_adjoint(const CVec& y) const = 0;

  /// Application to a multi-snapshot matrix, written into y (n x k ->
  /// m x k). The default loops apply() over columns, fanning out across
  /// the pool when one is given (each column writes its own contiguous
  /// slice — bit-identical to the serial loop). Implementations may
  /// batch all columns at once; null pool = serial. y is resized if its
  /// shape is wrong and must not alias x; callers that keep a
  /// correctly-sized y across calls (the solvers' hot loops do) pay no
  /// per-call allocation or zero-fill.
  virtual void apply_mat_into(const CMat& x, CMat& y,
                              const runtime::ThreadPool* pool) const;

  /// Adjoint application to a multi-snapshot matrix, written into x
  /// (m x k -> n x k). Same contract as apply_mat_into.
  virtual void apply_adjoint_mat_into(const CMat& y, CMat& x,
                                      const runtime::ThreadPool* pool) const;

  /// Allocating conveniences (forward to the _into virtuals).
  [[nodiscard]] CMat apply_mat(const CMat& x,
                               const runtime::ThreadPool* pool = nullptr) const {
    CMat y;
    apply_mat_into(x, y, pool);
    return y;
  }
  [[nodiscard]] CMat apply_adjoint_mat(
      const CMat& y, const runtime::ThreadPool* pool = nullptr) const {
    CMat x;
    apply_adjoint_mat_into(y, x, pool);
    return x;
  }

  /// The small Gram matrix G = S S^H (rows x rows), used by ADMM through
  /// the Woodbury identity. Default builds it column by column via
  /// apply(apply_adjoint(e_i)).
  [[nodiscard]] virtual CMat row_gram() const;

  /// The Kronecker operator this map applies through, or null when it
  /// has no Kronecker structure. The solvers use it to reach the
  /// block-masked applies without a dynamic_cast.
  [[nodiscard]] virtual const KroneckerOperator* kronecker() const noexcept {
    return nullptr;
  }

 protected:
  // Copy/move are protected: this is an abstract base, and public copy
  // operations on a base reference invite accidental slicing. Concrete
  // operators remain freely copyable.
  LinearOperator() = default;
  LinearOperator(const LinearOperator&) = default;
  LinearOperator& operator=(const LinearOperator&) = default;
  LinearOperator(LinearOperator&&) = default;
  LinearOperator& operator=(LinearOperator&&) = default;
};

/// Dense operator wrapping an explicit matrix. Matrix products run
/// through the blocked GEMM (linalg/gemm.hpp).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(CMat s) : s_(std::move(s)) {}

  [[nodiscard]] index_t rows() const noexcept override { return s_.rows(); }
  [[nodiscard]] index_t cols() const noexcept override { return s_.cols(); }
  [[nodiscard]] CVec apply(const CVec& x) const override;
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const override;
  void apply_mat_into(const CMat& x, CMat& y,
                      const runtime::ThreadPool* pool) const override;
  void apply_adjoint_mat_into(const CMat& y, CMat& x,
                              const runtime::ThreadPool* pool) const override;
  [[nodiscard]] CMat row_gram() const override;

  [[nodiscard]] const CMat& matrix() const noexcept { return s_; }

 private:
  CMat s_;
};

/// Kronecker-structured operator S = right (x) left, where
/// left is M x N_l (the AoA steering factor A_theta) and right is
/// L x N_r (the ToA steering factor A_tau).
///
/// Index conventions match the paper's CSI stacking (Eq. 15/16):
/// output index l * M + m (antenna-fastest), unknown index j * N_l + i
/// (AoA-fastest), so column (i, j) equals right.col(j) (x) left.col(i).
/// ToA block j is the N_l unknowns j * N_l .. (j + 1) * N_l - 1 of every
/// snapshot column.
///
/// apply_mat / apply_adjoint_mat process all snapshot columns at once:
/// the column-major unknown block X (N_l*N_r x K) *is* an N_l x (N_r*K)
/// matrix, so the forward map is three batched GEMMs (left * X, a
/// deterministic permutation, * right^T) instead of K per-column
/// applies — parallelism comes from the GEMM output tiles, not from the
/// K snapshot columns.
///
/// Every application runs through apply_blocks (forward) or
/// toa_correlate + aoa_expand (adjoint); the plain applies are their
/// all-blocks case. A block mask is one byte per ToA block (N_r bytes),
/// nonzero marking the block; a null mask marks every block.
class KroneckerOperator final : public LinearOperator {
 public:
  /// Intermediate products of the batched applies. A caller that keeps
  /// one across calls (the solvers do) pays no per-apply allocation:
  /// each buffer is allocated on first use and kept while the shapes
  /// stay the same.
  struct Workspace {
    CMat b;    ///< M x (N_r k): left-side products, column c * N_r + j.
    CMat bp;   ///< (M k) x N_r: the same grouped by ToA block.
    CMat yp;   ///< (M k) x L: the output-side permutation.
    CMat rt;   ///< right^T rows of the ToA blocks a forward sums.
    std::vector<index_t> terms;  ///< those blocks, ascending.
  };

  /// Precomputes the factor transposes the batched kernels consume
  /// (right^T for the forward map, conj(right) and left^H for the
  /// adjoint) and the largest squared column norm of each factor, so no
  /// per-application rearrangement is needed; they are immutable, so
  /// sharing one operator across threads stays safe. Throws
  /// std::invalid_argument when either factor has a NaN or infinite
  /// entry: the masked forward drops the terms of all-zero blocks, which
  /// is exact only against a finite right factor (DESIGN.md §5 item 10).
  KroneckerOperator(CMat left, CMat right);

  [[nodiscard]] index_t rows() const noexcept override {
    return left_.rows() * right_.rows();
  }
  [[nodiscard]] index_t cols() const noexcept override {
    return left_.cols() * right_.cols();
  }
  [[nodiscard]] CVec apply(const CVec& x) const override;
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const override;
  void apply_mat_into(const CMat& x, CMat& y,
                      const runtime::ThreadPool* pool) const override;
  void apply_adjoint_mat_into(const CMat& y, CMat& x,
                              const runtime::ThreadPool* pool) const override;

  /// G = (right right^H) (x) (left left^H), formed from the two small
  /// factor Grams — never touches the full column dimension.
  [[nodiscard]] CMat row_gram() const override;

  [[nodiscard]] const KroneckerOperator* kronecker() const noexcept override {
    return this;
  }

  /// y = S x on raw column-major blocks of k >= 1 snapshot columns
  /// (x is N_l N_r x k, y is M L x k). Every ToA block outside `live`
  /// must be zero in every column of x. When M k <= kSmallRowLimit the
  /// left product runs on the live blocks only and the ToA product sums
  /// the live blocks only; the result is bit for bit the all-blocks one
  /// (a dropped term is (+0) * finite, added to an accumulator that
  /// starts at +0). Above that size the mask is ignored.
  void apply_blocks(const cxd* x, index_t k, const std::uint8_t* live, cxd* y,
                    Workspace& ws, const runtime::ThreadPool* pool) const;

  /// The adjoint's first stage: the ToA correlation bp = Y' conj(right)
  /// of y (M L x k), an (M k) x N_r matrix whose column j stacks every
  /// snapshot's M-element correlation with ToA atom j (snapshot c in
  /// rows c M .. c M + M - 1). When M k <= kSmallRowLimit only the
  /// columns of the blocks in `cols` are formed, each bit for bit as in
  /// the all-blocks product (the product runs on gemm_cols, which
  /// computes every column from its own right-factor column alone), and
  /// the other columns are left unwritten. Above that size the mask is
  /// ignored and every column is written.
  void toa_correlate(const cxd* y, index_t k, const std::uint8_t* cols,
                     CMat& bp, Workspace& ws,
                     const runtime::ThreadPool* pool) const;

  /// The adjoint's second stage: block j of x (N_l N_r x k) becomes
  /// left^H times block j of bp, for every block in `keep`, bit for bit
  /// as in the all-blocks product. Blocks outside `keep` are left
  /// unwritten, except where the AoA product is too large for the
  /// per-column GEMM kernels (N_l > kSmallRowLimit and M >
  /// kSmallDepthLimit): then every block is written.
  void aoa_expand(const CMat& bp, index_t k, const std::uint8_t* keep, cxd* x,
                  Workspace& ws, const runtime::ThreadPool* pool) const;

  /// max over AoA atoms a of ||left(:, a)||^2, as computed once at
  /// construction (M for unit-modulus steering columns).
  [[nodiscard]] double left_col_norm_sq_max() const noexcept {
    return left_col_norm_sq_max_;
  }

  /// max over ToA atoms j of ||right(:, j)||^2, as computed once at
  /// construction (L for unit-modulus steering columns).
  [[nodiscard]] double right_col_norm_sq_max() const noexcept {
    return right_col_norm_sq_max_;
  }

  [[nodiscard]] const CMat& left() const noexcept { return left_; }
  [[nodiscard]] const CMat& right() const noexcept { return right_; }

  /// Materializes the dense matrix (tests / small problems only).
  [[nodiscard]] CMat to_dense() const;

 private:
  CMat left_;        // M x N_l
  CMat right_;       // L x N_r
  CMat left_adj_;    // left^H (N_l x M), precomputed for the adjoint
  CMat right_t_;     // right^T (N_r x L), precomputed for the forward
  CMat right_conj_;  // conj(right) (L x N_r), precomputed for the adjoint
  double left_col_norm_sq_max_ = 0.0;
  double right_col_norm_sq_max_ = 0.0;
};

/// Calls f(j0, j1) for every maximal run [j0, j1) of nonzero bytes in a
/// block mask of n blocks, ascending.
template <class F>
void for_each_block_run(const std::uint8_t* mask, index_t n, const F& f) {
  index_t j = 0;
  while (j < n) {
    while (j < n && mask[j] == 0) ++j;
    const index_t j0 = j;
    while (j < n && mask[j] != 0) ++j;
    if (j > j0) f(j0, j);
  }
}

/// Restriction of a Kronecker operator to a factored (Cartesian)
/// column support: keep AoA columns I = left_support and ToA columns
/// J = right_support, i.e. the full columns {j * N_l + i : i in I,
/// j in J}. Because the support factors per dimension, the restricted
/// dictionary is itself a Kronecker product of the gathered factor
/// columns — so the sub-operator keeps the batched three-GEMM fast
/// path of KroneckerOperator, with per-application cost scaling in
/// |I| and |J| instead of N_l and N_r. This is the solve stage of the
/// coarse-to-fine path (sparse/coarse_fine.hpp): FISTA / ADMM /
/// group solvers run on it unchanged, and scatter() embeds the
/// restricted solution back into full-grid coordinates.
class SupportOperator final : public LinearOperator {
 public:
  /// Both supports must be non-empty, strictly increasing, and within
  /// the source factor's column range (throws std::invalid_argument
  /// otherwise). The gathered factor columns are copied, so the source
  /// operator may be destroyed afterwards.
  SupportOperator(const KroneckerOperator& full,
                  std::vector<index_t> left_support,
                  std::vector<index_t> right_support);

  [[nodiscard]] index_t rows() const noexcept override { return sub_.rows(); }
  [[nodiscard]] index_t cols() const noexcept override { return sub_.cols(); }
  [[nodiscard]] CVec apply(const CVec& x) const override {
    return sub_.apply(x);
  }
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const override {
    return sub_.apply_adjoint(y);
  }
  void apply_mat_into(const CMat& x, CMat& y,
                      const runtime::ThreadPool* pool) const override {
    sub_.apply_mat_into(x, y, pool);
  }
  void apply_adjoint_mat_into(const CMat& y, CMat& x,
                              const runtime::ThreadPool* pool) const override {
    sub_.apply_adjoint_mat_into(y, x, pool);
  }
  [[nodiscard]] CMat row_gram() const override { return sub_.row_gram(); }
  [[nodiscard]] const KroneckerOperator* kronecker() const noexcept override {
    return &sub_;
  }

  [[nodiscard]] const std::vector<index_t>& left_support() const noexcept {
    return left_support_;
  }
  [[nodiscard]] const std::vector<index_t>& right_support() const noexcept {
    return right_support_;
  }
  /// Column count of the full (unrestricted) operator.
  [[nodiscard]] index_t full_cols() const noexcept { return full_cols_; }

  /// Full-grid column index of restricted unknown `local`
  /// (local = b * |I| + a maps to right_support[b] * N_l +
  /// left_support[a], preserving the AoA-fastest layout).
  [[nodiscard]] index_t full_index(index_t local) const;

  /// Embeds a restricted solution into full-grid coordinates (zeros
  /// off-support). Matrix overload scatters every snapshot column.
  [[nodiscard]] CVec scatter(const CVec& x_restricted) const;
  [[nodiscard]] CMat scatter(const CMat& x_restricted) const;

  /// The inner restricted Kronecker operator (tests / diagnostics).
  [[nodiscard]] const KroneckerOperator& sub() const noexcept { return sub_; }

 private:
  std::vector<index_t> left_support_;
  std::vector<index_t> right_support_;
  index_t full_left_cols_ = 0;
  index_t full_cols_ = 0;
  KroneckerOperator sub_;
};

}  // namespace roarray::sparse
