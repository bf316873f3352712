// The one operator type of the sparse-recovery solvers: a Kronecker
// product S = right (x) left of two steering factors, the separable
// AoA x ToA structure of the joint steering matrix (paper Eq. 16). It
// turns the dominant matvec cost from O(M*L*Nth*Ntau) into
// O(M*Nth*Ntau + M*L*Ntau). A 1-D dictionary A is A (x) [1] (a 1 x 1
// right factor), and a coarse-to-fine restriction is the Kronecker
// product of the gathered factor columns (SupportOperator). The matrix
// products run through the blocked GEMM kernels in linalg/gemm.hpp;
// all snapshot columns of a multi-column apply are batched into three
// GEMMs via the reshape trick (DESIGN.md §5 item 10, "Batched operator
// fast path"), and block-masked forms of those GEMMs serve the solvers'
// per-iteration ToA-block screening. There is no virtual interface:
// every solver takes a const KroneckerOperator&.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::sparse {

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

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
/// apply_mat_into / apply_adjoint_mat_into process all snapshot columns
/// at once: the column-major unknown block X (N_l*N_r x K) *is* an
/// N_l x (N_r*K) matrix, so the forward map is three batched GEMMs
/// (left * X, a deterministic permutation, * right^T) instead of K
/// per-column applies.
///
/// Every application runs through apply_blocks (forward) or
/// toa_correlate + aoa_expand (adjoint); the plain applies are their
/// all-blocks case. A block mask is one byte per ToA block (N_r bytes),
/// nonzero marking the block; a null mask marks every block.
class KroneckerOperator {
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

  /// The 1-D dictionary `left` (M x N), as left (x) [1]: one ToA block
  /// of N unknowns and M outputs per snapshot column.
  explicit KroneckerOperator(CMat left);

  [[nodiscard]] index_t rows() const noexcept {
    return left_.rows() * right_.rows();
  }
  [[nodiscard]] index_t cols() const noexcept {
    return left_.cols() * right_.cols();
  }

  /// y = S x.
  [[nodiscard]] CVec apply(const CVec& x) const;
  /// x = S^H y.
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const;

  /// Application to a multi-snapshot matrix, written into y (n x k ->
  /// m x k). y is resized if its shape is wrong and must not alias x;
  /// a caller that keeps a correctly-sized y across calls pays no
  /// per-call allocation of y.
  void apply_mat_into(const CMat& x, CMat& y) const;
  /// Adjoint application to a multi-snapshot matrix, written into x
  /// (m x k -> n x k). Same contract as apply_mat_into.
  void apply_adjoint_mat_into(const CMat& y, CMat& x) const;

  /// y = S x on raw column-major blocks of k >= 1 snapshot columns
  /// (x is N_l N_r x k, y is M L x k). Every ToA block outside `live`
  /// must be zero in every column of x. When M k <= kSmallRowLimit the
  /// left product runs on the live blocks only and the ToA product sums
  /// the live blocks only; the result is bit for bit the all-blocks one
  /// (a dropped term is (+0) * finite, added to an accumulator that
  /// starts at +0). Above that size the mask is ignored.
  void apply_blocks(const cxd* x, index_t k, const std::uint8_t* live, cxd* y,
                    Workspace& ws) const;

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
                     CMat& bp, Workspace& ws) const;

  /// The adjoint's second stage: block j of x (N_l N_r x k) becomes
  /// left^H times block j of bp, for every block in `keep`, bit for bit
  /// as in the all-blocks product. Blocks outside `keep` are left
  /// unwritten, except where the AoA product is too large for the
  /// per-column GEMM kernels (N_l > kSmallRowLimit and M >
  /// kSmallDepthLimit): then every block is written.
  void aoa_expand(const CMat& bp, index_t k, const std::uint8_t* keep, cxd* x,
                  Workspace& ws) const;

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

/// A dense matrix, under the name perfbench/traced.cpp spells it:
/// operator_norm_sq(DenseOperator(f)) is the dense overload on f. Kept
/// only for that caller.
using DenseOperator = linalg::CMat;

/// Restriction of a Kronecker operator to a factored (Cartesian)
/// column support: keep AoA columns I = left_support and ToA columns
/// J = right_support, i.e. the full columns {j * N_l + i : i in I,
/// j in J}. Because the support factors per dimension, the restricted
/// dictionary is itself a Kronecker product of the gathered factor
/// columns: this class is that KroneckerOperator, with per-application
/// cost scaling in |I| and |J| instead of N_l and N_r, plus the two
/// index maps back to the full grid. This is the solve stage of the
/// coarse-to-fine path (sparse/coarse_fine.hpp): the solvers run on it
/// as on any KroneckerOperator, and scatter() embeds the restricted
/// solution back into full-grid coordinates.
class SupportOperator final : public KroneckerOperator {
 public:
  /// Both supports must be non-empty, strictly increasing, and within
  /// the source factor's column range (throws std::invalid_argument
  /// otherwise). The gathered factor columns are copied, so the source
  /// operator may be destroyed afterwards.
  SupportOperator(const KroneckerOperator& full,
                  std::vector<index_t> left_support,
                  std::vector<index_t> right_support);

  /// Full-grid column index of restricted unknown `local`
  /// (local = b * |I| + a maps to right_support[b] * N_l +
  /// left_support[a], preserving the AoA-fastest layout).
  [[nodiscard]] index_t full_index(index_t local) const;

  /// Embeds a restricted solution into full-grid coordinates (zeros
  /// off-support). Matrix overload scatters every snapshot column.
  [[nodiscard]] CVec scatter(const CVec& x_restricted) const;
  [[nodiscard]] CMat scatter(const CMat& x_restricted) const;

  /// This operator as its KroneckerOperator. Kept only because
  /// perfbench/traced.cpp spells sub().left() / sub().right().
  [[nodiscard]] const KroneckerOperator& sub() const noexcept { return *this; }

 private:
  std::vector<index_t> left_support_;
  std::vector<index_t> right_support_;
  index_t full_left_cols_ = 0;
  index_t full_cols_ = 0;
};

}  // namespace roarray::sparse
