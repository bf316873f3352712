// Householder QR decomposition and QR-based linear solves (complex).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::linalg {

/// Thin QR factorization A = Q R with Q (m x n, orthonormal columns)
/// and R (n x n, upper triangular). Requires m >= n.
struct QrResult {
  CMat q;  ///< m x n with orthonormal columns (Q^H Q = I).
  CMat r;  ///< n x n upper triangular.
};

/// Householder QR built one column at a time: the single Householder
/// implementation behind qr, lstsq and solve, and the incremental
/// least-squares fit of sparse::solve_omp.
///
/// add_column applies the existing reflectors to the new column in
/// order, then builds the column's own reflector. That is exactly the
/// arithmetic a batch factorization does to that column (reflector k
/// only ever touches the columns to its right), so factoring column by
/// column equals factoring the whole matrix at once bit for bit. A
/// degenerate reflector (zero column norm below the diagonal, or a zero
/// reflector norm) leaves later columns untouched but still counts in
/// apply_reflector / apply_qh / apply_q, as it always has.
///
/// All storage is allocated by the constructor; add_column,
/// apply_reflector and back_substitute never allocate.
class HouseholderQr {
 public:
  /// An empty factorization of up to min(rows, max_cols) columns of
  /// height `rows`.
  HouseholderQr(index_t rows, index_t max_cols);

  /// Factors every column of a. Throws std::invalid_argument if
  /// a.rows() < a.cols().
  explicit HouseholderQr(const CMat& a);

  [[nodiscard]] index_t rows() const noexcept { return m_; }
  [[nodiscard]] index_t cols() const noexcept { return n_; }

  /// Appends column `col` (rows() entries) to the factorization. Throws
  /// std::invalid_argument when the factorization already has rows()
  /// columns ("qr: requires rows >= cols"), std::length_error past the
  /// constructor's column budget.
  void add_column(const cxd* col);

  /// b <- H_k b for reflector k < cols(): one step of Q^H b.
  void apply_reflector(index_t k, cxd* b) const noexcept;

  /// b <- Q^H b (reflectors 0 .. cols() - 1 in order) and b <- Q b
  /// (the reverse). b holds rows() entries.
  void apply_qh(cxd* b) const noexcept;
  void apply_q(cxd* b) const noexcept;

  /// Solves R x = c[0:cols()) by back-substitution into x (cols()
  /// entries). Throws std::domain_error if a pivot of R is at most
  /// kRankTol * max(1, max |entry| of the factored columns).
  void back_substitute(const cxd* c, cxd* x) const;

  /// Entry (i, j) of the factored columns: R on and above the diagonal.
  [[nodiscard]] cxd r(index_t i, index_t j) const { return work_(i, j); }

 private:
  index_t m_ = 0;
  index_t n_ = 0;
  CMat work_;  // m x capacity; the factored columns hold R in their upper triangle
  CMat v_;     // m x capacity; reflector k in rows k .. m - 1 of column k
  std::vector<char> reflects_;  // reflector k is applied to later columns
  double work_max_ = 0.0;       // norm_max of the factored columns
};

/// Computes the thin Householder QR factorization of a (m >= n).
/// Throws std::invalid_argument if m < n.
[[nodiscard]] QrResult qr(const CMat& a);

/// Solves the least-squares problem min_x ||A x - b||_2 for full-column-rank
/// A (m >= n) via Householder QR. Throws std::invalid_argument on shape
/// mismatch and std::domain_error if A is numerically rank deficient.
[[nodiscard]] CVec lstsq(const CMat& a, const CVec& b);

/// Solves the square system A x = b via QR. Throws std::domain_error if A
/// is numerically singular.
[[nodiscard]] CVec solve(const CMat& a, const CVec& b);

/// Solves A X = B for a square A and multiple right-hand sides.
[[nodiscard]] CMat solve(const CMat& a, const CMat& b);

}  // namespace roarray::linalg
