// Proximal operators for l1 and group (l2,1) regularizers on complex data.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/backend/backend.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::sparse {

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// Complex soft-thresholding: the proximal operator of t * ||.||_1 on
/// C^n shrinks each element's magnitude by t, preserving its phase:
/// prox(z) = z * max(0, 1 - t / |z|). Null backend uses the
/// process-global table; pass one explicitly only to pin a table
/// (differential tests). simd-vs-scalar tolerances: see
/// Backend::soft_threshold.
inline void soft_threshold_inplace(CVec& x, double t,
                                   const linalg::backend::Backend* be = nullptr) {
  const auto& bk = be != nullptr ? *be : linalg::backend::active();
  bk.soft_threshold(x.data(), x.size(), t);
}

/// Largest squared row norm the group prox may send to zero without a
/// square root, or NaN (no value compares <= it) when shrink is not a
/// positive number whose square is a finite normal double. Exactness:
/// S2 = fl(shrink^2) is the double nearest shrink^2, so the double just
/// below S2 is below the exact shrink^2; S2 * (1 - 2^-52) is at most that
/// double before rounding (2^-52 S2 spans at least the gap below a
/// normal S2), hence also after. A row_sq at or below the floor is thus
/// < shrink^2 exactly, and the correctly rounded sqrt(row_sq) <= shrink:
/// the zero branch the sqrt test would take.
[[nodiscard]] inline double shrink_sq_floor(double shrink) {
  const double sq = shrink * shrink;
  if (!(shrink > 0.0) || !(sq >= std::numeric_limits<double>::min()) ||
      !(sq <= std::numeric_limits<double>::max())) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return sq * (1.0 - 0x1p-52);
}

/// Result of row_shrink_factors.
struct RowShrink {
  double l21 = 0.0;  ///< post-shrink l2,1 norm of the kept rows.
  index_t kept = 0;  ///< rows not marked for zeroing.
};

/// The group prox's per-row decision. On entry scale[i] holds row i's
/// squared norm (a sum of squares: +/-0, positive, inf or NaN); on exit
/// its shrink factor 1 - t / ||row||, or -1 to mark "zero the row" (rows
/// at the threshold are set exactly to zero rather than multiplied by 0;
/// Backend::row_scale writes +0 there).
/// Returns the post-shrink l2,1 norm, sum of ||row|| * factor over the
/// kept rows in ascending order, and the kept-row count; a non-null
/// `kept_rows` (room for n) receives the kept rows, ascending. Rows at
/// or below shrink_sq_floor(t) — nearly all of them on the sparse
/// solver iterates — skip the sqrt; every other row, NaN included,
/// takes the sqrt test, so the factors and the sum match a plain
/// sqrt-then-compare loop bit for bit.
inline RowShrink row_shrink_factors(double* scale, index_t n, double t,
                                    index_t* kept_rows = nullptr) {
  const double floor_sq = shrink_sq_floor(t);
  RowShrink out;
  for (index_t i = 0; i < n; ++i) {
    if (scale[i] <= floor_sq) {
      scale[i] = -1.0;
      continue;
    }
    const double norm = std::sqrt(scale[i]);
    if (norm <= t) {
      scale[i] = -1.0;
    } else {
      const double s = 1.0 - t / norm;
      scale[i] = s;
      out.l21 += norm * s;
      if (kept_rows != nullptr) kept_rows[out.kept] = i;
      ++out.kept;
    }
  }
  return out;
}

/// Row-group soft-thresholding: the proximal operator of
/// t * sum_i ||X(i, :)||_2 (the l2,1 norm used by l1-SVD multi-snapshot
/// recovery). Shrinks each row's l2 norm by t, preserving direction.
///
/// Row norms are accumulated in a column-major sweep against a per-row
/// buffer: the matrix is stored column-major, so a row-outer loop would
/// stride by rows()*16 bytes per element (the solver calls this on tall
/// grid-by-snapshot iterates every iteration). Per row the squared norm
/// still sums over columns in ascending order, so the values match the
/// row-outer formulation exactly.
inline void group_soft_threshold_rows_inplace(
    CMat& x, double t, const linalg::backend::Backend* be = nullptr) {
  const auto& bk = be != nullptr ? *be : linalg::backend::active();
  const index_t n = x.rows();
  const index_t k = x.cols();
  if (n == 0 || k == 0) return;
  // scale[i] holds the squared row norm during the sweep, then the
  // shrink factor or the zero-row marker (row_shrink_factors).
  std::vector<double> scale(  // roarray-analyze: allow(hot-alloc) n-double scratch amortized by the O(nk) sweep
      static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < k; ++j) {
    bk.row_sq_accumulate(x.data() + j * n, n, scale.data());
  }
  (void)row_shrink_factors(scale.data(), n, t);
  for (index_t j = 0; j < k; ++j) {
    bk.row_scale(x.data() + j * n, n, scale.data());
  }
}

/// Sum of row l2 norms (the l2,1 norm). Column-major sweep for the same
/// reason as group_soft_threshold_rows_inplace; identical values.
[[nodiscard]] inline double norm_l21_rows(
    const CMat& x, const linalg::backend::Backend* be = nullptr) {
  const auto& bk = be != nullptr ? *be : linalg::backend::active();
  const index_t n = x.rows();
  const index_t k = x.cols();
  if (n == 0 || k == 0) return 0.0;
  std::vector<double> row_sq(  // roarray-analyze: allow(hot-alloc) n-double scratch amortized by the O(nk) sweep
      static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < k; ++j) {
    bk.row_sq_accumulate(x.data() + j * n, n, row_sq.data());
  }
  double acc = 0.0;
  for (index_t i = 0; i < n; ++i) {
    acc += std::sqrt(row_sq[static_cast<std::size_t>(i)]);
  }
  return acc;
}

}  // namespace roarray::sparse
