// Proximal operators for l1 and group (l2,1) regularizers on complex
// data: the l1 soft threshold, and the group prox's per-row decision,
// which the FISTA engine fuses into its gradient step.
#pragma once

#include <cmath>
#include <limits>

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

/// Running result of row_shrink_factors.
struct RowShrink {
  double l21 = 0.0;  ///< post-shrink l2,1 norm of the kept rows.
  index_t kept = 0;  ///< rows not marked for zeroing.
};

/// The group prox's per-row decision over rows [begin, end). On entry
/// scale[i] holds row i's squared norm (a sum of squares: +/-0,
/// positive, inf or NaN); on exit its shrink factor 1 - t / ||row||, or
/// -1 to mark "zero the row" (rows at the threshold are set exactly to
/// zero rather than multiplied by 0; Backend::row_scale writes +0
/// there). Each kept row adds ||row|| * factor to acc.l21 and, with a
/// non-null `kept_rows` (room for every row), is stored at
/// kept_rows[acc.kept] before acc.kept counts it. Calls over ascending
/// disjoint ranges therefore sum and list in ascending row order, so
/// they match one call over the union bit for bit; the screening solver
/// skips the ranges it proved zero this way. Rows at or below
/// shrink_sq_floor(t) — nearly all of them on the sparse solver
/// iterates — skip the sqrt; every other row, NaN included, takes the
/// sqrt test, so the factors and the sum match a plain
/// sqrt-then-compare loop bit for bit.
inline void row_shrink_factors(double* scale, index_t begin, index_t end,
                               double t, RowShrink& acc,
                               index_t* kept_rows = nullptr) {
  const double floor_sq = shrink_sq_floor(t);
  for (index_t i = begin; i < end; ++i) {
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
      acc.l21 += norm * s;
      if (kept_rows != nullptr) kept_rows[acc.kept] = i;
      ++acc.kept;
    }
  }
}

}  // namespace roarray::sparse
