#include "sparse/omp.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>

#include "linalg/qr.hpp"

namespace roarray::sparse {

namespace {

/// The operator side of one OMP solve: the correlations S^H r and the
/// picked columns S e_j. A correlation runs through the two factors
/// (toa_correlate + aoa_expand, the adjoint's own stages) and a column
/// through the single-block masked forward, bit for bit the plain
/// apply_adjoint / apply, on buffers allocated once per solve.
class AtomSource {
 public:
  explicit AtomSource(const KroneckerOperator& op)
      : op_(op),
        one_hot_(op.cols()),
        live_(static_cast<std::size_t>(op.right().cols()), 0) {}

  /// corr = S^H r.
  void omp_correlate(const CVec& r, CVec& corr) {
    op_.toa_correlate(r.data(), 1, nullptr, bp_, ws_);
    op_.aoa_expand(bp_, 1, nullptr, corr.data(), ws_);
  }

  /// col = S e_j (rows() entries). Only ToA block j / N_l of the one-hot
  /// is nonzero, so the masked forward forms that block alone.
  void omp_column(index_t j, CVec& col) {
    one_hot_[j] = cxd{1.0, 0.0};
    const auto block = static_cast<std::size_t>(j / op_.left().cols());
    live_[block] = 1;
    op_.apply_blocks(one_hot_.data(), 1, live_.data(), col.data(), ws_);
    live_[block] = 0;
    one_hot_[j] = cxd{};
  }

 private:
  const KroneckerOperator& op_;
  CVec one_hot_;
  std::vector<std::uint8_t> live_;
  KroneckerOperator::Workspace ws_;
  CMat bp_;
};

// The unused atom with the largest |corr_j| (std::abs: hypot, within
// one ulp), the first one on ties; -1 when none exceeds 0.
//
// Squared-magnitude prefilter. Only entries whose std::norm lies within
// a relative 2^-40 of the largest unused norm N reach the hypot scan.
// Proof that the scan's winner is among them, for a normal finite N
// (u = 2^-53): hypot returns t_j (1 + d_j), |d_j| <= 2u, of the exact
// magnitude t_j; std::norm returns t_j^2 (1 + e_j), |e_j| <= 3u, plus
// at most 2^-1074 of underflow, which is <= 2u relative next to N >=
// 2^-1022. Let k attain N and j be the scan's winner, so hypot_j >=
// hypot_k. Then t_j >= t_k (1 - 2u) / (1 + 2u), hence norm_j >=
// N (1 - 2u)^2 (1 - 5u) / ((1 + 2u)^2 (1 + 5u)) > N (1 - 20u) >
// N (1 - 2^-40). Every entry tying the winner's hypot passes the same
// way, and the filtered scan runs in index order with the same strict
// `>`, so it returns the same index and magnitude. A NaN norm never
// compares below the floor, so such entries are always scanned (an
// (inf, NaN) entry has hypot inf); an infinite, zero or subnormal N
// turns the filter off.
index_t omp_pick(const CVec& corr, const std::vector<char>& used,
                 double& best_mag) {
  const index_t n = corr.size();
  double norm_max = 0.0;
  for (index_t j = 0; j < n; ++j) {
    if (used[static_cast<std::size_t>(j)] == 0) {
      norm_max = std::max(norm_max, std::norm(corr[j]));
    }
  }
  const bool filter = std::isnormal(norm_max);
  const double norm_floor = norm_max - norm_max * 0x1p-40;
  index_t best = -1;
  best_mag = 0.0;
  for (index_t j = 0; j < n; ++j) {
    if (used[static_cast<std::size_t>(j)] != 0) continue;
    if (filter && std::norm(corr[j]) < norm_floor) continue;
    const double mag = std::abs(corr[j]);
    if (mag > best_mag) {
      best_mag = mag;
      best = j;
    }
  }
  return best;
}

/// residual = y - sum_j cols(:, j) coeffs[j] over the first s columns,
/// accumulated in column order.
void omp_refit(const CVec& y, const CMat& cols, const CVec& coeffs,
               index_t s, CVec& residual) {
  const index_t m = y.size();
  for (index_t i = 0; i < m; ++i) residual[i] = y[i];
  for (index_t j = 0; j < s; ++j) {
    const cxd neg = -coeffs[j];
    const cxd* col = cols.data() + j * m;
    for (index_t i = 0; i < m; ++i) residual[i] += col[i] * neg;
  }
}

}  // namespace

// Each atom costs one correlation, one column, one QR column append
// (O(m s) against the s - 1 existing reflectors), one reflector on
// Q^H y, an s x s back-substitution and an O(m s) residual refit. The
// incremental QR performs, column by column, exactly the arithmetic of
// refactoring the whole support (linalg::HouseholderQr), so the fit is
// bit for bit a batch least-squares solve over the support.
OmpResult solve_omp(const KroneckerOperator& op, const CVec& y,
                    const OmpConfig& cfg) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_omp: rhs size");
  if (cfg.max_atoms < 1) throw std::invalid_argument("solve_omp: max_atoms < 1");

  const index_t m = op.rows();
  const index_t n = op.cols();
  const double y_norm = norm2(y);

  OmpResult out;
  out.x = CVec(n);
  if (y_norm <= 0.0) return out;

  // At most n atoms can be picked; the QR refuses a column past m.
  const index_t budget = std::min(cfg.max_atoms, n);
  const index_t fit_cols = std::min(budget, m);
  AtomSource atoms(op);
  linalg::HouseholderQr qr(m, budget);
  CMat cols(m, fit_cols);  // the picked columns, in pick order
  CVec col(m);
  CVec qhy = y;  // Q^H y, one reflector per atom
  CVec coeffs(fit_cols);
  CVec corr(n);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  out.support.reserve(static_cast<std::size_t>(budget));

  // Selection uses plain (un-normalized) correlations: every steering
  // column in this library has the same norm, so normalizing by atom
  // norms would only rescale the argmax.
  CVec residual = y;
  for (index_t it = 0; it < cfg.max_atoms; ++it) {
    atoms.omp_correlate(residual, corr);
    double best_mag = 0.0;
    const index_t best = omp_pick(corr, used, best_mag);
    if (best < 0 || best_mag <= 1e-14 * y_norm) break;

    const index_t s = qr.cols();
    out.support.push_back(best);
    used[static_cast<std::size_t>(best)] = 1;
    atoms.omp_column(best, col);
    qr.add_column(col.data());
    std::copy(col.data(), col.data() + m, cols.data() + s * m);
    qr.apply_reflector(s, qhy.data());
    // Least-squares refit over the whole support.
    qr.back_substitute(qhy.data(), coeffs.data());
    omp_refit(y, cols, coeffs, s + 1, residual);
    out.iterations = it + 1;
    if (norm2(residual) <= cfg.residual_tolerance * y_norm) break;
  }
  for (std::size_t k = 0; k < out.support.size(); ++k) {
    out.x[out.support[k]] = coeffs[static_cast<index_t>(k)];
  }
  out.residual_norm = norm2(residual);
  return out;
}

}  // namespace roarray::sparse
