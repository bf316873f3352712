#include "sparse/fista.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/backend/backend.hpp"
#include "sparse/power.hpp"
#include "sparse/prox.hpp"

namespace roarray::sparse {

namespace {

/// 1 / (safety * lambda_max(S^H S)); `solver` names the caller in the
/// zero-operator error.
double resolve_step(const LinearOperator& op, const SolveConfig& cfg,
                    const char* solver) {
  const double norm_sq =
      cfg.lipschitz_hint > 0.0 ? cfg.lipschitz_hint : operator_norm_sq(op);
  const double lip = norm_sq * cfg.lipschitz_safety;
  if (lip <= 0.0) {
    throw std::domain_error(std::string(solver) + ": zero operator");
  }
  return 1.0 / lip;
}

/// 0.5 * || s - y ||^2 over interleaved complex storage of `count`
/// elements, without materializing the residual (accumulation matches
/// norm2_sq / norm_fro_sq of the explicit difference: one |.|^2 term
/// per complex element, ascending).
double half_residual_sq(const cxd* s, const cxd* y, index_t count) {
  const double* sd = reinterpret_cast<const double*>(s);
  const double* yd = reinterpret_cast<const double*>(y);
  double acc = 0.0;
  for (index_t i = 0; i < count; ++i) {
    const double dr = sd[2 * i] - yd[2 * i];
    const double di = sd[2 * i + 1] - yd[2 * i + 1];
    acc += dr * dr + di * di;
  }
  return 0.5 * acc;
}

/// Fused momentum bookkeeping over the listed rows of n x k column-major
/// blocks: writes z = x_new + beta (x_new - x) and accumulates
/// ||x_new - x||^2 and ||x_new||^2 for the relative-change stopping
/// rule, all in one pass (the unfused version walks the iterate four
/// times). Terms accumulate column by column, rows ascending — the
/// dense element order with the unlisted rows left out (see LiveRows
/// for why leaving them out is exact).
void momentum_update(const cxd* x_new, const cxd* x, double beta, cxd* z,
                     index_t n, index_t k, const index_t* rows,
                     index_t nrows, double& diff_sq, double& new_sq) {
  const double* nd = reinterpret_cast<const double*>(x_new);
  const double* od = reinterpret_cast<const double*>(x);
  double* zd = reinterpret_cast<double*>(z);
  double ds = 0.0;
  double ns = 0.0;
  for (index_t j = 0; j < k; ++j) {
    for (index_t r = 0; r < nrows; ++r) {
      const index_t i = j * n + rows[r];
      const double dr = nd[2 * i] - od[2 * i];
      const double di = nd[2 * i + 1] - od[2 * i + 1];
      ds += dr * dr + di * di;
      ns += nd[2 * i] * nd[2 * i] + nd[2 * i + 1] * nd[2 * i + 1];
      zd[2 * i] = nd[2 * i] + beta * dr;
      zd[2 * i + 1] = nd[2 * i + 1] + beta * di;
    }
  }
  diff_sq = ds;
  new_sq = ns;
}

/// Which rows of the n x k iterates x, x_new and z may be nonzero, as
/// ascending row lists. A row the prox sets to zero is exact +0 in every
/// column (+0 in both parts), and a row that is +0 in both x_new and x
/// adds nothing to momentum_update: dr = di = +0, so diff_sq and new_sq
/// gain +0 (the identity on an accumulator >= +0, NaN and inf included),
/// and z = +0 + beta * (+0) = +0 for the solver's beta >= 0. Running the
/// momentum pass over the rows live in x_new or x only therefore leaves
/// every result bit for bit unchanged; z needs an explicit +0 only where
/// it was live before. On the solver iterates ~1.5 % of rows are live,
/// and every list operation here costs O(live rows), not O(n).
class LiveRows {
 public:
  explicit LiveRows(index_t n)
      : x_(static_cast<std::size_t>(n)),
        x_new_(static_cast<std::size_t>(n)),
        z_(static_cast<std::size_t>(n)),
        spare_(static_cast<std::size_t>(n)) {}

  /// Room for n rows: the caller lists x_new's new live rows here,
  /// ascending, then calls set_new.
  [[nodiscard]] index_t* spare() { return spare_.data(); }

  /// x_new's live rows are now spare()[0, count). Calls clear(row) for
  /// every row the x_new buffer may still hold nonzero from an earlier
  /// write that is not live any more.
  template <class Clear>
  void set_new(index_t count, const Clear& clear) {
    for_each_dropped(x_new_.data(), x_new_count_, spare_.data(), count,
                     clear);
    std::swap(x_new_, spare_);
    x_new_count_ = count;
  }

  [[nodiscard]] const index_t* new_rows() const { return x_new_.data(); }
  [[nodiscard]] index_t new_count() const { return x_new_count_; }

  /// Makes the active rows (live in x_new or x) z's live rows, writing
  /// +0 over the k columns of every z row that leaves the set. Returns
  /// the active count; active() lists them ascending.
  index_t update(cxd* z, index_t n, index_t k) {
    const auto end = std::set_union(
        x_new_.begin(), x_new_.begin() + x_new_count_, x_.begin(),
        x_.begin() + x_count_, spare_.begin());
    const auto count = static_cast<index_t>(end - spare_.begin());
    for_each_dropped(z_.data(), z_count_, spare_.data(), count,
                     [&](index_t row) {
                       for (index_t j = 0; j < k; ++j) z[j * n + row] = cxd{};
                     });
    std::swap(z_, spare_);
    z_count_ = count;
    return count;
  }

  [[nodiscard]] const index_t* active() const { return z_.data(); }
  [[nodiscard]] index_t active_count() const { return z_count_; }

  /// x's live rows (the iterate a monotone restart steps from).
  [[nodiscard]] const index_t* x_rows() const { return x_.data(); }
  [[nodiscard]] index_t x_count() const { return x_count_; }

  /// Mirrors std::swap(x, x_new) at the end of an iteration.
  void swap_iterates() {
    std::swap(x_, x_new_);
    std::swap(x_count_, x_new_count_);
  }

 private:
  /// Calls f(row) for every row of the ascending list `before` that the
  /// ascending list `after` lacks.
  template <class F>
  static void for_each_dropped(const index_t* before, index_t nbefore,
                               const index_t* after, index_t nafter,
                               const F& f) {
    index_t p = 0;
    for (index_t q = 0; q < nbefore; ++q) {
      while (p < nafter && after[p] < before[q]) ++p;
      if (p == nafter || after[p] != before[q]) f(before[q]);
    }
  }

  std::vector<index_t> x_, x_new_, z_, spare_;
  index_t x_count_ = 0;
  index_t x_new_count_ = 0;
  index_t z_count_ = 0;
};

/// sz = sx_new + beta (sx_new - sx): the momentum identity on the
/// cached forward applications.
void extrapolate(const cxd* sx_new, const cxd* sx, double beta, cxd* sz,
                 index_t count) {
  const double* nd = reinterpret_cast<const double*>(sx_new);
  const double* od = reinterpret_cast<const double*>(sx);
  double* zd = reinterpret_cast<double*>(sz);
  for (index_t i = 0; i < 2 * count; ++i) {
    zd[i] = nd[i] + beta * (nd[i] - od[i]);
  }
}

/// Per-iteration ToA-block screening (DESIGN.md §5 item 10). Unknown
/// row i = j N_l + a lies in ToA block j. When block j of the point a
/// gradient step starts from is +0, the step's rows there are
/// -step * g with g = left^H bp_j, bp the ToA correlation of the
/// residual (the adjoint's first stage), and Cauchy-Schwarz bounds each
/// of those rows' squared norm by step^2 Lmax^2 B_j, where Lmax^2 is the
/// largest squared column norm of left and B_j the squared norm of bp_j
/// over every snapshot column. Whenever
///     fl(fl(step^2 Lmax^2 (1 + kDelta)) (B_j + kUnderflowPad)) < fl(shrink^2)
/// every row of the block falls below shrink^2 exactly, so the prox
/// zeros it (the sqrt prefilter or the sqrt test): the block is
/// screened, its gradient is never formed, and the gradient-step,
/// row-decision and forward passes skip it. kDelta covers the roundings
/// on both sides and kUnderflowPad the underflow in B_j; the test is
/// switched off (coef_ is NaN) unless step, Lmax^2 and shrink^2 lie in
/// [2^-300, 2^300] and M k <= 2^16, the ranges the derivation in
/// DESIGN.md assumes. NaN or inf in B_j fails the compare, so such a
/// block is never screened.
///
/// Most blocks are cleared without forming bp_j at all. The screen keeps
/// a reference residual r_ref and the norms ||bp_j(r_ref)|| of its last
/// full correlation; by linearity ||bp_j(r)|| <= ||bp_j(r_ref)|| +
/// Rmax ||r - r_ref||_F, Rmax the largest column norm of right, and the
/// drift term also carries the absolute rounding of both computed
/// correlations. A block that bound clears is screened; the exact test
/// runs only on the few it cannot clear, on their columns of bp alone.
/// When more than kMaxExact blocks need it, or the drift is not finite,
/// one full correlation makes r the new reference. The bound is on
/// only when M k <= kSmallRowLimit (where toa_correlate forms single
/// columns bit for bit), L <= 2^20 and Rmax^2 lies in [2^-300, 2^300];
/// otherwise every gradient forms the full correlation, as does the
/// first.
///
/// Every result stays bit for bit the unscreened one. A non-Kronecker
/// operator is one block that is never screened. The masks, the
/// reference and the applies' scratch are allocated here, once per
/// solve.
class BlockScreen {
 public:
  BlockScreen(const LinearOperator& op, index_t k, double step, double shrink)
      : op_(op),
        kron_(op.kronecker()),
        k_(k),
        nl_(kron_ != nullptr ? kron_->left().cols() : op.cols()),
        nr_(kron_ != nullptr ? kron_->right().cols() : 1),
        open_(static_cast<std::size_t>(nr_), 1),
        live_(static_cast<std::size_t>(nr_)) {
    if (kron_ == nullptr) return;
    const auto in_range = [](double v) {
      return v >= 0x1p-300 && v <= 0x1p300;
    };
    const index_t mk = kron_->left().rows() * k;
    if (in_range(step) && in_range(shrink * shrink) &&
        in_range(kron_->left_col_norm_sq_max()) && mk <= (index_t{1} << 16)) {
      coef_ = step * step * kron_->left_col_norm_sq_max() * (1.0 + kDelta);
      shrink_sq_ = shrink * shrink;
    }
    bp_ = CMat(mk, nr_);
    if (!std::isnan(coef_) && mk <= linalg::backend::kSmallRowLimit &&
        kron_->right().rows() <= (index_t{1} << 20) &&
        in_range(kron_->right_col_norm_sq_max())) {
      right_norm_ = std::sqrt(kron_->right_col_norm_sq_max());
      ref_.resize(static_cast<std::size_t>(kron_->rows() * k));
      ref_norm_.resize(static_cast<std::size_t>(nr_));
      want_.resize(static_cast<std::size_t>(nr_));
    }
  }

  /// grad = S^H residual on every block not screened against `from`,
  /// whose live rows are from_rows[0, nfrom), ascending (every other row
  /// of it is +0). Screened blocks of grad are left unwritten.
  void screen_gradient(const CMat& residual, const index_t* from_rows,
                       index_t nfrom, CMat& grad,
                       const runtime::ThreadPool* pool) {
    if (kron_ == nullptr) {
      op_.apply_adjoint_mat_into(residual, grad, pool);
      return;
    }
    // Blocks live in `from` stay open; every other block is screened
    // when its bound passes.
    std::fill(open_.begin(), open_.end(), std::uint8_t{0});
    for (index_t r = 0; r < nfrom; ++r) {
      open_[static_cast<std::size_t>(from_rows[r] / nl_)] = 1;
    }
    if (!screen_from_reference(residual.data(), pool)) {
      screen_fresh(residual.data(), pool);
    }
    kron_->aoa_expand(bp_, k_, open_.data(), grad.data(), ws_, pool);
  }

  /// Calls f(r0, r1) for every maximal run [r0, r1) of rows the last
  /// screen_gradient left unscreened, ascending.
  template <class F>
  void for_each_open_range(const F& f) const {
    for_each_block_run(open_.data(), nr_,
                       [&](index_t j0, index_t j1) { f(j0 * nl_, j1 * nl_); });
  }

  /// y = S x for an x whose live rows are rows[0, count) (every other
  /// row +0): the forward runs on those rows' ToA blocks only.
  void forward_live(const CMat& x, const index_t* rows, index_t count,
                    CMat& y, const runtime::ThreadPool* pool) {
    if (kron_ == nullptr) {
      op_.apply_mat_into(x, y, pool);
      return;
    }
    std::fill(live_.begin(), live_.end(), std::uint8_t{0});
    for (index_t r = 0; r < count; ++r) {
      live_[static_cast<std::size_t>(rows[r] / nl_)] = 1;
    }
    kron_->apply_blocks(x.data(), k_, live_.data(), y.data(), ws_, pool);
  }

  [[nodiscard]] const ScreenStats& stats() const { return stats_; }

 private:
  static constexpr double kDelta = 1e-9;
  static constexpr double kUnderflowPad = 0x1p-1000;
  /// The drift term's constants (DESIGN.md §5 item 10): kGemmRel >=
  /// 2 sqrt(2) gamma_{2L+2} bounds the absolute rounding of both
  /// correlations per unit ||r_ref||_F Rmax (L <= 2^20), and
  /// kDriftInflate covers the roundings of the computed norms and of the
  /// drift's own arithmetic.
  static constexpr double kGemmRel = 0x1p-28;
  static constexpr double kDriftInflate = 1.0 + 0x1p-20;
  /// Most non-live blocks a stale-reference screen gives the exact test
  /// before it refreshes the reference instead.
  static constexpr index_t kMaxExact = 4;

  /// Sum of squares of bp_'s column j (both parts, ascending).
  [[nodiscard]] double block_sq(index_t j) const {
    const index_t len = 2 * bp_.rows();  // doubles per bp column
    const double* d = reinterpret_cast<const double*>(bp_.data()) + j * len;
    double bj = 0.0;
    for (index_t i = 0; i < len; ++i) bj += d[i] * d[i];
    return bj;
  }

  /// The screen's test on b, a squared-norm bound on a block's
  /// correlation (B_j, or the stale-reference bound squared): true when
  /// the block is screened.
  [[nodiscard]] bool bound_clears(double bj) const {
    return coef_ * (bj + kUnderflowPad) < shrink_sq_;
  }

  /// Forms the correlation of every block, gives every non-live block
  /// the exact test, and (with the stale bound on) makes r the reference.
  void screen_fresh(const cxd* r, const runtime::ThreadPool* pool) {
    kron_->toa_correlate(r, k_, nullptr, bp_, ws_, pool);
    ++stats_.full_correlates;
    const bool stale = !ref_.empty();
    for (index_t j = 0; j < nr_; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      if (open_[jj] != 0 && !stale) continue;
      const double bj = block_sq(j);
      if (stale) ref_norm_[jj] = std::sqrt(bj + kUnderflowPad);
      if (open_[jj] != 0) continue;
      ++stats_.exact_tested;
      open_[jj] = !bound_clears(bj);
    }
    if (!stale) return;
    std::copy(r, r + ref_.size(), ref_.begin());
    const double* d = reinterpret_cast<const double*>(r);
    double r2 = 0.0;
    for (std::size_t i = 0; i < 2 * ref_.size(); ++i) r2 += d[i] * d[i];
    ref_fro_ = std::sqrt(r2 + kUnderflowPad);
    has_ref_ = true;
  }

  /// Upper bound, for every block j, on ||bp_j(r)|| - ||bp_j(r_ref)|| as
  /// computed: Rmax times the drift ||r - r_ref||_F plus the absolute
  /// rounding of both correlations, all roundings covered. NaN or inf
  /// when r or the reference is not finite.
  [[nodiscard]] double drift_bound(const cxd* r) const {
    const double* a = reinterpret_cast<const double*>(r);
    const double* b = reinterpret_cast<const double*>(ref_.data());
    double d2 = 0.0;
    for (std::size_t i = 0; i < 2 * ref_.size(); ++i) {
      const double d = a[i] - b[i];
      d2 += d * d;
    }
    return (std::sqrt(d2 + kUnderflowPad) + kGemmRel * ref_fro_) *
           kDriftInflate * right_norm_;
  }

  /// The stale-reference screen. Returns false, having changed nothing
  /// but the scratch, when it cannot decide: no reference yet, a drift
  /// that is not finite, or more than kMaxExact blocks the drift bound
  /// cannot clear.
  bool screen_from_reference(const cxd* r, const runtime::ThreadPool* pool) {
    if (!has_ref_) return false;
    const double drift = drift_bound(r);
    if (!(drift <= std::numeric_limits<double>::max())) return false;
    index_t nexact = 0;
    std::int64_t cleared = 0;
    for (index_t j = 0; j < nr_; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      if (open_[jj] != 0) continue;
      const double s = ref_norm_[jj] + drift;
      if (bound_clears(s * s)) {
        ++cleared;
        continue;
      }
      if (nexact == kMaxExact) return false;
      exact_[static_cast<std::size_t>(nexact++)] = j;
    }
    // Columns the exact tests and the expansion read: the live blocks
    // and the uncleared ones.
    std::copy(open_.begin(), open_.end(), want_.begin());
    for (index_t e = 0; e < nexact; ++e) {
      want_[static_cast<std::size_t>(exact_[static_cast<std::size_t>(e)])] = 1;
    }
    kron_->toa_correlate(r, k_, want_.data(), bp_, ws_, pool);
    for (index_t e = 0; e < nexact; ++e) {
      const index_t j = exact_[static_cast<std::size_t>(e)];
      open_[static_cast<std::size_t>(j)] = !bound_clears(block_sq(j));
    }
    stats_.drift_cleared += cleared;
    stats_.exact_tested += nexact;
    return true;
  }

  const LinearOperator& op_;
  const KroneckerOperator* kron_;
  index_t k_, nl_, nr_;
  double coef_ = std::numeric_limits<double>::quiet_NaN();
  double shrink_sq_ = 0.0;
  std::vector<std::uint8_t> open_, live_;
  CMat bp_;
  KroneckerOperator::Workspace ws_;
  // Stale-reference state; ref_ is empty when the bound is off.
  std::vector<cxd> ref_;         ///< r_ref, M L x k column-major.
  std::vector<double> ref_norm_; ///< fl(sqrt(B_j(r_ref) + pad)) per block.
  std::vector<std::uint8_t> want_;
  std::array<index_t, kMaxExact> exact_{};
  double right_norm_ = 0.0;      ///< fl(sqrt(Rmax^2)).
  double ref_fro_ = 0.0;         ///< fl(sqrt(||r_ref||_F^2 + pad)).
  bool has_ref_ = false;
  ScreenStats stats_;
};

// The solver keeps the forward applications S x and S z cached across
// iterations. Applying S to z afresh would cost three operator
// applications per iteration — S z for the gradient, S^H r, and S x_new
// for the objective — while the cache costs two: S x_new is retained,
// and the next momentum point's S z follows by linearity,
//   z = x_new + beta (x_new - x)  =>  S z = (1+beta) S x_new - beta S x,
// so the objective evaluation's application is never repeated. After a
// monotone restart beta = 0 and S z = S x_new exactly; the cached S x is
// always a direct application (never a linear combination), so error
// from the identity cannot compound across iterations.
//
// All large per-iteration buffers (iterate, momentum point, gradient,
// residual, cached applications) are allocated once and recycled via
// swaps; element-wise passes over the grid-sized iterate are fused, the
// momentum pass and the prox's write visit only the rows that can be
// nonzero, and BlockScreen skips the gradient, prox and forward work of
// the ToA blocks the prox provably zeros (see the helpers above). This
// matters: the unknown block is tall (grid size x snapshots), only a few
// percent of its rows are live, and the naive expression-by-expression
// loop spends more time re-walking and re-allocating it than in the
// operator.
//
// `solver` names the public entry point in error messages.
GroupSolveResult solve(const LinearOperator& op, const CMat& y,
                       const SolveConfig& cfg, const runtime::ThreadPool* pool,
                       const IterationCallback& callback, const char* solver) {
  const std::string name(solver);
  if (y.rows() != op.rows()) throw std::invalid_argument(name + ": rhs rows");
  if (y.cols() < 1) throw std::invalid_argument(name + ": no snapshots");
  if (cfg.max_iterations < 1) {
    throw std::invalid_argument(name + ": max_iterations");
  }

  GroupSolveResult out;
  const index_t n = op.cols();
  const index_t k = y.cols();
  const index_t m = op.rows();
  const auto& bk = linalg::backend::active();

  // Auto kappa for the group norm: largest row norm of S^H Y.
  if (cfg.kappa > 0.0) {
    out.kappa = cfg.kappa;
  } else {
    const CMat g = op.apply_adjoint_mat(y, pool);
    std::vector<double> row_sq(static_cast<std::size_t>(n), 0.0);
    for (index_t j = 0; j < k; ++j) {
      bk.row_sq_accumulate(g.data() + j * n, n, row_sq.data());
    }
    double mx = 0.0;
    for (index_t i = 0; i < n; ++i) {
      mx = std::max(mx, std::sqrt(row_sq[static_cast<std::size_t>(i)]));
    }
    out.kappa = cfg.kappa_ratio * mx;
  }
  const double step = resolve_step(op, cfg, solver);
  const double shrink = step * out.kappa;

  CMat x(n, k);
  CMat z(n, k);
  CMat x_new(n, k);
  CMat grad(n, k);
  CMat sx(m, k);  // S x (x starts at zero)
  CMat sz(m, k);  // S z
  CMat sx_new(m, k);
  CMat residual(m, k);
  std::vector<double> row_scale(static_cast<std::size_t>(n));
  LiveRows live(n);
  BlockScreen screen(op, k, step, shrink);
  out.objective.reserve(static_cast<std::size_t>(cfg.max_iterations));
  double t = 1.0;
  double prev_obj = half_residual_sq(sx.data(), y.data(), m * k);  // x = 0

  // x_new = prox_{shrink ||.||_{2,1}}(from - step * grad), returning
  // ||x_new||_{2,1} for the objective. On each row range the screen left
  // open, a column-major backend pass accumulates the squared row norms
  // of the gradient step (without storing it) and row_shrink_factors
  // turns them into shrink factors and lists the kept rows; the ranges
  // ascend, so the l2,1 sum and the list keep the dense row order, and
  // every screened row would have been zeroed. Only the kept rows are
  // written: the gradient step times the factor, the roundings of a
  // full gradient-step write followed by Backend::row_scale. Rows the
  // x_new buffer still holds from an earlier write get +0; every other
  // row already is +0. The returned l2,1 value is the analytic
  // post-shrink norm (row norm times its shrink factor).
  auto prox_step = [&](const CMat& from) {
    RowShrink shrunk;
    screen.for_each_open_range([&](index_t r0, index_t r1) {
      std::fill(row_scale.begin() + r0, row_scale.begin() + r1, 0.0);
      for (index_t j = 0; j < k; ++j) {
        bk.gradient_row_sq(from.data() + j * n + r0, grad.data() + j * n + r0,
                           step, r1 - r0, row_scale.data() + r0);
      }
      row_shrink_factors(row_scale.data(), r0, r1, shrink, shrunk,
                         live.spare());
    });
    live.set_new(shrunk.kept, [&](index_t row) {
      for (index_t j = 0; j < k; ++j) x_new(row, j) = cxd{};
    });
    const index_t* rows = live.new_rows();
    for (index_t j = 0; j < k; ++j) {
      const double* fd = reinterpret_cast<const double*>(from.data() + j * n);
      const double* gd = reinterpret_cast<const double*>(grad.data() + j * n);
      double* xd = reinterpret_cast<double*>(x_new.data() + j * n);
      for (index_t r = 0; r < shrunk.kept; ++r) {
        const index_t i = rows[r];
        const double s = row_scale[static_cast<std::size_t>(i)];
        xd[2 * i] = (fd[2 * i] - step * gd[2 * i]) * s;
        xd[2 * i + 1] = (fd[2 * i + 1] - step * gd[2 * i + 1]) * s;
      }
    }
    return shrunk.l21;
  };

  for (int it = 1; it <= cfg.max_iterations; ++it) {
    // Gradient of the smooth part at z: S^H (S z - y).
    residual = sz;
    residual -= y;
    screen.screen_gradient(residual, live.active(), live.active_count(), grad,
                           pool);
    double l21 = prox_step(z);
    screen.forward_live(x_new, live.new_rows(), live.new_count(), sx_new,
                        pool);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;

    if (obj > prev_obj) {
      // Monotone restart: the momentum step overshot. Discard it and
      // take a plain proximal-gradient step from x, which the step-size
      // majorization guarantees does not increase the objective. S x is
      // already cached, so the restart gradient costs no extra forward
      // application.
      residual = sx;
      residual -= y;
      screen.screen_gradient(residual, live.x_rows(), live.x_count(), grad,
                             pool);
      l21 = prox_step(x);
      screen.forward_live(x_new, live.new_rows(), live.new_count(), sx_new,
                          pool);
      obj = half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;
      t = 1.0;
    }
    out.objective.push_back(obj);
    out.iterations = it;

    const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_new;
    t = t_new;
    double diff_sq = 0.0;
    double new_sq = 0.0;
    const index_t nactive = live.update(z.data(), n, k);
    momentum_update(x_new.data(), x.data(), beta, z.data(), n, k,
                    live.active(), nactive, diff_sq, new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m * k);

    prev_obj = obj;
    std::swap(x, x_new);
    live.swap_iterates();
    std::swap(sx, sx_new);
    if (callback) callback(it, x);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(x);
  out.screen = screen.stats();
  return out;
}

}  // namespace

double kappa_max(const LinearOperator& op, const CVec& y) {
  return norm_inf(op.apply_adjoint(y));
}

double l1_objective(const LinearOperator& op, const CVec& y, const CVec& x,
                    double kappa) {
  CVec r = op.apply(x);
  r -= y;
  return 0.5 * norm2_sq(r) + kappa * norm1(x);
}

SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_l1: rhs size");
  CMat ym(y.size(), 1);
  ym.set_col(0, y);
  GroupSolveResult g = solve(op, ym, cfg, nullptr, nullptr, "solve_l1");
  SolveResult out;
  out.x = g.x.col_vec(0);
  out.iterations = g.iterations;
  out.converged = g.converged;
  out.kappa = g.kappa;
  out.objective = std::move(g.objective);
  out.screen = g.screen;
  return out;
}

GroupSolveResult solve_group_l1(const LinearOperator& op, const CMat& y,
                                const SolveConfig& cfg,
                                const runtime::ThreadPool* pool,
                                const IterationCallback& callback) {
  return solve(op, y, cfg, pool, callback, "solve_group_l1");
}

}  // namespace roarray::sparse
