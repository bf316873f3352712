#include "sparse/fista.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sparse/power.hpp"
#include "sparse/prox.hpp"

namespace roarray::sparse {

namespace {

double resolve_kappa(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg) {
  if (cfg.kappa > 0.0) return cfg.kappa;
  return cfg.kappa_ratio * kappa_max(op, y);
}

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
/// and z = +0 + beta * (+0) = +0 for the solvers' beta >= 0. Running the
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
/// cached forward applications (reuse path).
void extrapolate(const cxd* sx_new, const cxd* sx, double beta, cxd* sz,
                 index_t count) {
  const double* nd = reinterpret_cast<const double*>(sx_new);
  const double* od = reinterpret_cast<const double*>(sx);
  double* zd = reinterpret_cast<double*>(sz);
  for (index_t i = 0; i < 2 * count; ++i) {
    zd[i] = nd[i] + beta * (nd[i] - od[i]);
  }
}

/// x_new = from - step * grad over interleaved storage (one pass; the
/// unfused version copies `from` and then subtracts a scaled copy of
/// the gradient).
void gradient_step(const cxd* from, const cxd* grad, double step, cxd* x_new,
                   index_t count) {
  const double* fd = reinterpret_cast<const double*>(from);
  const double* gd = reinterpret_cast<const double*>(grad);
  double* xd = reinterpret_cast<double*>(x_new);
  for (index_t i = 0; i < 2 * count; ++i) {
    xd[i] = fd[i] - step * gd[i];
  }
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

// Both solvers below keep the forward applications S x and S z cached
// across iterations (cfg.reuse_applies). Per iteration the direct path
// costs three operator applications — S z for the gradient, S^H r, and
// S x_new for the objective — while the reuse path costs two: S x_new
// is retained, and the next momentum point's S z follows by linearity,
//   z = x_new + beta (x_new - x)  =>  S z = (1+beta) S x_new - beta S x,
// so the objective evaluation's application is never repeated. After a
// monotone restart beta = 0 and S z = S x_new exactly; the cached S x is
// always a direct application (never a linear combination), so error
// from the identity cannot compound across iterations.
//
// All large per-iteration buffers (iterate, momentum point, gradient,
// residual, cached applications) are allocated once and recycled via
// swaps; element-wise passes over the grid-sized iterate are fused, and
// the momentum pass (and the group prox's write) visit only the rows
// that can be nonzero (see the helpers above). This matters: the
// unknown block is tall (grid size x snapshots), only a few percent of
// its rows are live, and the naive expression-by-expression loop spends
// more time re-walking and re-allocating it than in the operator.

SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg, const IterationCallback& callback) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_l1: rhs size");
  if (cfg.max_iterations < 1) throw std::invalid_argument("solve_l1: max_iterations");

  SolveResult out;
  out.kappa = resolve_kappa(op, y, cfg);
  const double step = resolve_step(op, cfg, "solve_l1");
  const double shrink = step * out.kappa;
  const bool accelerated = cfg.algorithm == Algorithm::kFista;
  const bool reuse = cfg.reuse_applies;

  const index_t n = op.cols();
  const index_t m = op.rows();
  CVec x(n);
  CVec z(n);      // momentum point (equals x for ISTA)
  CVec x_new(n);
  CVec sx(m);     // S x (x starts at zero)
  CVec sz(m);     // S z, maintained only on the reuse path
  CVec sx_new(m);
  CVec residual(m);
  LiveRows live(n);
  out.objective.reserve(static_cast<std::size_t>(cfg.max_iterations));
  double t = 1.0;
  double prev_obj = half_residual_sq(sx.data(), y.data(), m);  // x = 0

  for (int it = 1; it <= cfg.max_iterations; ++it) {
    // Gradient of the smooth part at z: S^H (S z - y).
    residual = reuse ? sz : op.apply(z);
    residual -= y;
    CVec grad = op.apply_adjoint(residual);

    gradient_step(z.data(), grad.data(), step, x_new.data(), n);
    soft_threshold_inplace(x_new, shrink);
    sx_new = op.apply(x_new);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m) + out.kappa * norm1(x_new);

    if (accelerated && obj > prev_obj) {
      // Monotone restart: the momentum step overshot. Discard it and
      // take a plain proximal-gradient step from x, which the step-size
      // majorization guarantees does not increase the objective. S x is
      // already cached, so the restart gradient costs no extra forward
      // application on the reuse path.
      residual = reuse ? sx : op.apply(x);
      residual -= y;
      grad = op.apply_adjoint(residual);
      gradient_step(x.data(), grad.data(), step, x_new.data(), n);
      soft_threshold_inplace(x_new, shrink);
      sx_new = op.apply(x_new);
      obj = half_residual_sq(sx_new.data(), y.data(), m) +
            out.kappa * norm1(x_new);
      t = 1.0;
    }
    out.objective.push_back(obj);
    out.iterations = it;

    double beta = 0.0;
    if (accelerated) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    double diff_sq = 0.0;
    double new_sq = 0.0;
    // Live elements of x_new: all but the +0 ones (soft_threshold writes
    // +0 for every element it shrinks to zero). x_new is written in full
    // above, so no stale element needs clearing.
    index_t nlive = 0;
    for (index_t i = 0; i < n; ++i) {
      live.spare()[nlive] = i;
      nlive += (std::bit_cast<std::uint64_t>(x_new[i].real()) |
                std::bit_cast<std::uint64_t>(x_new[i].imag())) != 0;
    }
    live.set_new(nlive, [](index_t) {});
    const index_t nactive = live.update(z.data(), n, 1);
    momentum_update(x_new.data(), x.data(), beta, z.data(), n, 1,
                    live.active(), nactive, diff_sq, new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    if (reuse) extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m);

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
  return out;
}

GroupSolveResult solve_group_l1(const LinearOperator& op, const CMat& y,
                                const SolveConfig& cfg,
                                const runtime::ThreadPool* pool) {
  if (y.rows() != op.rows()) throw std::invalid_argument("solve_group_l1: rhs rows");
  if (y.cols() < 1) throw std::invalid_argument("solve_group_l1: no snapshots");
  if (cfg.max_iterations < 1) {
    throw std::invalid_argument("solve_group_l1: max_iterations");
  }

  GroupSolveResult out;
  const index_t n = op.cols();
  const index_t k = y.cols();
  const index_t m = op.rows();

  // Auto kappa for the group norm: largest row norm of S^H Y.
  if (cfg.kappa > 0.0) {
    out.kappa = cfg.kappa;
  } else {
    const CMat g = op.apply_adjoint_mat(y, pool);
    const auto& bk = linalg::backend::active();
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
  const double step = resolve_step(op, cfg, "solve_group_l1");
  const double shrink = step * out.kappa;
  const bool accelerated = cfg.algorithm == Algorithm::kFista;
  const bool reuse = cfg.reuse_applies;
  const auto& bk = linalg::backend::active();

  CMat x(n, k);
  CMat z(n, k);
  CMat x_new(n, k);
  CMat grad(n, k);
  CMat sx(m, k);  // S x (x starts at zero)
  CMat sz(m, k);  // S z, maintained only on the reuse path
  CMat sx_new(m, k);
  CMat residual(m, k);
  std::vector<double> row_scale(static_cast<std::size_t>(n));
  LiveRows live(n);
  out.objective.reserve(static_cast<std::size_t>(cfg.max_iterations));
  double t = 1.0;
  double prev_obj = half_residual_sq(sx.data(), y.data(), m * k);  // x = 0

  // x_new = prox_{shrink ||.||_{2,1}}(from - step * grad), returning
  // ||x_new||_{2,1} for the objective. A column-major backend pass
  // accumulates the squared row norms of the gradient step (without
  // storing it), row_shrink_factors turns them into shrink factors and
  // lists the kept rows, and only those rows are written: the gradient
  // step times the factor, the roundings of a full gradient-step write
  // followed by Backend::row_scale. Rows the x_new buffer still holds
  // from an earlier write get +0; every other row already is +0. The
  // returned l2,1 value is the analytic post-shrink norm (row norm times
  // its shrink factor).
  auto prox_gradient_step = [&](const CMat& from, const CMat& g) {
    std::fill(row_scale.begin(), row_scale.end(), 0.0);
    for (index_t j = 0; j < k; ++j) {
      bk.gradient_row_sq(from.data() + j * n, g.data() + j * n, step, n,
                         row_scale.data());
    }
    const RowShrink shrunk =
        row_shrink_factors(row_scale.data(), n, shrink, live.spare());
    live.set_new(shrunk.kept, [&](index_t row) {
      for (index_t j = 0; j < k; ++j) x_new(row, j) = cxd{};
    });
    const index_t* rows = live.new_rows();
    for (index_t j = 0; j < k; ++j) {
      const double* fd = reinterpret_cast<const double*>(from.data() + j * n);
      const double* gd = reinterpret_cast<const double*>(g.data() + j * n);
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
    if (reuse) {
      residual = sz;
    } else {
      op.apply_mat_into(z, residual, pool);
    }
    residual -= y;
    op.apply_adjoint_mat_into(residual, grad, pool);

    double l21 = prox_gradient_step(z, grad);
    op.apply_mat_into(x_new, sx_new, pool);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;

    if (accelerated && obj > prev_obj) {
      // Monotone restart (see solve_l1): redo as a plain step from x.
      if (reuse) {
        residual = sx;
      } else {
        op.apply_mat_into(x, residual, pool);
      }
      residual -= y;
      op.apply_adjoint_mat_into(residual, grad, pool);
      l21 = prox_gradient_step(x, grad);
      op.apply_mat_into(x_new, sx_new, pool);
      obj = half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;
      t = 1.0;
    }
    out.objective.push_back(obj);
    out.iterations = it;

    double beta = 0.0;
    if (accelerated) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    double diff_sq = 0.0;
    double new_sq = 0.0;
    const index_t nactive = live.update(z.data(), n, k);
    momentum_update(x_new.data(), x.data(), beta, z.data(), n, k,
                    live.active(), nactive, diff_sq, new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    if (reuse) extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m * k);

    prev_obj = obj;
    std::swap(x, x_new);
    live.swap_iterates();
    std::swap(sx, sx_new);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(x);
  return out;
}

}  // namespace roarray::sparse
