// Bit-identity of the FISTA solver against a frozen reference copy.
//
// The oracle below is the proximal-gradient loop of solve_group_l1 as
// it stood before the row-sparse prox / momentum passes: a dense
// gradient step written in full, a sqrt for every row's zero test, the
// backend row_scale pass, and a momentum pass over every element. The
// production solver must reproduce it exactly — the bytes of x and of
// the objective history, the iteration count and the convergence flag —
// on random Kronecker and support-restricted problems, under the scalar
// table and (when present) the simd table. Operator applications and
// row scaling go through the same backend table in both, so any
// difference is a change in the solver's own arithmetic. The oracle
// forms every gradient in full; the production solver screens ToA
// blocks the Cauchy-Schwarz bound proves zero, most of them through a
// stale-reference drift bound, so the second property builds cases that
// put a block's bound (the exact one at the first gradient, the drift
// bound at the second) right at shrink^2, poison the data with NaN /
// inf, take M k past the drift bound's limit, or run on a pool. The
// oracle also runs a frozen model of the screen, and the ScreenStats
// each production solve reports must equal the model's counts.
//
// The oracle keeps the direct path that applies S to every momentum
// point afresh (three applications per iteration); the production
// solver forms S z from the momentum identity instead, which matches
// the direct path to rounding, and one variant checks that. Every case
// also checks that solve_l1 is the group solve on one column, and that
// the single-column spectrum overload is the matrix one, byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/roarray.hpp"
#include "generators.hpp"
#include "linalg/backend/backend.hpp"
#include "proptest.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/fista.hpp"
#include "sparse/operator.hpp"
#include "sparse/power.hpp"

namespace pt = roarray::proptest;
namespace be = roarray::linalg::backend;
using roarray::linalg::CMat;
using roarray::linalg::CVec;
using roarray::linalg::cxd;
using roarray::linalg::index_t;
using roarray::runtime::ThreadPool;
using namespace roarray::sparse;

namespace {

// ---------------------------------------------------------------------------
// Frozen reference solvers.

/// What the generated cases exercised, counted in the oracle loops.
struct Coverage {
  int single_column = 0;  ///< solves with k = 1.
  int restarts = 0;       ///< monotone restarts.
  int screened = 0;       ///< non-live blocks the screen clears.
  int dead_open = 0;      ///< non-live blocks that fail the exact test.
  int drift_cleared = 0;  ///< blocks the stale-reference bound clears.
  int exact_tested = 0;   ///< blocks a stale-reference screen tests exactly.
  int refreshes = 0;      ///< full correlations replacing a reference.
};

/// The production screen (sparse/fista.cpp, BlockScreen) as a frozen
/// model, run on the oracle's full ToA correlation: the same switches,
/// the same bounds in the same floating-point expressions, and the same
/// stale-reference bookkeeping (reference residual and block norms of
/// the last full correlation, at most 4 exact tests before a refresh).
/// It counts what the production screen reports in ScreenStats, and the
/// properties compare the two. The blocks live in the point a step
/// starts from are given as a row mask, kept by the oracle the way
/// LiveRows keeps its lists.
class ScreenModel {
 public:
  ScreenModel(const LinearOperator& op, index_t k, double step,
              double shrink)
      : kron_(op.kronecker()), k_(k) {
    if (kron_ == nullptr) return;
    const auto in_range = [](double v) {
      return v >= 0x1p-300 && v <= 0x1p300;
    };
    const index_t mk = kron_->left().rows() * k;
    if (in_range(step) && in_range(shrink * shrink) &&
        in_range(kron_->left_col_norm_sq_max()) && mk <= (index_t{1} << 16)) {
      coef_ = step * step * kron_->left_col_norm_sq_max() * (1.0 + 1e-9);
      shrink_sq_ = shrink * shrink;
    }
    stale_ = !std::isnan(coef_) && mk <= be::kSmallRowLimit &&
             kron_->right().rows() <= (index_t{1} << 20) &&
             in_range(kron_->right_col_norm_sq_max());
    right_norm_ = std::sqrt(kron_->right_col_norm_sq_max());
  }

  /// One gradient's screen for residual r (k columns) and a step from a
  /// point whose live rows `live` marks.
  void screen(const cxd* r, const std::vector<char>& live, Coverage& cov) {
    if (kron_ == nullptr) return;
    const index_t nl = kron_->left().cols();
    const index_t nr = kron_->right().cols();
    std::vector<char> live_block(static_cast<std::size_t>(nr), 0);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i] != 0) live_block[i / static_cast<std::size_t>(nl)] = 1;
    }
    KroneckerOperator::Workspace ws;
    CMat bp;
    kron_->toa_correlate(r, k_, nullptr, bp, ws, nullptr);
    const auto block_sq = [&](index_t j) {
      const double* d = reinterpret_cast<const double*>(bp.data()) +
                        j * 2 * bp.rows();
      double bj = 0.0;
      for (index_t i = 0; i < 2 * bp.rows(); ++i) bj += d[i] * d[i];
      return bj;
    };
    const auto exact = [&](index_t j) {
      if (coef_ * (block_sq(j) + 0x1p-1000) < shrink_sq_) {
        ++cov.screened;
      } else {
        ++cov.dead_open;
      }
    };

    if (has_ref_) {
      const double drift = drift_bound(r);
      std::vector<index_t> need;
      int cleared = 0;
      bool decided = drift <= std::numeric_limits<double>::max();
      for (index_t j = 0; decided && j < nr; ++j) {
        if (live_block[static_cast<std::size_t>(j)] != 0) continue;
        if (bound_clears(ref_norm_[static_cast<std::size_t>(j)], drift)) {
          ++cleared;
        } else {
          need.push_back(j);
          decided = need.size() <= 4;
        }
      }
      if (decided) {
        stats.drift_cleared += cleared;
        stats.exact_tested += static_cast<std::int64_t>(need.size());
        cov.drift_cleared += cleared;
        cov.screened += cleared;
        cov.exact_tested += static_cast<int>(need.size());
        for (const index_t j : need) exact(j);
        return;
      }
      ++cov.refreshes;
    }
    ++stats.full_correlates;
    for (index_t j = 0; j < nr; ++j) {
      if (live_block[static_cast<std::size_t>(j)] != 0) continue;
      ++stats.exact_tested;
      exact(j);
    }
    if (!stale_) return;
    ref_norm_.resize(static_cast<std::size_t>(nr));
    for (index_t j = 0; j < nr; ++j) {
      ref_norm_[static_cast<std::size_t>(j)] =
          std::sqrt(block_sq(j) + 0x1p-1000);
    }
    ref_.assign(r, r + kron_->rows() * k_);
    const double* d = reinterpret_cast<const double*>(r);
    double r2 = 0.0;
    for (std::size_t i = 0; i < 2 * ref_.size(); ++i) r2 += d[i] * d[i];
    ref_fro_ = std::sqrt(r2 + 0x1p-1000);
    has_ref_ = true;
  }

  /// The stale bound's side of block j's test against residual r, as the
  /// production screen computes it: fl(coef (s^2 + pad)) with s the
  /// reference norm plus the drift term. Needs a reference.
  [[nodiscard]] double stale_side(const cxd* r, index_t j) const {
    const double s = ref_norm_[static_cast<std::size_t>(j)] + drift_bound(r);
    return coef_ * (s * s + 0x1p-1000);
  }

  [[nodiscard]] bool stale() const { return stale_; }

  ScreenStats stats;

 private:
  [[nodiscard]] double drift_bound(const cxd* r) const {
    const double* a = reinterpret_cast<const double*>(r);
    const double* b = reinterpret_cast<const double*>(ref_.data());
    double d2 = 0.0;
    for (std::size_t i = 0; i < 2 * ref_.size(); ++i) {
      const double d = a[i] - b[i];
      d2 += d * d;
    }
    return (std::sqrt(d2 + 0x1p-1000) + 0x1p-28 * ref_fro_) *
           (1.0 + 0x1p-20) * right_norm_;
  }

  [[nodiscard]] bool bound_clears(double ref_norm, double drift) const {
    const double s = ref_norm + drift;
    return coef_ * (s * s + 0x1p-1000) < shrink_sq_;
  }

  const KroneckerOperator* kron_;
  index_t k_;
  double coef_ = std::numeric_limits<double>::quiet_NaN();
  double shrink_sq_ = 0.0;
  bool stale_ = false;
  double right_norm_ = 0.0;
  bool has_ref_ = false;
  std::vector<cxd> ref_;
  std::vector<double> ref_norm_;
  double ref_fro_ = 0.0;
};

namespace oracle {

double resolve_step(const LinearOperator& op, const SolveConfig& cfg) {
  const double norm_sq =
      cfg.lipschitz_hint > 0.0 ? cfg.lipschitz_hint : operator_norm_sq(op);
  const double lip = norm_sq * cfg.lipschitz_safety;
  if (lip <= 0.0) throw std::domain_error("zero operator");
  return 1.0 / lip;
}

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

void momentum_update(const cxd* x_new, const cxd* x, double beta, cxd* z,
                     index_t count, double& diff_sq, double& new_sq) {
  const double* nd = reinterpret_cast<const double*>(x_new);
  const double* od = reinterpret_cast<const double*>(x);
  double* zd = reinterpret_cast<double*>(z);
  double ds = 0.0;
  double ns = 0.0;
  for (index_t i = 0; i < count; ++i) {
    const double dr = nd[2 * i] - od[2 * i];
    const double di = nd[2 * i + 1] - od[2 * i + 1];
    ds += dr * dr + di * di;
    ns += nd[2 * i] * nd[2 * i] + nd[2 * i + 1] * nd[2 * i + 1];
    zd[2 * i] = nd[2 * i] + beta * dr;
    zd[2 * i + 1] = nd[2 * i + 1] + beta * di;
  }
  diff_sq = ds;
  new_sq = ns;
}

void extrapolate(const cxd* sx_new, const cxd* sx, double beta, cxd* sz,
                 index_t count) {
  const double* nd = reinterpret_cast<const double*>(sx_new);
  const double* od = reinterpret_cast<const double*>(sx);
  double* zd = reinterpret_cast<double*>(sz);
  for (index_t i = 0; i < 2 * count; ++i) {
    zd[i] = nd[i] + beta * (nd[i] - od[i]);
  }
}

/// The oracle also runs the screen model (its counts go into the
/// result's ScreenStats) and counts monotone restarts and the screen's
/// decisions (Coverage), so the properties can check that the generated
/// cases exercise those paths. The live-row masks follow LiveRows: x_new
/// is live where the prox keeps it, z where x_new or x is. reuse = false
/// runs the direct path: S z applied afresh instead of the momentum
/// identity on the cached applications.
GroupSolveResult solve_group_l1(const LinearOperator& op, const CMat& y,
                                const SolveConfig& cfg, Coverage& cov,
                                bool reuse = true) {
  GroupSolveResult out;
  const index_t n = op.cols();
  const index_t k = y.cols();
  const index_t m = op.rows();
  cov.single_column += k == 1 ? 1 : 0;

  if (cfg.kappa > 0.0) {
    out.kappa = cfg.kappa;
  } else {
    const CMat g = op.apply_adjoint_mat(y, nullptr);
    const auto& bk = be::active();
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
  const double step = resolve_step(op, cfg);
  const double shrink = step * out.kappa;

  CMat x(n, k);
  CMat z(n, k);
  CMat x_new(n, k);
  CMat grad(n, k);
  CMat sx(m, k);
  CMat sz(m, k);
  CMat sx_new(m, k);
  CMat residual(m, k);
  std::vector<double> row_scale(static_cast<std::size_t>(n));
  ScreenModel model(op, k, step, shrink);
  std::vector<char> live_x(static_cast<std::size_t>(n), 0);
  std::vector<char> live_z = live_x;
  std::vector<char> live_new = live_x;
  double t = 1.0;
  double prev_obj = half_residual_sq(sx.data(), y.data(), m * k);

  auto prox_gradient_step = [&](const CMat& from, const CMat& g) {
    const double* fd = reinterpret_cast<const double*>(from.data());
    const double* gd = reinterpret_cast<const double*>(g.data());
    double* xd = reinterpret_cast<double*>(x_new.data());
    std::fill(row_scale.begin(), row_scale.end(), 0.0);
    for (index_t j = 0; j < k; ++j) {
      const index_t off = 2 * j * n;
      for (index_t i = 0; i < n; ++i) {
        const double xr = fd[off + 2 * i] - step * gd[off + 2 * i];
        const double xi = fd[off + 2 * i + 1] - step * gd[off + 2 * i + 1];
        xd[off + 2 * i] = xr;
        xd[off + 2 * i + 1] = xi;
        row_scale[static_cast<std::size_t>(i)] += xr * xr + xi * xi;
      }
    }
    double l21 = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double norm = std::sqrt(row_scale[static_cast<std::size_t>(i)]);
      live_new[static_cast<std::size_t>(i)] = !(norm <= shrink);
      if (norm <= shrink) {
        row_scale[static_cast<std::size_t>(i)] = -1.0;
      } else {
        const double s = 1.0 - shrink / norm;
        row_scale[static_cast<std::size_t>(i)] = s;
        l21 += norm * s;
      }
    }
    const auto& bk = be::active();
    for (index_t j = 0; j < k; ++j) {
      bk.row_scale(x_new.data() + j * n, n, row_scale.data());
    }
    return l21;
  };

  for (int it = 1; it <= cfg.max_iterations; ++it) {
    if (reuse) {
      residual = sz;
    } else {
      op.apply_mat_into(z, residual, nullptr);
    }
    residual -= y;
    model.screen(residual.data(), live_z, cov);
    op.apply_adjoint_mat_into(residual, grad, nullptr);

    double l21 = prox_gradient_step(z, grad);
    op.apply_mat_into(x_new, sx_new, nullptr);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;

    if (obj > prev_obj) {
      ++cov.restarts;
      if (reuse) {
        residual = sx;
      } else {
        op.apply_mat_into(x, residual, nullptr);
      }
      residual -= y;
      model.screen(residual.data(), live_x, cov);
      op.apply_adjoint_mat_into(residual, grad, nullptr);
      l21 = prox_gradient_step(x, grad);
      op.apply_mat_into(x_new, sx_new, nullptr);
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
    momentum_update(x_new.data(), x.data(), beta, z.data(), n * k, diff_sq,
                    new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    if (reuse) extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m * k);
    for (std::size_t i = 0; i < live_z.size(); ++i) {
      live_z[i] = live_new[i] | live_x[i];
    }
    live_x = live_new;

    prev_obj = obj;
    std::swap(x, x_new);
    std::swap(sx, sx_new);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(x);
  out.screen = model.stats;
  return out;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Cases.

/// Solver settings a case exercises.
enum class Variant {
  kAutoKappa,     ///< defaults: auto kappa.
  kExplicit,      ///< explicit kappa.
  kDirect,        ///< also matches the oracle's direct path to rounding.
  kZeroRhs,       ///< y = 0 (kappa 0: nothing shrinks but zero rows).
  kConverging,    ///< loose tolerance: stops before the cap.
  kCount,
};

struct SolverCase {
  index_t m = 2, nl = 8, l = 3, nr = 6;  ///< Kronecker factor sizes.
  index_t k = 1;                         ///< snapshot columns.
  bool support = false;                  ///< solve on a SupportOperator.
  Variant variant = Variant::kAutoKappa;
  double kappa_ratio = 0.15;
  std::uint64_t data_seed = 0;
};

pt::Gen<SolverCase> gen_solver_case() {
  return [](pt::Rng& rng) {
    SolverCase c;
    c.m = std::uniform_int_distribution<index_t>(1, 4)(rng);
    c.nl = std::uniform_int_distribution<index_t>(4, 19)(rng);
    c.l = std::uniform_int_distribution<index_t>(2, 8)(rng);
    // Up to 40 ToA blocks: with many blocks a reference outlives many
    // gradients, so a wrong drift bound changes iterates, not only the
    // screen's counts.
    c.nr = std::uniform_int_distribution<index_t>(3, 40)(rng);
    c.k = std::uniform_int_distribution<index_t>(1, 6)(rng);
    c.support = std::uniform_int_distribution<int>(0, 2)(rng) == 0;
    c.variant = static_cast<Variant>(std::uniform_int_distribution<int>(
        0, static_cast<int>(Variant::kCount) - 1)(rng));
    c.kappa_ratio = std::uniform_real_distribution<double>(0.02, 0.6)(rng);
    c.data_seed = rng();
    return c;
  };
}

std::string show_solver_case(const SolverCase& c) {
  std::ostringstream os;
  os << "m=" << c.m << " nl=" << c.nl << " l=" << c.l << " nr=" << c.nr
     << " k=" << c.k << " support=" << c.support
     << " variant=" << static_cast<int>(c.variant)
     << " kappa_ratio=" << c.kappa_ratio << " seed=" << c.data_seed;
  return os.str();
}

/// A row-sparse truth (a few live unknowns, shared by every snapshot up
/// to a per-column gain) plus noise, so the iterates are sparse and
/// rows go live and dead during the solve.
CMat make_rhs(const LinearOperator& op, index_t k, pt::Rng& rng) {
  CMat x(op.cols(), k);
  const index_t live = std::min<index_t>(op.cols(), 3);
  for (index_t r = 0; r < live; ++r) {
    const index_t row =
        std::uniform_int_distribution<index_t>(0, op.cols() - 1)(rng);
    for (index_t j = 0; j < k; ++j) x(row, j) = pt::gen_cxd(rng);
  }
  CMat y = op.apply_mat(x);
  const CMat noise = pt::gen_cmat(op.rows(), k, rng);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < op.rows(); ++i) y(i, j) += 0.05 * noise(i, j);
  }
  return y;
}

SolveConfig make_config(const SolverCase& c) {
  SolveConfig cfg;
  cfg.max_iterations = 90;
  cfg.kappa_ratio = c.kappa_ratio;
  switch (c.variant) {
    case Variant::kExplicit: cfg.kappa = 0.3 * c.kappa_ratio; break;
    // Both paths run every iteration, so the histories line up.
    case Variant::kDirect: cfg.tolerance = 0.0; break;
    case Variant::kConverging: cfg.tolerance = 2e-3; break;
    default: break;
  }
  return cfg;
}

/// Byte equality of `count` doubles; with nan_any, a NaN equals any NaN.
/// The NaN an operation returns from two NaN operands depends on operand
/// order, which the compiler may commute (the row-sparse prox write
/// multiplies in the other order than Backend::row_scale), so NaN
/// payloads and signs are not part of the contract on non-finite data.
bool same_doubles(const double* a, const double* b, std::size_t count,
                  bool nan_any) {
  if (!nan_any) return std::memcmp(a, b, count * sizeof(double)) == 0;
  for (std::size_t i = 0; i < count; ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && std::memcmp(a + i, b + i, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Compares a production result with its oracle (or solve_l1's with the
/// group solve's); nullopt when equal.
template <typename R, typename W>
std::optional<std::string> compare(const R& got, const W& want,
                                   const char* what, const char* table,
                                   bool nan_any = false) {
  std::ostringstream os;
  os << what << " on " << table << ": ";
  if (got.iterations != want.iterations) {
    os << "iterations " << got.iterations << " vs " << want.iterations;
    return os.str();
  }
  if (got.converged != want.converged) {
    os << "converged " << got.converged << " vs " << want.converged;
    return os.str();
  }
  if (!same_doubles(&got.kappa, &want.kappa, 1, nan_any)) {
    os << "kappa " << got.kappa << " vs " << want.kappa;
    return os.str();
  }
  if (got.objective.size() != want.objective.size() ||
      !same_doubles(got.objective.data(), want.objective.data(),
                    want.objective.size(), nan_any)) {
    os << "objective history differs";
    return os.str();
  }
  if (got.x.size() != want.x.size() ||
      !same_doubles(reinterpret_cast<const double*>(got.x.data()),
                    reinterpret_cast<const double*>(want.x.data()),
                    2 * static_cast<std::size_t>(want.x.size()), nan_any)) {
    os << "x differs";
    return os.str();
  }
  if (got.screen != want.screen) {
    os << "screen stats (full correlates, drift cleared, exact tested) "
       << got.screen.full_correlates << "/" << got.screen.drift_cleared << "/"
       << got.screen.exact_tested << " vs " << want.screen.full_correlates
       << "/" << want.screen.drift_cleared << "/" << want.screen.exact_tested;
    return os.str();
  }
  return std::nullopt;
}

/// The tables a case runs under: scalar always, simd when present.
std::vector<const be::Backend*> tables() {
  std::vector<const be::Backend*> out = {&be::scalar()};
  if (be::simd() != nullptr) out.push_back(be::simd());
  return out;
}

/// Restores the env/auto backend selection however the test exits.
struct ForceGuard {
  ~ForceGuard() { be::force(nullptr); }
};

/// The momentum identity against the direct path: the same iteration
/// count and kappa, x within 1e-6 and each objective within
/// 1e-6 (1 + |objective|); nullopt when they match.
std::optional<std::string> near_direct(const GroupSolveResult& got,
                                       const GroupSolveResult& direct,
                                       const char* table) {
  std::ostringstream os;
  os << "solve_group_l1 vs the direct path on " << table << ": ";
  if (got.iterations != direct.iterations || got.kappa != direct.kappa ||
      got.objective.size() != direct.objective.size()) {
    os << "iterations / kappa differ";
    return os.str();
  }
  for (index_t i = 0; i < direct.x.size(); ++i) {
    if (!(std::abs(got.x.data()[i] - direct.x.data()[i]) <= 1e-6)) {
      os << "x differs at " << i;
      return os.str();
    }
  }
  for (std::size_t i = 0; i < direct.objective.size(); ++i) {
    if (!(std::abs(got.objective[i] - direct.objective[i]) <=
          1e-6 * (1.0 + std::abs(direct.objective[i])))) {
      os << "objective differs at " << i;
      return os.str();
    }
  }
  return std::nullopt;
}

/// The single-column entry points against the group solve: solve_l1 on
/// y's first column equals solve_group_l1 on that column in every field,
/// and the CVec spectrum overload equals the CMat one on its x, byte for
/// byte (nan_any: see same_doubles); nullopt when they match.
std::optional<std::string> single_column_match(const LinearOperator& op,
                                               const CMat& y,
                                               const SolveConfig& cfg,
                                               const char* table,
                                               bool nan_any,
                                               const ThreadPool* pool) {
  const CVec y0 = y.col_vec(0);
  CMat y1(y.rows(), 1);
  y1.set_col(0, y0);
  const SolveResult got = solve_l1(op, y0, cfg);
  const GroupSolveResult want = solve_group_l1(op, y1, cfg, pool);
  if (auto err = compare(got, want, "solve_l1 vs solve_group_l1 at k = 1",
                         table, nan_any)) {
    return err;
  }
  const KroneckerOperator& kron = *op.kronecker();
  const roarray::dsp::Grid aoa(0.0, 1.0, kron.left().cols());
  const roarray::dsp::Grid toa(0.0, 1.0, kron.right().cols());
  const auto vec = roarray::core::coefficients_to_spectrum(got.x, aoa, toa);
  const auto mat = roarray::core::coefficients_to_spectrum(want.x, aoa, toa);
  if (!same_doubles(vec.values.data(), mat.values.data(),
                    static_cast<std::size_t>(mat.values.size()), nan_any)) {
    return std::string("coefficients_to_spectrum CVec vs CMat at k = 1 on ") +
           table;
  }
  return std::nullopt;
}

/// Runs the production solver against its oracle under every table, and
/// the single-column entry points against it; nullopt when all match
/// (nan_any: see same_doubles). direct also holds the solver to the
/// oracle's direct path within rounding. Adds the oracle's coverage to
/// `cov` and its converged runs to `converged`. A pool, when given, runs
/// the production group solves.
std::optional<std::string> solvers_match(const LinearOperator& op,
                                         const CMat& y, const SolveConfig& cfg,
                                         Coverage& cov, int& converged,
                                         bool nan_any = false,
                                         const ThreadPool* pool = nullptr,
                                         bool direct = false) {
  for (const be::Backend* table : tables()) {
    be::force(table);
    const GroupSolveResult want = oracle::solve_group_l1(op, y, cfg, cov);
    const GroupSolveResult got = solve_group_l1(op, y, cfg, pool);
    if (auto err =
            compare(got, want, "solve_group_l1", table->name, nan_any)) {
      return err;
    }
    if (direct) {
      Coverage unused;
      const GroupSolveResult want_direct =
          oracle::solve_group_l1(op, y, cfg, unused, /*reuse=*/false);
      if (auto err = near_direct(got, want_direct, table->name)) return err;
    }
    if (auto err =
            single_column_match(op, y, cfg, table->name, nan_any, pool)) {
      return err;
    }
    converged += want.converged ? 1 : 0;
  }
  return std::nullopt;
}

/// The operator a case solves on: the full Kronecker operator, or a
/// support restriction keeping every other AoA and ToA atom.
struct CaseOperator {
  KroneckerOperator full;
  std::optional<SupportOperator> sub;

  CaseOperator(const SolverCase& c, pt::Rng& rng)
      : full(pt::gen_cmat(c.m, c.nl, rng), pt::gen_cmat(c.l, c.nr, rng)) {
    if (!c.support) return;
    std::vector<index_t> ls, rs;
    for (index_t i = 0; i < c.nl; ++i) {
      if (i % 2 == 0 || i == c.nl - 1) ls.push_back(i);
    }
    for (index_t j = 0; j < c.nr; j += 2) rs.push_back(j);
    sub.emplace(full, ls, rs);
  }

  [[nodiscard]] const LinearOperator& op() const {
    return sub ? static_cast<const LinearOperator&>(*sub) : full;
  }
};

TEST(ProptestSolverIdentity, GroupAndL1SolversMatchTheFrozenOracleBitwise) {
  Coverage cov;
  int converged = 0;
  int support_cases = 0;
  ForceGuard guard;
  pt::CheckConfig cfg;
  cfg.cases = 40;
  pt::check<SolverCase>(
      "solve_group_l1 == frozen reference, solve_l1 == its k = 1 case, "
      "byte for byte",
      gen_solver_case(),
      [&](const SolverCase& c) -> std::optional<std::string> {
        pt::Rng rng(c.data_seed);
        const CaseOperator cop(c, rng);
        support_cases += c.support ? 1 : 0;
        const LinearOperator& op = cop.op();
        CMat y = make_rhs(op, c.k, rng);
        if (c.variant == Variant::kZeroRhs) y = CMat(op.rows(), c.k);
        return solvers_match(op, y, make_config(c), cov, converged, false,
                             nullptr, c.variant == Variant::kDirect);
      },
      {}, show_solver_case, cfg);
  // The generated cases must reach the paths the row-sparse passes and
  // the block screen could get wrong: single-column solves, monotone
  // restarts, early convergence, the support-restricted operator,
  // screened blocks, blocks that are zero where the step starts but fail
  // the bound, and the stale-reference screen's three outcomes. A
  // single-case replay cannot cover them all.
  if (!pt::replaying()) {
    EXPECT_GT(cov.single_column, 0);
    EXPECT_GT(cov.restarts, 0);
    EXPECT_GT(converged, 0);
    EXPECT_GT(support_cases, 0);
    EXPECT_GT(cov.screened, 0);
    EXPECT_GT(cov.dead_open, 0);
    EXPECT_GT(cov.drift_cleared, 0);
    EXPECT_GT(cov.exact_tested, 0);
    EXPECT_GT(cov.refreshes, 0);
  }
}

/// A case at the screen's edges. Unless non_finite, y is v_c times the
/// operator column of one AoA atom with the largest column norm, so
/// every ToA block meets the Cauchy-Schwarz bound with equality at that
/// atom (up to the rounding of y and bp). kappa then makes shrink^2
/// (1 + rel) times one side of a test of block `block` (mod N_r):
///   - by default, the exact test's inflated bound at the first
///     gradient, |rel| <= 1e-12, where the exact test's decision flips;
///   - at_row: that block's uninflated bound at the first gradient,
///     which the tight row's squared norm meets, |rel| <= 8 ulp, where
///     the prox's decision flips and a screen without enough slack
///     would zero a row the prox keeps;
///   - moved: the stale-reference bound at the second gradient, after
///     the first step has moved the residual, |rel| <= 1e-12, where the
///     drift bound's decision flips (the default placement when the
///     second gradient has no such test).
/// With non_finite, one entry of y is NaN or +/-inf, so the drift is
/// not finite and every gradient forms the full correlation; results
/// compare NaN for NaN. wide makes M k > kSmallRowLimit, where the
/// stale-reference bound is off; pool runs the production group solver
/// on a two-thread pool.
struct EdgeCase {
  SolverCase base;
  bool non_finite = false;
  bool at_row = false;
  bool moved = false;
  bool wide = false;
  bool pool = false;
  double rel = 0.0;
  index_t block = 0;
};

pt::Gen<EdgeCase> gen_edge_case() {
  return [](pt::Rng& rng) {
    EdgeCase e;
    e.base = gen_solver_case()(rng);
    // M = 9 runs the AoA product of the adjoint on the generic tile.
    if (std::uniform_int_distribution<int>(0, 5)(rng) == 0) e.base.m = 9;
    e.non_finite = std::uniform_int_distribution<int>(0, 4)(rng) == 0;
    const int place = std::uniform_int_distribution<int>(0, 2)(rng);
    e.at_row = place == 0;
    e.moved = place == 1;
    const int side = std::uniform_int_distribution<int>(0, 4)(rng);
    const double mag =
        e.at_row ? 0x1p-52 * std::uniform_int_distribution<int>(1, 8)(rng)
                 : std::uniform_real_distribution<double>(0.0, 1e-12)(rng);
    e.rel = side == 0 ? 0.0 : (side % 2 == 0 ? mag : -mag);
    e.block = std::uniform_int_distribution<index_t>(0, 12)(rng);
    e.wide = std::uniform_int_distribution<int>(0, 5)(rng) == 0;
    if (e.wide) {
      e.base.m = std::max<index_t>(e.base.m, 3);
      e.base.k = std::max(e.base.k, be::kSmallRowLimit / e.base.m + 1);
    }
    e.pool = std::uniform_int_distribution<int>(0, 3)(rng) == 0;
    return e;
  };
}

std::string show_edge_case(const EdgeCase& e) {
  std::ostringstream os;
  os << show_solver_case(e.base) << " non_finite=" << e.non_finite
     << " at_row=" << e.at_row << " moved=" << e.moved << " wide=" << e.wide
     << " pool=" << e.pool << " rel=" << e.rel << " block=" << e.block;
  return os.str();
}

/// The kappa that makes shrink^2 (1 + rel) times the stale side of block
/// jb's test at the group solver's second gradient, where the residual
/// r2 = S x1 - y has moved from the first gradient's reference
/// r1 = 0 - y. x1, and so the bound, depends on kappa; the bound is
/// continuous in it (soft thresholding is), so bisection on
/// shrink^2 - (1 + rel) bound finds the crossing. nullopt when the
/// bound is off or has no crossing to find.
std::optional<double> moved_kappa(const LinearOperator& op, const CMat& y,
                                  const SolveConfig& scfg, double step,
                                  index_t jb, double rel) {
  const index_t k = y.cols();
  CMat r1(op.rows(), k);
  r1 -= y;
  const std::vector<char> none(static_cast<std::size_t>(op.cols()), 0);
  // The stale side at the second gradient for shrink = sigma; NaN when
  // the bound is off there.
  const auto side = [&](double sigma) {
    ScreenModel model(op, k, step, sigma);
    if (!model.stale()) return std::numeric_limits<double>::quiet_NaN();
    Coverage unused;
    model.screen(r1.data(), none, unused);
    SolveConfig one = scfg;
    one.kappa = sigma / step;
    one.max_iterations = 1;
    const GroupSolveResult first = oracle::solve_group_l1(op, y, one, unused);
    CMat r2 = op.apply_mat(first.x);
    r2 -= y;
    return model.stale_side(r2.data(), jb);
  };
  // Above hi the first step keeps no row (x1 = 0, r2 = r1) and shrink^2
  // exceeds the bound; below lo it is under the reference term alone.
  const CMat g = op.apply_adjoint_mat(y);
  double row_max = 0.0;
  for (index_t i = 0; i < g.rows(); ++i) {
    double acc = 0.0;
    for (index_t c = 0; c < k; ++c) acc += std::norm(g(i, c));
    row_max = std::max(row_max, std::sqrt(acc));
  }
  double hi = step * row_max * (1.0 + 1e-6);
  const double at_hi = side(hi);
  if (!std::isfinite(at_hi)) return std::nullopt;
  hi = std::max(hi, std::sqrt(2.0 * at_hi));
  double lo = 0.5 * std::sqrt(at_hi);
  const auto below = [&](double sigma) {
    return sigma * sigma < (1.0 + rel) * side(sigma);
  };
  if (!(lo > 0.0) || !below(lo) || below(hi)) return std::nullopt;
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    (below(mid) ? lo : hi) = mid;
  }
  return hi / step;
}

TEST(ProptestSolverIdentity, ScreeningEdgeCasesMatchTheFrozenOracleBitwise) {
  Coverage cov;
  int converged = 0;
  int moved = 0;
  ForceGuard guard;
  const ThreadPool pool(2);
  pt::CheckConfig cfg;
  cfg.cases = 240;  // cheap cases; the prox edge needs many draws
  pt::check<EdgeCase>(
      "screened solvers == frozen reference at the bound's edges",
      gen_edge_case(),
      [&](const EdgeCase& e) -> std::optional<std::string> {
        const SolverCase& c = e.base;
        pt::Rng rng(c.data_seed);
        const CaseOperator cop(c, rng);
        const LinearOperator& op = cop.op();
        const KroneckerOperator& kron = *op.kronecker();
        const index_t nl = kron.left().cols();
        const index_t nr = kron.right().cols();

        // The first AoA atom with the largest column norm.
        index_t best = 0;
        double best_sq = -1.0;
        for (index_t a = 0; a < nl; ++a) {
          double acc = 0.0;
          for (index_t r = 0; r < kron.left().rows(); ++r) {
            acc += std::norm(kron.left()(r, a));
          }
          if (acc > best_sq) {
            best = a;
            best_sq = acc;
          }
        }
        CMat x(op.cols(), c.k);
        const index_t atom_block =
            std::uniform_int_distribution<index_t>(0, nr - 1)(rng);
        for (index_t j = 0; j < c.k; ++j) {
          x(atom_block * nl + best, j) = pt::gen_cxd(rng);
        }
        CMat y = op.apply_mat(x);

        SolveConfig scfg;
        scfg.max_iterations = 60;
        scfg.kappa_ratio = c.kappa_ratio;
        if (e.non_finite) {
          const double inf = std::numeric_limits<double>::infinity();
          const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                                inf, -inf};
          y(std::uniform_int_distribution<index_t>(0, op.rows() - 1)(rng),
            std::uniform_int_distribution<index_t>(0, c.k - 1)(rng)) =
              cxd{bad[rng() % 3], 0.0};
        } else {
          scfg.lipschitz_hint = operator_norm_sq(op);
          const double step = 1.0 / (scfg.lipschitz_hint * scfg.lipschitz_safety);
          const index_t jb = e.block % nr;
          const std::optional<double> at_moved =
              e.moved ? moved_kappa(op, y, scfg, step, jb, e.rel)
                      : std::nullopt;
          if (at_moved) {
            ++moved;
            scfg.kappa = *at_moved;
          } else {
            // The first gradient step starts from z = 0 with residual
            // 0 - y; place block jb's screening bound there.
            CMat r(op.rows(), c.k);
            r -= y;
            KroneckerOperator::Workspace ws;
            CMat bp;
            kron.toa_correlate(r.data(), c.k, nullptr, bp, ws, nullptr);
            double bj = 0.0;
            for (index_t i = 0; i < bp.rows(); ++i) bj += std::norm(bp(i, jb));
            const double inflate = e.at_row ? 1.0 : 1.0 + 1e-9;
            const double pad = e.at_row ? 0.0 : 0x1p-1000;
            const double bound = step * step * kron.left_col_norm_sq_max() *
                                 inflate * (bj + pad);
            scfg.kappa = std::sqrt(bound * (1.0 + e.rel)) / step;
          }
        }
        return solvers_match(op, y, scfg, cov, converged, e.non_finite,
                             e.pool ? &pool : nullptr);
      },
      {}, show_edge_case, cfg);
  if (!pt::replaying()) {
    EXPECT_GT(cov.single_column, 0);
    EXPECT_GT(cov.screened, 0);
    EXPECT_GT(cov.dead_open, 0);
    EXPECT_GT(cov.drift_cleared, 0);
    EXPECT_GT(cov.exact_tested, 0);
    EXPECT_GT(cov.refreshes, 0);
    EXPECT_GT(moved, 0);
  }
}

}  // namespace
