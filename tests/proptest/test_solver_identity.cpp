// Bit-identity of the FISTA solvers against a frozen reference copy.
//
// The oracles below are the proximal-gradient loops of solve_l1 and
// solve_group_l1 as they stood before the row-sparse prox / momentum
// passes: a dense gradient step written in full, a sqrt for every row's
// zero test, the backend row_scale pass, and a momentum pass over every
// element. The production solvers must reproduce them exactly — the
// bytes of x and of the objective history, the iteration count and the
// convergence flag — on random Kronecker and support-restricted
// problems, under the scalar table and (when present) the simd table.
// Operator applications, soft-thresholding and row scaling go through
// the same backend table in both, so any difference is a change in the
// solver's own arithmetic. The oracles form every gradient in full; the
// production solvers screen ToA blocks the Cauchy-Schwarz bound proves
// zero, so the second property builds cases that put a block's bound
// right at shrink^2 or poison the data with NaN / inf.
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

#include "generators.hpp"
#include "linalg/backend/backend.hpp"
#include "proptest.hpp"
#include "sparse/fista.hpp"
#include "sparse/operator.hpp"
#include "sparse/power.hpp"
#include "sparse/prox.hpp"

namespace pt = roarray::proptest;
namespace be = roarray::linalg::backend;
using roarray::linalg::CMat;
using roarray::linalg::CVec;
using roarray::linalg::cxd;
using roarray::linalg::index_t;
using namespace roarray::sparse;

namespace {

// ---------------------------------------------------------------------------
// Frozen reference solvers.

/// What the generated cases exercised, counted in the oracle loops.
struct Coverage {
  int restarts = 0;   ///< monotone restarts.
  int screened = 0;   ///< gradient blocks the screen's bound proves zero.
  int dead_open = 0;  ///< blocks zero at the step's start whose bound fails.
};

/// The production screen's test (sparse/fista.cpp, BlockScreen), applied
/// to the oracle's gradient step from `from` with residual r (k
/// columns): for each ToA block that is zero in every column of from,
/// counts whether step^2 Lmax^2 (1 + 1e-9) (B_j + 2^-1000) < shrink^2.
void count_screen(const LinearOperator& op, const cxd* r, index_t k,
                  const cxd* from, double step, double shrink,
                  Coverage& cov) {
  const KroneckerOperator* kron = op.kronecker();
  if (kron == nullptr) return;
  const index_t nl = kron->left().cols();
  const index_t nr = kron->right().cols();
  const index_t n = op.cols();
  KroneckerOperator::Workspace ws;
  CMat bp;
  kron->toa_correlate(r, k, bp, ws, nullptr);
  const double coef =
      step * step * kron->left_col_norm_sq_max() * (1.0 + 1e-9);
  for (index_t j = 0; j < nr; ++j) {
    bool dead = true;
    for (index_t c = 0; c < k; ++c) {
      for (index_t a = 0; a < nl; ++a) {
        dead = dead && from[c * n + j * nl + a] == cxd{};
      }
    }
    if (!dead) continue;
    double bj = 0.0;
    for (index_t i = 0; i < bp.rows(); ++i) bj += std::norm(bp(i, j));
    if (coef * (bj + 0x1p-1000) < shrink * shrink) {
      ++cov.screened;
    } else {
      ++cov.dead_open;
    }
  }
}

namespace oracle {

double resolve_kappa(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg) {
  if (cfg.kappa > 0.0) return cfg.kappa;
  return cfg.kappa_ratio * kappa_max(op, y);
}

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

void gradient_step(const cxd* from, const cxd* grad, double step, cxd* x_new,
                   index_t count) {
  const double* fd = reinterpret_cast<const double*>(from);
  const double* gd = reinterpret_cast<const double*>(grad);
  double* xd = reinterpret_cast<double*>(x_new);
  for (index_t i = 0; i < 2 * count; ++i) {
    xd[i] = fd[i] - step * gd[i];
  }
}

/// Both oracles also count monotone restarts and the screen's decisions
/// (Coverage), so the properties can check that the generated cases
/// exercise those paths.
SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg, Coverage& cov) {
  SolveResult out;
  out.kappa = resolve_kappa(op, y, cfg);
  const double step = resolve_step(op, cfg);
  const double shrink = step * out.kappa;
  const bool accelerated = cfg.algorithm == Algorithm::kFista;
  const bool reuse = cfg.reuse_applies;

  const index_t n = op.cols();
  const index_t m = op.rows();
  CVec x(n);
  CVec z(n);
  CVec x_new(n);
  CVec sx(m);
  CVec sz(m);
  CVec sx_new(m);
  CVec residual(m);
  double t = 1.0;
  double prev_obj = half_residual_sq(sx.data(), y.data(), m);

  for (int it = 1; it <= cfg.max_iterations; ++it) {
    residual = reuse ? sz : op.apply(z);
    residual -= y;
    count_screen(op, residual.data(), 1, z.data(), step, shrink, cov);
    CVec grad = op.apply_adjoint(residual);

    gradient_step(z.data(), grad.data(), step, x_new.data(), n);
    soft_threshold_inplace(x_new, shrink);
    sx_new = op.apply(x_new);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m) + out.kappa * norm1(x_new);

    if (accelerated && obj > prev_obj) {
      ++cov.restarts;
      residual = reuse ? sx : op.apply(x);
      residual -= y;
      count_screen(op, residual.data(), 1, x.data(), step, shrink, cov);
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
    momentum_update(x_new.data(), x.data(), beta, z.data(), n, diff_sq, new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    if (reuse) extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m);

    prev_obj = obj;
    std::swap(x, x_new);
    std::swap(sx, sx_new);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(x);
  return out;
}

GroupSolveResult solve_group_l1(const LinearOperator& op, const CMat& y,
                                const SolveConfig& cfg, Coverage& cov) {
  GroupSolveResult out;
  const index_t n = op.cols();
  const index_t k = y.cols();
  const index_t m = op.rows();

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
  const bool accelerated = cfg.algorithm == Algorithm::kFista;
  const bool reuse = cfg.reuse_applies;

  CMat x(n, k);
  CMat z(n, k);
  CMat x_new(n, k);
  CMat grad(n, k);
  CMat sx(m, k);
  CMat sz(m, k);
  CMat sx_new(m, k);
  CMat residual(m, k);
  std::vector<double> row_scale(static_cast<std::size_t>(n));
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
    count_screen(op, residual.data(), k, z.data(), step, shrink, cov);
    op.apply_adjoint_mat_into(residual, grad, nullptr);

    double l21 = prox_gradient_step(z, grad);
    op.apply_mat_into(x_new, sx_new, nullptr);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;

    if (accelerated && obj > prev_obj) {
      ++cov.restarts;
      if (reuse) {
        residual = sx;
      } else {
        op.apply_mat_into(x, residual, nullptr);
      }
      residual -= y;
      count_screen(op, residual.data(), k, x.data(), step, shrink, cov);
      op.apply_adjoint_mat_into(residual, grad, nullptr);
      l21 = prox_gradient_step(x, grad);
      op.apply_mat_into(x_new, sx_new, nullptr);
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
    momentum_update(x_new.data(), x.data(), beta, z.data(), n * k, diff_sq,
                    new_sq);
    const double rel_change =
        std::sqrt(diff_sq) / std::max(1.0, std::sqrt(new_sq));
    if (reuse) extrapolate(sx_new.data(), sx.data(), beta, sz.data(), m * k);

    prev_obj = obj;
    std::swap(x, x_new);
    std::swap(sx, sx_new);
    if (rel_change < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.x = std::move(x);
  return out;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Cases.

/// Solver settings a case exercises.
enum class Variant {
  kAutoKappa,     ///< defaults: auto kappa, FISTA, apply reuse.
  kExplicit,      ///< explicit kappa.
  kNoReuse,       ///< reuse_applies = false (direct 3-apply path).
  kZeroRhs,       ///< y = 0 (kappa 0: nothing shrinks but zero rows).
  kConverging,    ///< loose tolerance: stops before the cap.
  kIsta,          ///< plain proximal gradient (beta = 0).
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
    c.nr = std::uniform_int_distribution<index_t>(3, 13)(rng);
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
    case Variant::kNoReuse: cfg.reuse_applies = false; break;
    case Variant::kConverging: cfg.tolerance = 2e-3; break;
    case Variant::kIsta: cfg.algorithm = Algorithm::kIsta; break;
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

/// Compares a production result with its oracle; nullopt when equal.
template <typename R>
std::optional<std::string> compare(const R& got, const R& want,
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

/// Runs both production solvers against their oracles under every
/// table; nullopt when all match (nan_any: see same_doubles). Adds the
/// oracles' coverage to `cov` and their converged runs to `converged`.
std::optional<std::string> solvers_match(const LinearOperator& op,
                                         const CMat& y, const SolveConfig& cfg,
                                         Coverage& cov, int& converged,
                                         bool nan_any = false) {
  for (const be::Backend* table : tables()) {
    be::force(table);
    const GroupSolveResult want = oracle::solve_group_l1(op, y, cfg, cov);
    const GroupSolveResult got = solve_group_l1(op, y, cfg);
    if (auto err =
            compare(got, want, "solve_group_l1", table->name, nan_any)) {
      return err;
    }
    const CVec y0 = y.col_vec(0);
    const SolveResult want1 = oracle::solve_l1(op, y0, cfg, cov);
    const SolveResult got1 = solve_l1(op, y0, cfg);
    if (auto err = compare(got1, want1, "solve_l1", table->name, nan_any)) {
      return err;
    }
    converged += (want.converged ? 1 : 0) + (want1.converged ? 1 : 0);
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
      "solve_group_l1 / solve_l1 == frozen reference, byte for byte",
      gen_solver_case(),
      [&](const SolverCase& c) -> std::optional<std::string> {
        pt::Rng rng(c.data_seed);
        const CaseOperator cop(c, rng);
        support_cases += c.support ? 1 : 0;
        const LinearOperator& op = cop.op();
        CMat y = make_rhs(op, c.k, rng);
        if (c.variant == Variant::kZeroRhs) y = CMat(op.rows(), c.k);
        return solvers_match(op, y, make_config(c), cov, converged);
      },
      {}, show_solver_case, cfg);
  // The generated cases must reach the paths the row-sparse passes and
  // the block screen could get wrong: monotone restarts, early
  // convergence, the support-restricted operator, screened blocks, and
  // blocks that are zero where the step starts but fail the bound. A
  // single-case replay cannot cover them all.
  if (!pt::replaying()) {
    EXPECT_GT(cov.restarts, 0);
    EXPECT_GT(converged, 0);
    EXPECT_GT(support_cases, 0);
    EXPECT_GT(cov.screened, 0);
    EXPECT_GT(cov.dead_open, 0);
  }
}

/// A case at the screen's edges. Unless non_finite, y is v_c times the
/// operator column of one AoA atom with the largest column norm, so
/// every ToA block meets the Cauchy-Schwarz bound with equality at that
/// atom (up to the rounding of y and bp). kappa then makes shrink^2 at
/// the first gradient step (1 + rel) times either the screen's inflated
/// bound of block `block` (mod N_r), |rel| <= 1e-12, where the screen's
/// decision flips; or (at_row) that block's uninflated bound, which the
/// tight row's squared norm meets, |rel| <= 8 ulp, where the prox's
/// decision flips and a screen without enough slack would zero a row
/// the prox keeps. With non_finite, one entry of y is NaN or +/-inf,
/// and results compare NaN for NaN.
struct EdgeCase {
  SolverCase base;
  bool non_finite = false;
  bool at_row = false;
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
    e.at_row = std::uniform_int_distribution<int>(0, 1)(rng) == 0;
    const int side = std::uniform_int_distribution<int>(0, 4)(rng);
    const double mag =
        e.at_row ? 0x1p-52 * std::uniform_int_distribution<int>(1, 8)(rng)
                 : std::uniform_real_distribution<double>(0.0, 1e-12)(rng);
    e.rel = side == 0 ? 0.0 : (side % 2 == 0 ? mag : -mag);
    e.block = std::uniform_int_distribution<index_t>(0, 12)(rng);
    return e;
  };
}

std::string show_edge_case(const EdgeCase& e) {
  std::ostringstream os;
  os << show_solver_case(e.base) << " non_finite=" << e.non_finite
     << " at_row=" << e.at_row << " rel=" << e.rel << " block=" << e.block;
  return os.str();
}

TEST(ProptestSolverIdentity, ScreeningEdgeCasesMatchTheFrozenOracleBitwise) {
  Coverage cov;
  int converged = 0;
  ForceGuard guard;
  pt::CheckConfig cfg;
  cfg.cases = 160;  // cheap cases; the prox edge needs many draws
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
          // The first gradient step starts from z = 0 with residual
          // 0 - y; place block e.block's screening bound there.
          scfg.lipschitz_hint = operator_norm_sq(op);
          const double step = 1.0 / (scfg.lipschitz_hint * scfg.lipschitz_safety);
          CMat r(op.rows(), c.k);
          r -= y;
          KroneckerOperator::Workspace ws;
          CMat bp;
          kron.toa_correlate(r.data(), c.k, bp, ws, nullptr);
          const index_t jb = e.block % nr;
          double bj = 0.0;
          for (index_t i = 0; i < bp.rows(); ++i) bj += std::norm(bp(i, jb));
          const double inflate = e.at_row ? 1.0 : 1.0 + 1e-9;
          const double pad = e.at_row ? 0.0 : 0x1p-1000;
          const double bound = step * step * kron.left_col_norm_sq_max() *
                               inflate * (bj + pad);
          scfg.kappa = std::sqrt(bound * (1.0 + e.rel)) / step;
        }
        return solvers_match(op, y, scfg, cov, converged, e.non_finite);
      },
      {}, show_edge_case, cfg);
  if (!pt::replaying()) {
    EXPECT_GT(cov.screened, 0);
    EXPECT_GT(cov.dead_open, 0);
  }
}

}  // namespace
