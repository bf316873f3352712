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
// solver's own arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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

/// Also counts monotone restarts, so the property can check that the
/// generated cases exercise that path.
SolveResult solve_l1(const LinearOperator& op, const CVec& y,
                     const SolveConfig& cfg, int& restarts) {
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
    CVec grad = op.apply_adjoint(residual);

    gradient_step(z.data(), grad.data(), step, x_new.data(), n);
    soft_threshold_inplace(x_new, shrink);
    sx_new = op.apply(x_new);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m) + out.kappa * norm1(x_new);

    if (accelerated && obj > prev_obj) {
      ++restarts;
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
                                const SolveConfig& cfg, int& restarts) {
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
    op.apply_adjoint_mat_into(residual, grad, nullptr);

    double l21 = prox_gradient_step(z, grad);
    op.apply_mat_into(x_new, sx_new, nullptr);
    double obj =
        half_residual_sq(sx_new.data(), y.data(), m * k) + out.kappa * l21;

    if (accelerated && obj > prev_obj) {
      ++restarts;
      if (reuse) {
        residual = sx;
      } else {
        op.apply_mat_into(x, residual, nullptr);
      }
      residual -= y;
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

template <typename T>
bool same_bytes(const T* a, const T* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(T)) == 0;
}

/// Compares a production result with its oracle; nullopt when equal.
template <typename R>
std::optional<std::string> compare(const R& got, const R& want,
                                   const char* what, const char* table) {
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
  if (!same_bytes(&got.kappa, &want.kappa, 1)) {
    os << "kappa " << got.kappa << " vs " << want.kappa;
    return os.str();
  }
  if (got.objective.size() != want.objective.size() ||
      !same_bytes(got.objective.data(), want.objective.data(),
                  want.objective.size())) {
    os << "objective history differs";
    return os.str();
  }
  if (got.x.size() != want.x.size() ||
      !same_bytes(got.x.data(), want.x.data(),
                  static_cast<std::size_t>(want.x.size()))) {
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

TEST(ProptestSolverIdentity, GroupAndL1SolversMatchTheFrozenOracleBitwise) {
  int restarts = 0;
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
        const KroneckerOperator full(pt::gen_cmat(c.m, c.nl, rng),
                                     pt::gen_cmat(c.l, c.nr, rng));
        std::optional<SupportOperator> sub;
        if (c.support) {
          std::vector<index_t> ls, rs;
          for (index_t i = 0; i < c.nl; ++i) {
            if (i % 2 == 0 || i == c.nl - 1) ls.push_back(i);
          }
          for (index_t j = 0; j < c.nr; j += 2) rs.push_back(j);
          sub.emplace(full, ls, rs);
          ++support_cases;
        }
        const LinearOperator& op =
            c.support ? static_cast<const LinearOperator&>(*sub) : full;
        CMat y = make_rhs(op, c.k, rng);
        if (c.variant == Variant::kZeroRhs) y = CMat(op.rows(), c.k);
        const SolveConfig scfg = make_config(c);

        for (const be::Backend* table : tables()) {
          be::force(table);
          int oracle_restarts = 0;
          const GroupSolveResult want =
              oracle::solve_group_l1(op, y, scfg, oracle_restarts);
          const GroupSolveResult got = solve_group_l1(op, y, scfg);
          if (auto err = compare(got, want, "solve_group_l1", table->name)) {
            return err;
          }
          const CVec y0 = y.col_vec(0);
          const SolveResult want1 =
              oracle::solve_l1(op, y0, scfg, oracle_restarts);
          const SolveResult got1 = solve_l1(op, y0, scfg);
          if (auto err = compare(got1, want1, "solve_l1", table->name)) {
            return err;
          }
          restarts += oracle_restarts;
          converged += (want.converged ? 1 : 0) + (want1.converged ? 1 : 0);
        }
        return std::nullopt;
      },
      {}, show_solver_case, cfg);
  // The generated cases must reach the paths the row-sparse passes
  // could get wrong: monotone restarts, early convergence, and the
  // support-restricted operator.
  EXPECT_GT(restarts, 0);
  EXPECT_GT(converged, 0);
  EXPECT_GT(support_cases, 0);
}

}  // namespace
