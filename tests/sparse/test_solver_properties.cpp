// Property-style tests on the l1 solvers: KKT/subgradient optimality,
// scaling invariances, and cross-solver agreement over parameter sweeps.
#include <gtest/gtest.h>

#include "dsp/steering.hpp"
#include "linalg/eig.hpp"
#include "sparse/fista.hpp"
#include "sparse/operator.hpp"
#include "support/admm.hpp"
#include "support/reference.hpp"
#include "../test_util.hpp"

namespace roarray::sparse {
namespace {

namespace rt = roarray::testing;

/// Verifies the subgradient optimality conditions of
/// min 1/2||y - Sx||^2 + kappa||x||_1 at x:
///   g = S^H (y - S x);  |g_i| <= kappa (+tol) for x_i = 0,
///   g_i ~= kappa * x_i / |x_i| for x_i != 0.
void expect_kkt(const KroneckerOperator& op, const CVec& y, const CVec& x,
                double kappa, double tol) {
  CVec r = op.apply(x);
  r *= cxd{-1.0, 0.0};
  r += y;
  const CVec g = op.apply_adjoint(r);
  for (index_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) > 1e-9) {
      const cxd dir = x[i] / std::abs(x[i]);
      EXPECT_NEAR(std::abs(g[i] - kappa * dir), 0.0, tol)
          << "active coordinate " << i;
    } else {
      EXPECT_LE(std::abs(g[i]), kappa + tol) << "inactive coordinate " << i;
    }
  }
}

class KktSweep : public ::testing::TestWithParam<double> {};

TEST_P(KktSweep, FistaSolutionSatisfiesOptimality) {
  const double kappa_ratio = GetParam();
  auto rng = rt::make_rng(static_cast<std::uint64_t>(kappa_ratio * 1000));
  const CMat s = rt::random_cmat(10, 40, rng);
  const KroneckerOperator op(s);
  const CVec y = rt::random_cvec(10, rng);
  SolveConfig cfg;
  cfg.kappa_ratio = kappa_ratio;
  cfg.max_iterations = 5000;
  cfg.tolerance = 1e-12;
  const SolveResult r = solve_l1(op, y, cfg);
  expect_kkt(op, y, r.x, r.kappa, 2e-3 * r.kappa);
}

INSTANTIATE_TEST_SUITE_P(KappaRatios, KktSweep,
                         ::testing::Values(0.05, 0.15, 0.3, 0.6, 0.9));

TEST(SolverProperties, SolutionScalesWithMeasurement) {
  // x*(alpha * y, alpha * kappa) = alpha * x*(y, kappa) for real alpha>0.
  auto rng = rt::make_rng(901);
  const CMat s = rt::random_cmat(8, 24, rng);
  const KroneckerOperator op(s);
  const CVec y = rt::random_cvec(8, rng);
  SolveConfig cfg;
  cfg.kappa = 0.2;
  cfg.max_iterations = 4000;
  cfg.tolerance = 1e-12;
  const SolveResult base = solve_l1(op, y, cfg);

  const double alpha = 3.5;
  CVec y2 = y;
  y2 *= cxd{alpha, 0.0};
  SolveConfig cfg2 = cfg;
  cfg2.kappa = 0.2 * alpha;
  const SolveResult scaled = solve_l1(op, y2, cfg2);
  CVec expect = base.x;
  expect *= cxd{alpha, 0.0};
  rt::expect_vec_near(scaled.x, expect, 1e-4 * alpha, "scaling invariance");
}

TEST(SolverProperties, GlobalPhaseEquivariance) {
  // Rotating y by a global phase rotates the solution identically
  // (complex soft-thresholding is phase-equivariant).
  auto rng = rt::make_rng(902);
  const CMat s = rt::random_cmat(8, 30, rng);
  const KroneckerOperator op(s);
  const CVec y = rt::random_cvec(8, rng);
  SolveConfig cfg;
  cfg.kappa = 0.3;
  cfg.max_iterations = 3000;
  cfg.tolerance = 1e-12;
  const SolveResult base = solve_l1(op, y, cfg);
  const cxd phase = std::polar(1.0, 1.234);
  CVec y_rot = y;
  y_rot *= phase;
  const SolveResult rotated = solve_l1(op, y_rot, cfg);
  CVec expect = base.x;
  expect *= phase;
  rt::expect_vec_near(rotated.x, expect, 1e-5, "phase equivariance");
}

TEST(SolverProperties, SparsityMonotoneInKappa) {
  auto rng = rt::make_rng(903);
  const CMat s = rt::random_cmat(10, 60, rng);
  const KroneckerOperator op(s);
  const CVec y = rt::random_cvec(10, rng);
  index_t prev_nnz = 61;
  for (double ratio : {0.05, 0.2, 0.5, 0.8}) {
    SolveConfig cfg;
    cfg.kappa_ratio = ratio;
    cfg.max_iterations = 2000;
    cfg.tolerance = 1e-10;
    const SolveResult r = solve_l1(op, y, cfg);
    index_t nnz = 0;
    for (index_t i = 0; i < r.x.size(); ++i) {
      if (std::abs(r.x[i]) > 1e-7) ++nnz;
    }
    EXPECT_LE(nnz, prev_nnz + 2) << "ratio " << ratio;  // small slack
    prev_nnz = nnz;
  }
}

class SolverAgreement : public ::testing::TestWithParam<double> {};

TEST_P(SolverAgreement, FistaAndAdmmReachSameObjective) {
  const double kappa = GetParam();
  auto rng = rt::make_rng(static_cast<std::uint64_t>(kappa * 100 + 7));
  const CMat s = rt::random_cmat(12, 36, rng);
  const KroneckerOperator op(s);
  const CVec y = rt::random_cvec(12, rng);

  SolveConfig fista_cfg;
  fista_cfg.kappa = kappa;
  fista_cfg.max_iterations = 4000;
  fista_cfg.tolerance = 1e-11;
  AdmmConfig admm_cfg;
  admm_cfg.kappa = kappa;
  admm_cfg.max_iterations = 4000;
  admm_cfg.tolerance = 1e-10;

  const double f_fista = l1_objective(op, y, solve_l1(op, y, fista_cfg).x, kappa);
  const double f_admm = l1_objective(op, y, solve_l1_admm(op, y, admm_cfg).x, kappa);
  const double scale = std::max(1.0, f_fista);
  EXPECT_NEAR(f_fista, f_admm, 1e-4 * scale);
}

INSTANTIATE_TEST_SUITE_P(Kappas, SolverAgreement,
                         ::testing::Values(0.05, 0.2, 0.5, 1.0));

TEST(SolverProperties, KroneckerAndDenseGiveSameSolution) {
  // The structured operator must be numerically interchangeable with the
  // materialized matrix (as a 1-D dictionary) inside the solver.
  dsp::ArrayConfig arr;
  arr.num_subcarriers = 10;
  const roarray::dsp::Grid aoa(0.0, 180.0, 19);
  const roarray::dsp::Grid toa(0.0, 700e-9, 6);
  const KroneckerOperator kop(roarray::dsp::steering_matrix_aoa(aoa, arr),
                              roarray::dsp::steering_matrix_toa(toa, arr));
  const KroneckerOperator dop(
      roarray::dsp::steering_matrix_joint(aoa, toa, arr));
  auto rng = rt::make_rng(904);
  const CVec y = rt::random_cvec(kop.rows(), rng);
  SolveConfig cfg;
  cfg.kappa_ratio = 0.2;
  cfg.max_iterations = 2000;
  cfg.tolerance = 1e-11;
  const SolveResult a = solve_l1(kop, y, cfg);
  const SolveResult b = solve_l1(dop, y, cfg);
  rt::expect_vec_near(a.x, b.x, 1e-5, "kron == dense");
}

TEST(SolverProperties, AdmmRhoInsensitivity) {
  // Different rho values converge to the same minimizer.
  auto rng = rt::make_rng(905);
  const CMat s = rt::random_cmat(10, 30, rng);
  const KroneckerOperator op(s);
  const CVec y = rt::random_cvec(10, rng);
  CVec ref;
  for (double rho : {0.3, 1.0, 4.0}) {
    AdmmConfig cfg;
    cfg.kappa = 0.25;
    cfg.rho = rho;
    cfg.max_iterations = 5000;
    cfg.tolerance = 1e-11;
    const SolveResult r = solve_l1_admm(op, y, cfg);
    if (ref.size() == 0) {
      ref = r.x;
    } else {
      rt::expect_vec_near(r.x, ref, 2e-4, "rho insensitivity");
    }
  }
}

}  // namespace
}  // namespace roarray::sparse
