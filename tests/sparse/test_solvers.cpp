#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dsp/grid.hpp"
#include "dsp/steering.hpp"
#include "linalg/eig.hpp"
#include "sparse/admm.hpp"
#include "sparse/fista.hpp"
#include "sparse/power.hpp"
#include "../test_util.hpp"

namespace roarray::sparse {
namespace {

namespace rt = roarray::testing;

TEST(PowerMethod, MatchesLargestEigenvalueOfGram) {
  auto rng = rt::make_rng(81);
  const CMat s = rt::random_cmat(6, 20, rng);
  const DenseOperator op(s);
  const double lam = operator_norm_sq(op, 200);
  // Reference: largest eigenvalue of S S^H.
  const auto eg = linalg::eig_hermitian(matmul(s, adjoint(s)));
  EXPECT_NEAR(lam, eg.eigenvalues[5], 1e-6 * eg.eigenvalues[5]);
}

TEST(PowerMethod, ZeroOperator) {
  const DenseOperator op(CMat(4, 4));
  EXPECT_DOUBLE_EQ(operator_norm_sq(op), 0.0);
}

TEST(PowerMethod, NonPositiveIterationsThrow) {
  const DenseOperator op(CMat(4, 4));
  EXPECT_THROW(operator_norm_sq(op, 0), std::invalid_argument);
  EXPECT_THROW(operator_norm_sq(op, -5), std::invalid_argument);
}

TEST(PowerMethod, DefaultEstimateTightForKroneckerSteeringOperator) {
  // The default iteration budget must land within a few percent of the
  // true largest eigenvalue of S S^H for a (small) joint steering
  // operator — this is the Lipschitz constant every proximal solve
  // steps against.
  dsp::ArrayConfig arr;
  arr.num_subcarriers = 8;
  const dsp::Grid aoa(0.0, 180.0, 13);
  const dsp::Grid toa(0.0, 784e-9, 7);
  const KroneckerOperator op(dsp::steering_matrix_aoa(aoa, arr),
                             dsp::steering_matrix_toa(toa, arr));
  const double lam = operator_norm_sq(op);
  const CMat s = dsp::steering_matrix_joint(aoa, toa, arr);
  const auto eg = linalg::eig_hermitian(matmul(s, adjoint(s)));
  const double ref = eg.eigenvalues[s.rows() - 1];
  ASSERT_GT(ref, 0.0);
  EXPECT_NEAR(lam, ref, 0.03 * ref);
}

TEST(PowerMethod, KroneckerNormIsTheFactorProductAndExactAtThePaperGrid) {
  // ||R (x) L||^2 = ||L||^2 ||R||^2: a Kronecker operator's constant is
  // the product of its factors' power iterations, bit for bit, and at
  // the paper's grids (Eq. 16) it matches the eigendecomposition of the
  // joint S S^H to rounding.
  const dsp::ArrayConfig arr;
  const dsp::Grid aoa = dsp::default_aoa_grid();
  const dsp::Grid toa = dsp::default_toa_grid();
  const KroneckerOperator op(dsp::steering_matrix_aoa(aoa, arr),
                             dsp::steering_matrix_toa(toa, arr));
  const double lam = operator_norm_sq(op);
  EXPECT_EQ(lam, operator_norm_sq(DenseOperator(op.left())) *
                     operator_norm_sq(DenseOperator(op.right())));
  const CMat s = dsp::steering_matrix_joint(aoa, toa, arr);
  const auto eg = linalg::eig_hermitian(matmul(s, adjoint(s)));
  const double ref = eg.eigenvalues[s.rows() - 1];
  ASSERT_GT(ref, 0.0);
  EXPECT_NEAR(lam, ref, 1e-12 * ref);
}

TEST(KappaMax, GivesZeroSolution) {
  auto rng = rt::make_rng(82);
  const CMat s = rt::random_cmat(8, 30, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(8, rng);
  SolveConfig cfg;
  cfg.kappa = kappa_max(op, y) * 1.001;
  const SolveResult r = solve_l1(op, y, cfg);
  EXPECT_NEAR(norm2(r.x), 0.0, 1e-9);
}

TEST(Fista, RecoversSparseVectorInNoiselessOvercompleteSystem) {
  // 8 x 40 random dictionary, 3-sparse ground truth, tiny kappa.
  auto rng = rt::make_rng(83);
  const CMat s = rt::random_cmat(8, 40, rng);
  const DenseOperator op(s);
  CVec x_true(40);
  x_true[5] = cxd{2.0, 1.0};
  x_true[17] = cxd{-1.5, 0.5};
  x_true[33] = cxd{0.0, 2.5};
  const CVec y = op.apply(x_true);
  SolveConfig cfg;
  cfg.kappa_ratio = 0.01;
  cfg.max_iterations = 2000;
  cfg.tolerance = 1e-10;
  const SolveResult r = solve_l1(op, y, cfg);
  // Support recovery: the three true entries dominate.
  for (index_t i : {5, 17, 33}) {
    EXPECT_GT(std::abs(r.x[i]), 0.5 * std::abs(x_true[i])) << "support " << i;
  }
  double off_support = 0.0;
  for (index_t i = 0; i < 40; ++i) {
    if (i == 5 || i == 17 || i == 33) continue;
    off_support = std::max(off_support, std::abs(r.x[i]));
  }
  EXPECT_LT(off_support, 0.25);
}

TEST(Fista, ObjectiveDecreasesOverall) {
  auto rng = rt::make_rng(84);
  const CMat s = rt::random_cmat(10, 50, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(10, rng);
  SolveConfig cfg;
  cfg.max_iterations = 150;
  const SolveResult r = solve_l1(op, y, cfg);
  ASSERT_GE(r.objective.size(), 10u);
  // With function restart the objective is monotone non-increasing.
  for (std::size_t i = 1; i < r.objective.size(); ++i) {
    EXPECT_LE(r.objective[i], r.objective[i - 1] + 1e-9);
  }
}

TEST(Fista, CallbackSeesEveryIteration) {
  auto rng = rt::make_rng(86);
  const CMat s = rt::random_cmat(6, 20, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(6, rng);
  SolveConfig cfg;
  cfg.max_iterations = 37;
  cfg.tolerance = 0.0;  // never converge early
  int count = 0;
  CMat ym(6, 1);
  ym.set_col(0, y);
  const GroupSolveResult r =
      solve_group_l1(op, ym, cfg, [&](int it, const CMat& x) {
        ++count;
        EXPECT_EQ(it, count);
        EXPECT_EQ(x.rows(), 20);
        EXPECT_EQ(x.cols(), 1);
      });
  EXPECT_EQ(count, 37);
  EXPECT_EQ(r.iterations, 37);
}

TEST(Fista, InvalidInputsThrow) {
  const DenseOperator op(CMat(4, 8, cxd{1.0, 0.0}));
  EXPECT_THROW(solve_l1(op, CVec(5)), std::invalid_argument);
  SolveConfig cfg;
  cfg.max_iterations = 0;
  EXPECT_THROW(solve_l1(op, CVec(4), cfg), std::invalid_argument);
}

TEST(Admm, MatchesFistaSolution) {
  auto rng = rt::make_rng(87);
  const CMat s = rt::random_cmat(10, 40, rng);
  const DenseOperator op(s);
  CVec x_true(40);
  x_true[3] = cxd{1.5, -0.5};
  x_true[28] = cxd{-1.0, 1.0};
  CVec y = op.apply(x_true);
  const CVec noise = rt::random_cvec(10, rng);
  axpy(cxd{0.01, 0.0}, noise, y);

  SolveConfig fcfg;
  fcfg.kappa = 0.05;
  fcfg.max_iterations = 3000;
  fcfg.tolerance = 1e-10;
  AdmmConfig acfg;
  acfg.kappa = 0.05;
  acfg.max_iterations = 3000;
  acfg.tolerance = 1e-10;
  const SolveResult rf = solve_l1(op, y, fcfg);
  const SolveResult ra = solve_l1_admm(op, y, acfg);
  // Same convex objective: solutions must agree closely.
  EXPECT_NEAR(l1_objective(op, y, ra.x, 0.05), l1_objective(op, y, rf.x, 0.05),
              1e-5);
  CVec diff = ra.x;
  diff -= rf.x;
  EXPECT_LT(norm2(diff), 5e-3 * std::max(1.0, norm2(rf.x)));
}

TEST(Admm, ProducesExactlySparseIterate) {
  auto rng = rt::make_rng(88);
  const CMat s = rt::random_cmat(8, 60, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(8, rng);
  AdmmConfig cfg;
  cfg.kappa_ratio = 0.3;
  const SolveResult r = solve_l1_admm(op, y, cfg);
  index_t zeros = 0;
  for (index_t i = 0; i < 60; ++i) {
    if (r.x[i] == cxd{}) ++zeros;
  }
  EXPECT_GT(zeros, 30);  // strongly regularized: mostly exact zeros
}

TEST(Admm, InvalidConfigThrows) {
  const DenseOperator op(CMat(4, 8, cxd{1.0, 0.0}));
  AdmmConfig cfg;
  cfg.rho = 0.0;
  EXPECT_THROW(solve_l1_admm(op, CVec(4), cfg), std::invalid_argument);
  cfg = AdmmConfig{};
  EXPECT_THROW(solve_l1_admm(op, CVec(3), cfg), std::invalid_argument);
}

TEST(GroupSolver, RecoversRowSparseSupport) {
  auto rng = rt::make_rng(89);
  const CMat s = rt::random_cmat(8, 30, rng);
  const DenseOperator op(s);
  CMat x_true(30, 4);
  for (index_t k = 0; k < 4; ++k) {
    x_true(6, k) = cxd{1.0 + 0.2 * static_cast<double>(k), 0.5};
    x_true(21, k) = cxd{-0.8, 0.3 * static_cast<double>(k)};
  }
  const CMat y = op.apply_mat(x_true);
  SolveConfig cfg;
  cfg.kappa_ratio = 0.05;
  cfg.max_iterations = 1500;
  cfg.tolerance = 1e-9;
  const GroupSolveResult r = solve_group_l1(op, y, cfg);
  auto row_norm = [&](index_t i) {
    double acc = 0.0;
    for (index_t k = 0; k < 4; ++k) acc += std::norm(r.x(i, k));
    return std::sqrt(acc);
  };
  EXPECT_GT(row_norm(6), 0.8);
  EXPECT_GT(row_norm(21), 0.6);
  for (index_t i = 0; i < 30; ++i) {
    if (i == 6 || i == 21) continue;
    EXPECT_LT(row_norm(i), 0.3) << "row " << i;
  }
}

TEST(GroupSolver, SingleColumnMatchesVectorSolver) {
  auto rng = rt::make_rng(90);
  const CMat s = rt::random_cmat(8, 24, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(8, rng);
  SolveConfig cfg;
  cfg.kappa = 0.1;
  cfg.max_iterations = 2000;
  cfg.tolerance = 1e-10;
  const SolveResult rv = solve_l1(op, y, cfg);
  CMat ym(8, 1);
  ym.set_col(0, y);
  const GroupSolveResult rg = solve_group_l1(op, ym, cfg);
  // solve_l1 is the group solve on one column: the same iterates.
  EXPECT_EQ(rv.iterations, rg.iterations);
  EXPECT_EQ(rv.objective, rg.objective);
  for (index_t i = 0; i < 24; ++i) EXPECT_EQ(rv.x[i], rg.x(i, 0)) << i;
}

TEST(GroupSolver, InvalidInputsThrow) {
  const DenseOperator op(CMat(4, 8, cxd{1.0, 0.0}));
  EXPECT_THROW(solve_group_l1(op, CMat(5, 2)), std::invalid_argument);
  EXPECT_THROW(solve_group_l1(op, CMat(4, 0)), std::invalid_argument);
}

// Sparse recovery on the actual joint steering operator: plant two
// paths on grid points, recover them across SNR levels.
class SteeringRecovery : public ::testing::TestWithParam<double> {};

TEST_P(SteeringRecovery, TwoPathsRecoveredAtVaryingSnr) {
  const double snr_db = GetParam();
  dsp::ArrayConfig cfg;
  const dsp::Grid aoa(0.0, 180.0, 46);   // 4-degree grid
  const dsp::Grid toa(0.0, 700e-9, 15);  // 50 ns grid
  const KroneckerOperator op(dsp::steering_matrix_aoa(aoa, cfg),
                             dsp::steering_matrix_toa(toa, cfg));
  // Ground truth on grid points (10, 3) and (30, 7).
  CVec x_true(op.cols());
  x_true[3 * 46 + 10] = cxd{1.0, 0.3};
  x_true[7 * 46 + 30] = cxd{0.5, -0.4};
  CVec y = op.apply(x_true);
  auto rng = rt::make_rng(static_cast<std::uint64_t>(snr_db * 10 + 1000));
  const double sig_power = norm2_sq(y) / static_cast<double>(y.size());
  const double sigma = std::sqrt(sig_power / std::pow(10.0, snr_db / 10.0) / 2.0);
  std::normal_distribution<double> n(0.0, sigma);
  for (index_t i = 0; i < y.size(); ++i) y[i] += cxd{n(rng), n(rng)};

  SolveConfig scfg;
  scfg.kappa_ratio = 0.15;
  scfg.max_iterations = 600;
  const SolveResult r = solve_l1(op, y, scfg);
  // Find the two largest coefficients; they must sit on (or next to)
  // the planted grid points.
  index_t best = 0, second = 0;
  double best_v = 0.0, second_v = 0.0;
  for (index_t i = 0; i < r.x.size(); ++i) {
    const double v = std::abs(r.x[i]);
    if (v > best_v) {
      second = best;
      second_v = best_v;
      best = i;
      best_v = v;
    } else if (v > second_v) {
      second = i;
      second_v = v;
    }
  }
  auto near_truth = [&](index_t idx) {
    const index_t i = idx % 46, j = idx / 46;
    const bool near_a = std::abs(i - 10) <= 1 && std::abs(j - 3) <= 1;
    const bool near_b = std::abs(i - 30) <= 1 && std::abs(j - 7) <= 1;
    return near_a || near_b;
  };
  EXPECT_TRUE(near_truth(best)) << "best at " << best;
  EXPECT_TRUE(near_truth(second)) << "second at " << second;
}

INSTANTIATE_TEST_SUITE_P(SnrSweep, SteeringRecovery,
                         ::testing::Values(30.0, 20.0, 10.0, 5.0));

// The block screen's counters on the joint steering operator: the
// stale-reference bound decides most blocks, M k above kSmallRowLimit
// forms every correlation in full, and an operator without Kronecker
// structure counts nothing.
TEST(ScreenStats, CountTheScreenDecisionsOfASteeringSolve) {
  dsp::ArrayConfig cfg;
  const dsp::Grid aoa(0.0, 180.0, 46);
  const dsp::Grid toa(0.0, 700e-9, 15);
  const KroneckerOperator op(dsp::steering_matrix_aoa(aoa, cfg),
                             dsp::steering_matrix_toa(toa, cfg));
  const auto snapshots = [&](index_t k) {
    CMat x(op.cols(), k);
    for (index_t c = 0; c < k; ++c) {
      x(3 * 46 + 10, c) = cxd{1.0, 0.3 * static_cast<double>(c)};
      x(7 * 46 + 30, c) = cxd{0.5, -0.4};
    }
    return op.apply_mat(x);
  };
  SolveConfig scfg;
  scfg.max_iterations = 120;
  scfg.tolerance = 0.0;

  const CMat y = snapshots(3);  // M k = 9
  const GroupSolveResult r = solve_group_l1(op, y, scfg);
  const std::int64_t nr = 15;
  EXPECT_GE(r.screen.full_correlates, 1);
  EXPECT_LT(r.screen.full_correlates, r.iterations / 2);
  EXPECT_GT(r.screen.drift_cleared, r.screen.exact_tested);
  // Each gradient decides at most N_r blocks; there is one per
  // iteration plus one per monotone restart.
  EXPECT_LE(r.screen.drift_cleared + r.screen.exact_tested,
            2 * r.iterations * nr);

  const GroupSolveResult wide = solve_group_l1(op, snapshots(6), scfg);
  EXPECT_EQ(wide.screen.drift_cleared, 0);
  EXPECT_GE(wide.screen.full_correlates, wide.iterations);

  const SolveResult one = solve_l1(op, y.col_vec(0), scfg);
  EXPECT_GT(one.screen.drift_cleared, 0);
  EXPECT_GE(one.screen.full_correlates, 1);

  auto rng = rt::make_rng(5);
  const DenseOperator dense(rt::random_cmat(6, 20, rng));
  const SolveResult d = solve_l1(dense, rt::random_cvec(6, rng), scfg);
  EXPECT_EQ(d.screen, ScreenStats{});
}

TEST(SolverErrors, ZeroOperatorNamesTheCallingSolver) {
  // A zero operator has no Lipschitz step; the error names the solver
  // the caller actually ran.
  const DenseOperator zero(CMat(4, 6));
  CVec y(4);
  y[0] = cxd{1.0, 0.0};
  CMat ym(4, 2);
  ym(1, 1) = cxd{0.0, 1.0};
  std::string l1_msg;
  std::string group_msg;
  try {
    (void)solve_l1(zero, y);
  } catch (const std::domain_error& e) {
    l1_msg = e.what();
  }
  try {
    (void)solve_group_l1(zero, ym);
  } catch (const std::domain_error& e) {
    group_msg = e.what();
  }
  EXPECT_EQ(l1_msg, "solve_l1: zero operator");
  EXPECT_EQ(group_msg, "solve_group_l1: zero operator");
}

}  // namespace
}  // namespace roarray::sparse
