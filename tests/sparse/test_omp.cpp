#include "sparse/omp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/steering.hpp"
#include "linalg/backend/backend.hpp"
#include "sparse/fista.hpp"
#include "../linalg/frozen_qr.hpp"
#include "../test_util.hpp"

namespace roarray::sparse {
namespace {

namespace rt = roarray::testing;

TEST(Omp, RecoversExactSupportNoiseless) {
  auto rng = rt::make_rng(971);
  const CMat s = rt::random_cmat(12, 50, rng);
  const DenseOperator op(s);
  CVec x_true(50);
  x_true[4] = cxd{2.0, -1.0};
  x_true[23] = cxd{-1.0, 0.5};
  x_true[41] = cxd{0.7, 0.7};
  const CVec y = op.apply(x_true);
  OmpConfig cfg;
  cfg.max_atoms = 3;
  cfg.residual_tolerance = 1e-8;
  const OmpResult r = solve_omp(op, y, cfg);
  ASSERT_EQ(r.support.size(), 3u);
  std::vector<index_t> sorted = r.support;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], 4);
  EXPECT_EQ(sorted[1], 23);
  EXPECT_EQ(sorted[2], 41);
  // Least-squares refit recovers the exact coefficients.
  rt::expect_vec_near(r.x, x_true, 1e-8, "OMP coefficients");
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-8);
}

TEST(Omp, StopsEarlyOnSmallResidual) {
  auto rng = rt::make_rng(972);
  const CMat s = rt::random_cmat(10, 30, rng);
  const DenseOperator op(s);
  CVec x_true(30);
  x_true[7] = cxd{1.0, 0.0};
  const CVec y = op.apply(x_true);
  OmpConfig cfg;
  cfg.max_atoms = 10;
  cfg.residual_tolerance = 1e-6;
  const OmpResult r = solve_omp(op, y, cfg);
  EXPECT_EQ(r.support.size(), 1u);  // one atom suffices
  EXPECT_EQ(r.iterations, 1);
}

TEST(Omp, ZeroMeasurementGivesEmptySolution) {
  const DenseOperator op(CMat(5, 10, cxd{1.0, 0.0}));
  const OmpResult r = solve_omp(op, CVec(5));
  EXPECT_TRUE(r.support.empty());
  EXPECT_NEAR(norm2(r.x), 0.0, 1e-15);
}

TEST(Omp, InvalidInputsThrow) {
  const DenseOperator op(CMat(5, 10, cxd{1.0, 0.0}));
  EXPECT_THROW(solve_omp(op, CVec(4)), std::invalid_argument);
  OmpConfig cfg;
  cfg.max_atoms = 0;
  EXPECT_THROW(solve_omp(op, CVec(5), cfg), std::invalid_argument);
}

TEST(Omp, BudgetCapsSupportSize) {
  auto rng = rt::make_rng(973);
  const CMat s = rt::random_cmat(10, 40, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(10, rng);  // dense target: never converges
  OmpConfig cfg;
  cfg.max_atoms = 4;
  cfg.residual_tolerance = 0.0;
  const OmpResult r = solve_omp(op, y, cfg);
  EXPECT_EQ(r.support.size(), 4u);
}

TEST(Omp, ResidualDecreasesWithMoreAtoms) {
  auto rng = rt::make_rng(974);
  const CMat s = rt::random_cmat(12, 40, rng);
  const DenseOperator op(s);
  const CVec y = rt::random_cvec(12, rng);
  double prev = norm2(y);
  for (index_t k : {1, 2, 4, 8}) {
    OmpConfig cfg;
    cfg.max_atoms = k;
    cfg.residual_tolerance = 0.0;
    const OmpResult r = solve_omp(op, y, cfg);
    EXPECT_LE(r.residual_norm, prev + 1e-10) << "atoms " << k;
    prev = r.residual_norm;
  }
}

TEST(Omp, WorksOnSteeringOperatorAtHighSnr) {
  // Two well-separated on-grid paths: greedy finds them both.
  dsp::ArrayConfig arr;
  const dsp::Grid aoa(0.0, 180.0, 46);
  const dsp::Grid toa(0.0, 700e-9, 15);
  const KroneckerOperator op(dsp::steering_matrix_aoa(aoa, arr),
                             dsp::steering_matrix_toa(toa, arr));
  CVec x_true(op.cols());
  const index_t idx1 = 3 * 46 + 12;
  const index_t idx2 = 9 * 46 + 33;
  x_true[idx1] = cxd{1.0, 0.2};
  x_true[idx2] = cxd{0.6, -0.3};
  CVec y = op.apply(x_true);
  auto rng = rt::make_rng(975);
  std::normal_distribution<double> n(0.0, 0.05);
  for (index_t i = 0; i < y.size(); ++i) y[i] += cxd{n(rng), n(rng)};
  OmpConfig cfg;
  cfg.max_atoms = 2;
  const OmpResult r = solve_omp(op, y, cfg);
  ASSERT_EQ(r.support.size(), 2u);
  for (index_t picked : r.support) {
    const bool near1 = std::abs(picked % 46 - idx1 % 46) <= 1 &&
                       std::abs(picked / 46 - idx1 / 46) <= 1;
    const bool near2 = std::abs(picked % 46 - idx2 % 46) <= 1 &&
                       std::abs(picked / 46 - idx2 / 46) <= 1;
    EXPECT_TRUE(near1 || near2) << "atom " << picked;
  }
}

TEST(Omp, L1IsMoreRobustAtLowSnr) {
  // The ablation the solver exists for: average support-recovery rate of
  // OMP vs FISTA on a noisy 2-path steering problem. l1 must win (or at
  // least tie) at low SNR.
  dsp::ArrayConfig arr;
  const dsp::Grid aoa(0.0, 180.0, 46);
  const dsp::Grid toa(0.0, 700e-9, 15);
  const KroneckerOperator op(dsp::steering_matrix_aoa(aoa, arr),
                             dsp::steering_matrix_toa(toa, arr));
  const index_t idx1 = 3 * 46 + 12;
  const index_t idx2 = 9 * 46 + 33;
  auto near_any = [&](index_t picked) {
    const bool near1 = std::abs(picked % 46 - idx1 % 46) <= 1 &&
                       std::abs(picked / 46 - idx1 / 46) <= 1;
    const bool near2 = std::abs(picked % 46 - idx2 % 46) <= 1 &&
                       std::abs(picked / 46 - idx2 / 46) <= 1;
    return near1 || near2;
  };
  int omp_hits = 0;
  int l1_hits = 0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    CVec x_true(op.cols());
    x_true[idx1] = cxd{1.0, 0.2};
    x_true[idx2] = cxd{0.6, -0.3};
    CVec y = op.apply(x_true);
    auto rng = rt::make_rng(976 + static_cast<std::uint64_t>(t));
    const double sigma = std::sqrt(norm2_sq(y) / static_cast<double>(y.size()));
    std::normal_distribution<double> n(0.0, 0.7 * sigma);  // ~ 0 dB
    for (index_t i = 0; i < y.size(); ++i) y[i] += cxd{n(rng), n(rng)};

    OmpConfig ocfg;
    ocfg.max_atoms = 2;
    const OmpResult omp_r = solve_omp(op, y, ocfg);
    bool omp_ok = omp_r.support.size() == 2;
    for (index_t p : omp_r.support) omp_ok = omp_ok && near_any(p);
    omp_hits += omp_ok ? 1 : 0;

    SolveConfig scfg;
    scfg.max_iterations = 400;
    const SolveResult l1_r = solve_l1(op, y, scfg);
    // Top-2 coefficients of the l1 solution.
    index_t b1 = 0, b2 = 0;
    double v1 = 0.0, v2 = 0.0;
    for (index_t i = 0; i < l1_r.x.size(); ++i) {
      const double v = std::abs(l1_r.x[i]);
      if (v > v1) {
        b2 = b1;
        v2 = v1;
        b1 = i;
        v1 = v;
      } else if (v > v2) {
        b2 = i;
        v2 = v;
      }
    }
    l1_hits += (near_any(b1) && near_any(b2)) ? 1 : 0;
  }
  EXPECT_GE(l1_hits, omp_hits);
  EXPECT_GE(l1_hits, trials - 2);  // l1 succeeds on most trials
}

// ---------------------------------------------------------------------------
// Differential gate: a frozen copy of solve_omp as it ran before the
// incremental QR (a fresh lstsq over the whole support at every atom, a
// std::find over the support, a full forward apply of a one-hot vector
// per picked column, a std::abs of every correlation). The library must
// reproduce it bit for bit: support order, x, residual_norm, iterations,
// and the exception when the frozen copy throws.

OmpResult frozen_solve_omp(const LinearOperator& op, const CVec& y,
                           const OmpConfig& cfg) {
  if (y.size() != op.rows()) throw std::invalid_argument("solve_omp: rhs size");
  if (cfg.max_atoms < 1) throw std::invalid_argument("solve_omp: max_atoms < 1");
  const index_t m = op.rows();
  const index_t n = op.cols();
  const double y_norm = norm2(y);
  OmpResult out;
  out.x = CVec(n);
  if (y_norm <= 0.0) return out;
  CVec residual = y;
  CMat selected_cols(m, 0);
  for (index_t it = 0; it < cfg.max_atoms; ++it) {
    const CVec corr = op.apply_adjoint(residual);
    index_t best = -1;
    double best_mag = 0.0;
    for (index_t j = 0; j < n; ++j) {
      const bool used = std::find(out.support.begin(), out.support.end(), j) !=
                        out.support.end();
      if (used) continue;
      const double mag = std::abs(corr[j]);
      if (mag > best_mag) {
        best_mag = mag;
        best = j;
      }
    }
    if (best < 0 || best_mag <= 1e-14 * y_norm) break;
    out.support.push_back(best);
    CVec e(n);
    e[best] = cxd{1.0, 0.0};
    const CVec col = op.apply(e);
    CMat grown(m, selected_cols.cols() + 1);
    for (index_t j = 0; j < selected_cols.cols(); ++j) {
      grown.set_col(j, selected_cols.col_vec(j));
    }
    grown.set_col(selected_cols.cols(), col);
    selected_cols = std::move(grown);
    const CVec coeffs = rt::frozen::lstsq(selected_cols, y);
    residual = y;
    for (index_t j = 0; j < selected_cols.cols(); ++j) {
      CVec scaled = selected_cols.col_vec(j);
      scaled *= -coeffs[j];
      residual += scaled;
    }
    out.iterations = it + 1;
    if (norm2(residual) <= cfg.residual_tolerance * y_norm) {
      out.x.fill(cxd{});
      for (std::size_t k = 0; k < out.support.size(); ++k) {
        out.x[out.support[k]] = coeffs[static_cast<index_t>(k)];
      }
      out.residual_norm = norm2(residual);
      return out;
    }
    out.x.fill(cxd{});
    for (std::size_t k = 0; k < out.support.size(); ++k) {
      out.x[out.support[k]] = coeffs[static_cast<index_t>(k)];
    }
  }
  out.residual_norm = norm2(residual);
  return out;
}

/// Which exception a solve threw ("" for none), and its result.
struct Outcome {
  std::string thrown;
  OmpResult result;
};

template <class Solve>
Outcome run_outcome(const Solve& solve) {
  Outcome o;
  try {
    o.result = solve();
  } catch (const std::domain_error&) {
    o.thrown = "domain_error";
  } catch (const std::invalid_argument&) {
    o.thrown = "invalid_argument";
  }
  return o;
}

/// Returns what the frozen copy threw ("" when it returned), so a test
/// can check it exercised the comparison it claims to.
std::string expect_matches_frozen(const LinearOperator& op, const CVec& y,
                          const OmpConfig& cfg, const std::string& what) {
  const Outcome want = run_outcome([&] { return frozen_solve_omp(op, y, cfg); });
  const Outcome got = run_outcome([&] { return solve_omp(op, y, cfg); });
  EXPECT_EQ(got.thrown, want.thrown) << what;
  if (!want.thrown.empty() || !got.thrown.empty()) return want.thrown;
  EXPECT_EQ(got.result.support, want.result.support) << what;
  EXPECT_TRUE(rt::same_bits(got.result.x, want.result.x)) << what;
  EXPECT_EQ(std::memcmp(&got.result.residual_norm, &want.result.residual_norm,
                        sizeof(double)),
            0)
      << what << ": " << got.result.residual_norm << " vs "
      << want.result.residual_norm;
  EXPECT_EQ(got.result.iterations, want.result.iterations) << what;
  return want.thrown;
}

TEST(OmpFrozen, DenseOperatorsMatchBitForBit) {
  const rt::BackendForceGuard guard;
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    auto rng = rt::make_rng(4100);
    int returned = 0;
    for (int trial = 0; trial < 24; ++trial) {
      const index_t m = 4 + trial % 9;
      const index_t n = 10 + 7 * (trial % 5);
      CMat s = rt::random_cmat(m, n, rng);
      if (trial % 4 == 1) {
        for (index_t i = 0; i < m; ++i) s(i, trial % n) = cxd{};  // zero column
      }
      const DenseOperator op(s);
      const CVec y = trial % 3 == 0 ? op.apply(rt::random_cvec(n, rng))
                                    : rt::random_cvec(m, rng);
      OmpConfig cfg;
      cfg.max_atoms = 1 + trial % 8;
      cfg.residual_tolerance = trial % 2 == 0 ? 0.0 : 0.05;
      returned += expect_matches_frozen(op, y, cfg,
                                        std::string(table->name) + " trial " +
                                            std::to_string(trial))
                      .empty();
    }
    EXPECT_GE(returned, 20) << table->name;
  }
}

TEST(OmpFrozen, MoreAtomsThanRowsMatchesIncludingTheThrow) {
  const rt::BackendForceGuard guard;
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    auto rng = rt::make_rng(4200);
    int past_rows = 0;
    for (int trial = 0; trial < 6; ++trial) {
      // Long columns keep the correlations of the exact-fit residual
      // above the 1e-14 ||y|| stop, so the sixth pick reaches the QR.
      CMat s = rt::random_cmat(5, 30, rng);
      for (index_t j = 0; j < 30; ++j)
        for (index_t i = 0; i < 5; ++i) s(i, j) *= 1e6;
      const DenseOperator op(s);
      const CVec y = rt::random_cvec(5, rng);
      OmpConfig cfg;
      cfg.max_atoms = 5 + trial;  // > rows once past the first trial
      cfg.residual_tolerance = 0.0;
      past_rows += expect_matches_frozen(op, y, cfg,
                                         std::string(table->name) + " trial " +
                                             std::to_string(trial)) ==
                   "invalid_argument";
    }
    EXPECT_GE(past_rows, 1) << table->name;
  }
}

TEST(OmpFrozen, ExactTiesPickTheFirstIndex) {
  // Columns 3 and 17 are copies of column 9 (17 negated): their
  // correlations have bit-identical magnitudes, and the first index of
  // the tie must win, as in the frozen strict-> scan.
  const rt::BackendForceGuard guard;
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    auto rng = rt::make_rng(4300);
    for (int trial = 0; trial < 8; ++trial) {
      CMat s = rt::random_cmat(10, 24, rng);
      for (index_t i = 0; i < 10; ++i) {
        s(i, 3) = s(i, 9);
        s(i, 17) = -s(i, 9);
      }
      const DenseOperator op(s);
      CVec x(24);
      x[9] = cxd{3.0, 1.0};
      x[20] = cxd{0.5, -0.2};
      const CVec y = op.apply(x);
      OmpConfig cfg;
      cfg.max_atoms = 4;
      cfg.residual_tolerance = 0.0;
      expect_matches_frozen(op, y, cfg,
                            std::string(table->name) + " trial " +
                                std::to_string(trial));
      const OmpResult r = solve_omp(op, y, cfg);
      ASSERT_FALSE(r.support.empty());
      EXPECT_EQ(r.support.front(), 3);
    }
  }
}

TEST(OmpFrozen, HypotTieWithUnequalNormsPicksTheFirstIndex) {
  // Two atoms whose correlations have equal std::abs but different
  // std::norm (the squared magnitude rounds differently): the pick must
  // follow the hypot scan (first index), not the larger norm, so the
  // prefilter's band has to keep both. With y = e_0 the correlations
  // are exactly conj(S(0, j)).
  auto rng = rt::make_rng(4400);
  std::uniform_real_distribution<double> u(0.5, 1.0);
  cxd lo{}, hi{};
  bool found = false;
  for (int attempt = 0; attempt < 200000 && !found; ++attempt) {
    const cxd a{u(rng), u(rng)};
    const double turn = u(rng);
    const cxd b0 = a * cxd{std::cos(turn), std::sin(turn)};
    for (int ulps = -3; ulps <= 3 && !found; ++ulps) {
      double re = b0.real();
      for (int k = 0; k < std::abs(ulps); ++k) {
        re = std::nextafter(re, ulps > 0 ? 2.0 : 0.0);
      }
      const cxd b{re, b0.imag()};
      if (std::abs(b) == std::abs(a) && std::norm(b) > std::norm(a)) {
        lo = a;
        hi = b;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  const rt::BackendForceGuard guard;
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    CMat s = rt::random_cmat(6, 12, rng);
    for (index_t j = 0; j < 12; ++j) s(0, j) *= 0.01;
    s(0, 4) = std::conj(lo);
    s(0, 7) = std::conj(hi);
    const DenseOperator op(s);
    CVec y(6);
    y[0] = cxd{1.0, 0.0};
    OmpConfig cfg;
    cfg.max_atoms = 1;
    expect_matches_frozen(op, y, cfg, table->name);
    EXPECT_EQ(solve_omp(op, y, cfg).support, std::vector<index_t>{4})
        << table->name;
  }
}

TEST(OmpFrozen, KroneckerOperatorsMatchBitForBit) {
  const rt::BackendForceGuard guard;
  dsp::ArrayConfig arr;
  // The coarse-to-fine shape (every 4th of 91 AoA and every 2nd of 50
  // ToA cells), a smaller steering grid, and random factors.
  const KroneckerOperator coarse(
      dsp::steering_matrix_aoa(dsp::Grid(0.0, 176.0, 23), arr),
      dsp::steering_matrix_toa(dsp::Grid(0.0, 768e-9, 25), arr));
  const KroneckerOperator steer(
      dsp::steering_matrix_aoa(dsp::Grid(0.0, 180.0, 46), arr),
      dsp::steering_matrix_toa(dsp::Grid(0.0, 700e-9, 15), arr));
  auto rng = rt::make_rng(4500);
  const KroneckerOperator random_op(rt::random_cmat(3, 9, rng),
                                    rt::random_cmat(5, 6, rng));
  const SupportOperator restricted(steer, {2, 3, 4, 10, 30}, {0, 5, 6, 7});
  const std::vector<const LinearOperator*> ops = {&coarse, &steer, &random_op,
                                                  &restricted};
  for (const auto* table : rt::backend_tables()) {
    linalg::backend::force(table);
    int returned = 0;
    for (std::size_t o = 0; o < ops.size(); ++o) {
      const LinearOperator& op = *ops[o];
      for (int trial = 0; trial < 6; ++trial) {
        CVec x(op.cols());
        for (int p = 0; p < 1 + trial % 4; ++p) {
          x[static_cast<index_t>(rng() % static_cast<std::uint64_t>(op.cols()))] =
              rt::random_cvec(1, rng)[0];
        }
        CVec y = op.apply(x);
        if (trial % 3 != 0) {  // trial % 3 == 0 stays noiseless
          std::normal_distribution<double> noise(0.0, 0.02 * (trial % 3));
          for (index_t i = 0; i < y.size(); ++i) {
            y[i] += cxd{noise(rng), noise(rng)};
          }
        }
        OmpConfig cfg;
        cfg.max_atoms = trial % 2 == 0 ? 8 : 3;
        cfg.residual_tolerance = trial % 3 == 0 ? 0.0 : 0.02;
        returned += expect_matches_frozen(
                        op, y, cfg,
                        std::string(table->name) + " op " + std::to_string(o) +
                            " trial " + std::to_string(trial))
                        .empty();
      }
    }
    EXPECT_GE(returned, 20) << table->name;
  }
}

}  // namespace
}  // namespace roarray::sparse
