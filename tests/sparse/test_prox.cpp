#include "sparse/prox.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

#include "../test_util.hpp"

namespace roarray::sparse {
namespace {

namespace rt = roarray::testing;

TEST(SoftThreshold, ShrinksMagnitudePreservesPhase) {
  CVec x{cxd{3.0, 4.0}};  // magnitude 5, phase atan2(4, 3)
  const double phase_before = std::arg(x[0]);
  soft_threshold_inplace(x, 2.0);
  EXPECT_NEAR(std::abs(x[0]), 3.0, 1e-12);
  EXPECT_NEAR(std::arg(x[0]), phase_before, 1e-12);
}

TEST(SoftThreshold, ZeroesSmallElements) {
  CVec x{cxd{0.5, 0.0}, cxd{0.0, -0.9}, cxd{2.0, 0.0}};
  soft_threshold_inplace(x, 1.0);
  EXPECT_EQ(x[0], cxd{});
  EXPECT_EQ(x[1], cxd{});
  EXPECT_NEAR(std::abs(x[2] - cxd{1.0, 0.0}), 0.0, 1e-12);
}

TEST(SoftThreshold, ZeroThresholdIsIdentity) {
  auto rng = rt::make_rng(71);
  CVec x = rt::random_cvec(10, rng);
  const CVec before = x;
  soft_threshold_inplace(x, 0.0);
  rt::expect_vec_near(x, before, 1e-15, "identity at t=0");
}

TEST(SoftThreshold, IsNonExpansive) {
  // ||prox(x) - prox(y)|| <= ||x - y|| — the key property FISTA needs.
  auto rng = rt::make_rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    CVec x = rt::random_cvec(12, rng);
    CVec y = rt::random_cvec(12, rng);
    CVec diff_before = x;
    diff_before -= y;
    soft_threshold_inplace(x, 0.7);
    soft_threshold_inplace(y, 0.7);
    CVec diff_after = x;
    diff_after -= y;
    EXPECT_LE(norm2(diff_after), norm2(diff_before) + 1e-12);
  }
}

TEST(SoftThreshold, MinimizesProxObjective) {
  // prox_t(z) = argmin_x 1/2 ||x - z||^2 + t ||x||_1: the prox output must
  // beat random perturbations of itself.
  auto rng = rt::make_rng(73);
  const CVec z = rt::random_cvec(6, rng);
  CVec p = z;
  const double t = 0.5;
  soft_threshold_inplace(p, t);
  auto objective = [&](const CVec& x) {
    CVec d = x;
    d -= z;
    return 0.5 * norm2_sq(d) + t * norm1(x);
  };
  const double best = objective(p);
  for (int trial = 0; trial < 50; ++trial) {
    CVec cand = p;
    CVec noise = rt::random_cvec(6, rng);
    axpy(cxd{0.05, 0.0}, noise, cand);
    EXPECT_GE(objective(cand), best - 1e-12);
  }
}

TEST(GroupSoftThreshold, ZeroesWeakRowsKeepsStrong) {
  CMat x(3, 2);
  x(0, 0) = cxd{0.3, 0.0};
  x(0, 1) = cxd{0.0, 0.4};  // row norm 0.5 < 1 -> zeroed
  x(2, 0) = cxd{3.0, 0.0};
  x(2, 1) = cxd{0.0, 4.0};  // row norm 5 -> shrunk to 4
  group_soft_threshold_rows_inplace(x, 1.0);
  EXPECT_EQ(x(0, 0), cxd{});
  EXPECT_EQ(x(0, 1), cxd{});
  double row2 = std::sqrt(std::norm(x(2, 0)) + std::norm(x(2, 1)));
  EXPECT_NEAR(row2, 4.0, 1e-12);
}

TEST(GroupSoftThreshold, PreservesRowDirection) {
  CMat x(1, 3);
  x(0, 0) = cxd{1.0, 1.0};
  x(0, 1) = cxd{-2.0, 0.5};
  x(0, 2) = cxd{0.0, 3.0};
  CMat before = x;
  group_soft_threshold_rows_inplace(x, 0.5);
  // Shrunk row must be a positive scalar multiple of the original.
  const double scale = std::abs(x(0, 0)) / std::abs(before(0, 0));
  for (index_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(std::abs(x(0, j) - before(0, j) * scale), 0.0, 1e-12);
  }
}

TEST(GroupSoftThreshold, ReducesToVectorProxForSingleColumn) {
  auto rng = rt::make_rng(74);
  const CVec v = rt::random_cvec(8, rng);
  CMat x(8, 1);
  x.set_col(0, v);
  group_soft_threshold_rows_inplace(x, 0.6);
  CVec w = v;
  soft_threshold_inplace(w, 0.6);
  rt::expect_vec_near(x.col_vec(0), w, 1e-12, "single column");
}

// ---------------------------------------------------------------------------
// The shared row decision (row_shrink_factors) and its sqrt prefilter.

bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ShrinkSqFloor, LiesStrictlyBelowTheExactSquare) {
  // fma(t, t, -S2) is the exact rounding error of S2 = fl(t * t), so
  // t^2 = S2 + err exactly, and floor - S2 is exact (Sterbenz): the
  // floor is below the real t^2 iff floor - S2 < err.
  auto rng = rt::make_rng(731);
  std::uniform_real_distribution<double> expo(-500.0, 500.0);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  for (int trial = 0; trial < 20000; ++trial) {
    const double t = std::ldexp(mant(rng), static_cast<int>(expo(rng)));
    const double s2 = t * t;
    const double floor_sq = shrink_sq_floor(t);
    ASSERT_GT(floor_sq, 0.0) << t;
    const double err = std::fma(t, t, -s2);
    ASSERT_LT(floor_sq - s2, err) << "t=" << t;
    ASSERT_LE(std::sqrt(floor_sq), t) << "t=" << t;
    ASSERT_GT(floor_sq, s2 * (1.0 - 1e-15)) << "t=" << t;  // still tight
  }
}

TEST(ShrinkSqFloor, DisabledWhereTheArgumentFails) {
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (const double t : {0.0, -0.0, -1.0, 1e-160, 4.9e-324, 1e160, inf,
                         qnan}) {
    EXPECT_TRUE(std::isnan(shrink_sq_floor(t))) << t;  // matches nothing
  }
  EXPECT_GT(shrink_sq_floor(1.0), 0.0);
}

TEST(RowShrinkFactors, MatchesThePlainSqrtDecisionBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  auto rng = rt::make_rng(732);
  std::uniform_real_distribution<double> unit(0.0, 3.0);
  for (const double t : {1.0, 0.3, 0.7071067811865476, 1e-150, 1.5e-154,
                         1e150, 0.0, -0.5, qnan}) {
    // Squared norms at the decision boundary: fl(t^2) and its ulp
    // neighbours, the prefilter floor and its neighbours, plus signed
    // zeros, NaN, inf and random rows on both sides of the floor.
    std::vector<double> rows;
    const double s2 = t * t;
    double up = s2;
    double down = s2;
    rows.push_back(s2);
    for (int u = 0; u < 3; ++u) {
      up = std::nextafter(up, inf);
      down = std::nextafter(down, -inf);
      rows.push_back(up);
      rows.push_back(down);
    }
    const double floor_sq = shrink_sq_floor(t);
    rows.push_back(floor_sq);
    rows.push_back(std::nextafter(floor_sq, inf));
    rows.push_back(std::nextafter(floor_sq, -inf));
    for (const double v : {0.0, -0.0, qnan, inf, 1e-300, 1e300}) {
      rows.push_back(v);
    }
    for (int r = 0; r < 40; ++r) rows.push_back(unit(rng) * s2);
    for (int r = 0; r < 9; ++r) rows.push_back(0.1 * s2);

    std::vector<double> want = rows;
    double want_l21 = 0.0;
    std::vector<index_t> want_kept;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const double norm = std::sqrt(want[i]);
      if (norm <= t) {
        want[i] = -1.0;
      } else {
        want[i] = 1.0 - t / norm;
        want_l21 += norm * want[i];
        want_kept.push_back(static_cast<index_t>(i));
      }
    }
    const auto n = static_cast<index_t>(rows.size());
    std::vector<double> got = rows;
    std::vector<index_t> kept(rows.size(), -1);
    RowShrink r;
    row_shrink_factors(got.data(), 0, n, t, r, kept.data());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(same_double(got[i], want[i]))
          << "t=" << t << " row " << i << " (row_sq " << rows[i]
          << "): " << got[i] << " vs " << want[i];
    }
    EXPECT_TRUE(same_double(r.l21, want_l21)) << "t=" << t;
    ASSERT_EQ(r.kept, static_cast<index_t>(want_kept.size())) << "t=" << t;
    for (std::size_t i = 0; i < want_kept.size(); ++i) {
      EXPECT_EQ(kept[i], want_kept[i]) << "t=" << t;
    }
    // Without a kept-row list the factors and the sum are the same.
    std::vector<double> again = rows;
    RowShrink r2;
    row_shrink_factors(again.data(), 0, n, t, r2);
    EXPECT_TRUE(same_double(r2.l21, r.l21));
    EXPECT_EQ(r2.kept, r.kept);
    // Ascending ranges carrying one accumulator equal the single call.
    std::vector<double> split = rows;
    std::vector<index_t> split_kept(rows.size(), -1);
    RowShrink r3;
    const index_t cuts[] = {0, n / 3, n / 3 + 1, n - 2, n};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      row_shrink_factors(split.data(), cuts[c], cuts[c + 1], t, r3,
                         split_kept.data());
    }
    EXPECT_TRUE(same_double(r3.l21, r.l21)) << "t=" << t;
    EXPECT_EQ(r3.kept, r.kept);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(same_double(split[i], got[i])) << "t=" << t << " row " << i;
      EXPECT_EQ(split_kept[i], kept[i]) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace roarray::sparse
