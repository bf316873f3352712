// Differential suite for the compute-backend tables: every published
// SIMD table must match the scalar table over adversarial inputs within
// the per-kernel tolerances documented in backend.hpp. The inputs are
// crafted around the documented divergence (zero-skip granularity in
// gemm_tile): that region gets its own semantics test instead of a
// comparison.
#include "linalg/backend/backend.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "linalg/backend/crc32.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "support/reference.hpp"
#include "../test_util.hpp"

namespace roarray::linalg::backend {
namespace {

namespace rt = roarray::testing;

constexpr double kEps = std::numeric_limits<double>::epsilon();

double max_abs(const CMat& m) {
  double mx = 0.0;
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i) mx = std::max(mx, std::abs(m(i, j)));
  return mx;
}

/// max_j sum_l |B(l,j)| — the magnitude-sum factor of the gemm
/// forward-error bound in backend.hpp.
double max_col_abs_sum(const CMat& m) {
  double mx = 0.0;
  for (index_t j = 0; j < m.cols(); ++j) {
    double s = 0.0;
    for (index_t i = 0; i < m.rows(); ++i) s += std::abs(m(i, j));
    mx = std::max(mx, s);
  }
  return mx;
}

void expect_gemm_close(const CMat& simd_c, const CMat& scalar_c, index_t k,
                       double amax, double bsum, const char* what) {
  // backend.hpp gemm tolerance: the gamma_k dot-product bound,
  // 8 * eps * k * max|A| * max_j sum_l |B(l,j)| per element.
  const double tol = 8.0 * kEps * static_cast<double>(k) * amax * bsum;
  for (index_t j = 0; j < scalar_c.cols(); ++j) {
    for (index_t i = 0; i < scalar_c.rows(); ++i) {
      EXPECT_NEAR(simd_c(i, j).real(), scalar_c(i, j).real(), tol)
          << what << " at (" << i << "," << j << ")";
      EXPECT_NEAR(simd_c(i, j).imag(), scalar_c(i, j).imag(), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Selection and provenance.

TEST(BackendDispatch, ScalarTableIsAlwaysPublished) {
  EXPECT_STREQ(scalar().name, "scalar");
  EXPECT_NE(scalar().gemm_tile, nullptr);
  EXPECT_NE(scalar().phase_ramp_accum, nullptr);
  // The trace CRC's reference: slicing-by-8 (tests/io/test_crc32.cpp
  // checks every table against a bit-at-a-time CRC).
  EXPECT_EQ(scalar().crc32_update, &crc32_sliced);
}

TEST(BackendDispatch, DispatchInfoIsConsistent) {
  const Dispatch d = dispatch_info();
  ASSERT_NE(d.selected, nullptr);
  EXPECT_EQ(d.selected, &active());
  EXPECT_EQ(d.simd_compiled, simd_compiled());
  // A supported SIMD table implies a compiled one, and the published
  // table pointer agrees with the support flag.
  if (d.simd_supported) {
    EXPECT_TRUE(d.simd_compiled);
  }
  EXPECT_EQ(simd() != nullptr, d.simd_compiled && d.simd_supported);
  const std::string req = d.requested;
  EXPECT_TRUE(req == "auto" || req == "scalar" || req == "simd") << req;
}

TEST(BackendDispatch, ForceRoundTrips) {
  const Backend* before = &active();
  force(&scalar());
  EXPECT_EQ(&active(), &scalar());
  EXPECT_STREQ(dispatch_info().requested, "force");
  force(nullptr);
  EXPECT_EQ(&active(), before);
}

// ---------------------------------------------------------------------------
// Storage alignment (the SIMD tables may use aligned loads on column
// bases; alignment is a property of the allocation so it must survive
// moves and swaps).

TEST(BackendStorage, MatrixAndVectorBuffersAreCacheLineAligned) {
  static_assert(kBufferAlign >= 64);
  CMat m(7, 3);
  CVec v(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kBufferAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kBufferAlign, 0u);
}

TEST(BackendStorage, AlignmentSurvivesMoveAndSwap) {
  CMat m(33, 4);
  const cxd* before = m.data();
  CMat moved = std::move(m);
  EXPECT_EQ(moved.data(), before);  // the buffer moved owner, not address
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) % kBufferAlign, 0u);
  CVec a(9), b(17);
  const cxd* pa = a.data();
  const cxd* pb = b.data();
  std::swap(a, b);
  EXPECT_EQ(a.data(), pb);
  EXPECT_EQ(b.data(), pa);
}

// ---------------------------------------------------------------------------
// Differential: simd vs scalar. Skipped (visibly) when this binary or
// machine has no SIMD table — the scalar-vs-scalar comparison would be
// vacuous.

class BackendDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    simd_ = simd();
    if (simd_ == nullptr) {
      GTEST_SKIP() << "no SIMD table on this build/machine";
    }
  }
  const Backend* simd_ = nullptr;
};

// Adversarial B matrices exercise the zero-skip: whole zero rows (the
// row-sparse iterates the skip exists for), denormal entries, and
// signed zeros. A stays finite and normal-range: the documented
// zero-skip granularity divergence means a zero B entry *next to* a
// nonzero one contributes exact +/-0 terms on the simd path, which only
// matters for non-finite or sign-of-zero A contributions.
CMat adversarial_b(index_t k, index_t n, std::mt19937_64& rng) {
  CMat b = rt::random_cmat(k, n, rng);
  for (index_t i = 0; i < k; i += 3) {        // whole zero rows
    for (index_t j = 0; j < n; ++j) b(i, j) = cxd{0.0, 0.0};
  }
  if (k > 1) {
    for (index_t j = 0; j < n; j += 2) {      // scattered signed zeros
      b(1, j) = cxd{-0.0, 0.0};
    }
  }
  if (k > 4) {
    for (index_t j = 0; j < n; ++j) {         // denormals
      b(4, j) = cxd{5e-320, -3e-310};
    }
  }
  return b;
}

TEST_F(BackendDifferential, GemmMatchesScalarOnAdversarialInputs) {
  auto rng = rt::make_rng(701);
  // Shapes hit every dispatch path: fixed-height (m <= 16), fixed-depth
  // (k <= 8), the packed tile fast path (m, k large; n covers full
  // 4-column groups plus every tail width), odd row tails, and a
  // reduction crossing the k-chunk boundary (kKc = 256).
  const index_t shapes[][3] = {
      {7, 5, 40},    {16, 9, 33},  {17, 3, 9},   {37, 11, 300},
      {90, 8, 641},  {129, 7, 260}, {130, 33, 12}, {20, 6, 257},
  };
  for (const auto& s : shapes) {
    const index_t m = s[0], n = s[1], k = s[2];
    const CMat a = rt::random_cmat(m, k, rng);
    const CMat b = adversarial_b(k, n, rng);
    const CMat cs = matmul_blocked(a, b, &scalar());
    const CMat cv = matmul_blocked(a, b, simd_);
    expect_gemm_close(cv, cs, k, max_abs(a), max_col_abs_sum(b), "gemm");
  }
}

TEST_F(BackendDifferential, GemmAdjointMatchesScalar) {
  auto rng = rt::make_rng(702);
  const index_t shapes[][3] = {{5, 4, 30}, {33, 9, 101}, {64, 17, 7}};
  for (const auto& s : shapes) {
    const index_t m = s[0], n = s[1], k = s[2];
    const CMat a = rt::random_cmat(k, m, rng);
    const CMat b = rt::random_cmat(k, n, rng);
    const CMat cs = matmul_adj_left_blocked(a, b, &scalar());
    const CMat cv = matmul_adj_left_blocked(a, b, simd_);
    expect_gemm_close(cv, cs, k, max_abs(a), max_col_abs_sum(b), "gemm_adj");
  }
}

TEST_F(BackendDifferential, GemmZeroSkipIsExactOnRowSparseB) {
  // When B's zero structure is whole rows (the case the skip exists
  // for), the simd path skips exactly the steps scalar skips: results
  // stay within rounding even though the skip granularity differs.
  auto rng = rt::make_rng(703);
  const index_t m = 37, n = 9, k = 120;
  const CMat a = rt::random_cmat(m, k, rng);
  CMat b = rt::random_cmat(k, n, rng);
  for (index_t i = 0; i < k; ++i) {
    if (i % 4 != 0) {  // keep every 4th row: 75% zero rows
      for (index_t j = 0; j < n; ++j) b(i, j) = cxd{0.0, 0.0};
    }
  }
  const CMat cs = matmul_blocked(a, b, &scalar());
  const CMat cv = matmul_blocked(a, b, simd_);
  expect_gemm_close(cv, cs, k, max_abs(a), max_col_abs_sum(b), "sparse gemm");
}

TEST_F(BackendDifferential, RowScaleIsBitIdentical) {
  auto rng = rt::make_rng(705);
  for (const index_t n : {index_t{1}, index_t{6}, index_t{31}}) {
    CVec col = rt::random_cvec(n, rng);
    std::vector<double> s(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      s[static_cast<std::size_t>(i)] = (i % 3 == 0) ? -1.0 : 0.25 * double(i);
    }
    CVec cs = col;
    CVec cv = col;
    scalar().row_scale(cs.data(), n, s.data());
    simd_->row_scale(cv.data(), n, s.data());
    EXPECT_EQ(0, std::memcmp(cs.data(), cv.data(),
                             static_cast<std::size_t>(n) * sizeof(cxd)))
        << "row_scale must be bit-identical (n=" << n << ")";
    // Negative markers produce exact +0, not -0.
    EXPECT_EQ(0.0, cv[0].real());
    EXPECT_FALSE(std::signbit(cv[0].real()));
  }
}

TEST_F(BackendDifferential, RowSqAccumulateMatchesScalar) {
  auto rng = rt::make_rng(706);
  for (const index_t n : {index_t{1}, index_t{8}, index_t{129}}) {
    const CVec col = rt::random_cvec(n, rng);
    std::vector<double> as(static_cast<std::size_t>(n), 0.5);
    std::vector<double> av = as;
    scalar().row_sq_accumulate(col.data(), n, as.data());
    simd_->row_sq_accumulate(col.data(), n, av.data());
    for (index_t i = 0; i < n; ++i) {
      const double tol = 2.0 * kEps * std::norm(col[i]) + 2.0 * kEps;
      EXPECT_NEAR(av[static_cast<std::size_t>(i)],
                  as[static_cast<std::size_t>(i)], tol) << "i=" << i;
    }
  }
}

TEST_F(BackendDifferential, PhaseRampMatchesScalar) {
  const cxd step = std::polar(1.0, 0.37);  // |step| = 1 like every caller
  const cxd gain = std::polar(1.7, -1.1);
  for (const index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{5},
                          index_t{64}, index_t{1001}}) {
    CVec os(n), ov(n);
    scalar().phase_ramp(gain, step, n, os.data());
    simd_->phase_ramp(gain, step, n, ov.data());
    for (index_t i = 0; i < n; ++i) {
      const double tol = 2.0 * kEps * static_cast<double>(n) * std::abs(gain);
      EXPECT_NEAR(ov[i].real(), os[i].real(), tol) << "i=" << i << " n=" << n;
      EXPECT_NEAR(ov[i].imag(), os[i].imag(), tol) << "i=" << i << " n=" << n;
    }
    // The accumulating variant adds the same ramp on top of a payload.
    CVec bs(n, cxd{0.5, -0.25});
    CVec bv = bs;
    scalar().phase_ramp_accum(gain, step, n, bs.data());
    simd_->phase_ramp_accum(gain, step, n, bv.data());
    for (index_t i = 0; i < n; ++i) {
      const double tol =
          4.0 * kEps * static_cast<double>(n) * (std::abs(gain) + 1.0);
      EXPECT_NEAR(bv[i].real(), bs[i].real(), tol) << "i=" << i << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-exact oracles for the simd fixed-height / fixed-depth kernels. The
// reference below performs, per output element, exactly the FMA
// sequence the simd kernels issue on interleaved lanes: for each
// reduction step, re = fma(ar, br, re) then re = fma(ai, -bi, re), and
// im = fma(ai, br, im) then im = fma(ar, bi, im), starting from +0.
// std::fma rounds once whatever the target, so the oracle is exact on
// any build. gemm_cols skips a step for a column whose B entry is +/-0
// in both parts (NaN counts as nonzero); gemm_cols_depth never skips.
// Comparisons are bitwise, except that any two NaNs compare equal: the
// payload and sign of a NaN result depend on which operand slot the
// compiler gave the NaN, which is not part of the kernels' contract.

bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void fma_oracle(index_t m, index_t n, index_t k, const cxd* a, const cxd* b,
                bool zero_skip, cxd* c) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double re = 0.0;
      double im = 0.0;
      for (index_t kk = 0; kk < k; ++kk) {
        const double br = b[j * k + kk].real();
        const double bi = b[j * k + kk].imag();
        if (zero_skip && br == 0.0 && bi == 0.0) continue;
        const double ar = a[kk * m + i].real();
        const double ai = a[kk * m + i].imag();
        re = std::fma(ar, br, re);
        re = std::fma(ai, -bi, re);
        im = std::fma(ai, br, im);
        im = std::fma(ar, bi, im);
      }
      c[j * m + i] = cxd{re, im};
    }
  }
}

/// B entries for the zero-skip oracles: signed zeros in either part,
/// NaN and Inf, whole all-zero columns and single-nonzero columns, and
/// k-step runs where every column of a block is zero (the simd kernel
/// skips those four steps at a time).
CMat oracle_b(index_t k, index_t n, std::mt19937_64& rng) {
  CMat b = rt::random_cmat(k, n, rng);
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  std::uniform_int_distribution<int> pick(0, 11);
  for (index_t j = 0; j < n; ++j) {
    const int kind = pick(rng);
    for (index_t kk = 0; kk < k; ++kk) {
      cxd& e = b(kk, j);
      if (kind == 0) {
        e = cxd{0.0, 0.0};                          // all-zero column
      } else if (kind == 1) {
        e = kk == k / 2 ? e : cxd{-0.0, 0.0};       // single nonzero
      } else if (kind == 2 && kk % 5 == 1) {
        e = cxd{0.0, -0.0};
      } else if (kind == 3 && kk == 0) {
        e = cxd{-0.0, 1.5};                         // zero real part only
      } else if (kind == 4 && kk == k - 1) {
        e = cxd{qnan, 0.0};
      } else if (kind == 5 && kk == k / 3) {
        e = cxd{0.0, -inf};
      } else if (kind >= 6 && (kk / 4) % 2 == 0) {
        e = cxd{0.0, 0.0};                          // zero 4-step runs
      }
    }
  }
  return b;
}

void expect_bitwise(const std::vector<cxd>& got, const std::vector<cxd>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_double(got[i].real(), want[i].real()) ||
        !same_double(got[i].imag(), want[i].imag())) {
      ADD_FAILURE() << what << " element " << i << ": " << got[i]
                    << " vs oracle " << want[i];
      return;
    }
  }
}

/// Random A, with an Inf in one row every other draw: a step the
/// zero-skip drops must not turn into Inf * 0 = NaN.
CMat oracle_a(index_t m, index_t k, std::mt19937_64& rng) {
  CMat a = rt::random_cmat(m, k, rng);
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
    a(m - 1, k / 2) = cxd{std::numeric_limits<double>::infinity(), 0.5};
  }
  return a;
}

TEST_F(BackendDifferential, GemmColsMatchesFmaOracleBitwise) {
  auto rng = rt::make_rng(708);
  for (index_t m = 1; m <= kSmallRowLimit; ++m) {
    for (const index_t k : {index_t{1}, index_t{3}, index_t{4}, index_t{9},
                            index_t{30}, index_t{91}}) {
      for (index_t n = 1; n <= 13; ++n) {
        const CMat a = oracle_a(m, k, rng);
        const CMat b = oracle_b(k, n, rng);
        std::vector<cxd> want(static_cast<std::size_t>(m * n));
        fma_oracle(m, n, k, a.data(), b.data(), true, want.data());
        // The whole-matrix call writes exactly C: a guard column on either
        // side of it stays untouched.
        std::vector<cxd> out(want.size() + static_cast<std::size_t>(2 * m),
                             cxd{7.0, 7.0});
        simd_->gemm_cols(m, n, k, a.data(), b.data(), out.data() + m);
        const std::string what = "gemm_cols m=" + std::to_string(m) +
                                 " k=" + std::to_string(k) +
                                 " n=" + std::to_string(n);
        expect_bitwise(std::vector<cxd>(out.begin() + m, out.end() - m), want,
                       what);
        for (index_t i = 0; i < m; ++i) {
          const cxd lo = out[static_cast<std::size_t>(i)];
          const cxd hi = out[out.size() - 1 - static_cast<std::size_t>(i)];
          ASSERT_TRUE(lo == cxd(7.0, 7.0) && hi == cxd(7.0, 7.0))
              << what << ": wrote outside C";
        }
      }
    }
  }
}

TEST_F(BackendDifferential, GemmColsDepthMatchesFmaOracleBitwise) {
  auto rng = rt::make_rng(709);
  for (index_t k = 1; k <= kSmallDepthLimit; ++k) {
    for (const index_t m : {index_t{1}, index_t{2}, index_t{7}, index_t{8},
                            index_t{17}, index_t{91}}) {
      for (index_t n = 1; n <= 13; ++n) {
        const CMat a = oracle_a(m, k, rng);
        const CMat b = oracle_b(k, n, rng);
        std::vector<cxd> want(static_cast<std::size_t>(m * n));
        fma_oracle(m, n, k, a.data(), b.data(), false, want.data());
        std::vector<cxd> got(want.size(), cxd{7.0, 7.0});
        simd_->gemm_cols_depth(m, n, k, a.data(), b.data(), got.data());
        expect_bitwise(got, want,
                       "gemm_cols_depth k=" + std::to_string(k) +
                           " m=" + std::to_string(m) +
                           " n=" + std::to_string(n));
      }
    }
  }
}

TEST_F(BackendDifferential, GradientRowSqIsBitIdentical) {
  // The group-prox gradient pass must round exactly like the scalar
  // loop on every table (no FMA contraction), tails and non-finite
  // entries included.
  auto rng = rt::make_rng(710);
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (index_t n = 1; n <= 13; ++n) {
    for (const double step : {0.37, 1e-3, 2.5}) {
      CVec from = rt::random_cvec(n, rng);
      CVec grad = rt::random_cvec(n, rng);
      if (n > 2) from[2] = cxd{qnan, 1.0};
      if (n > 5) grad[5] = cxd{-inf, 0.5};
      if (n > 7) from[7] = cxd{0.0, -0.0};
      if (n > 7) grad[7] = cxd{-0.0, 0.0};
      std::vector<double> acc_s(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        acc_s[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i);
      }
      std::vector<double> acc_v = acc_s;
      scalar().gradient_row_sq(from.data(), grad.data(), step, n,
                               acc_s.data());
      simd_->gradient_row_sq(from.data(), grad.data(), step, n, acc_v.data());
      for (index_t i = 0; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        EXPECT_TRUE(same_double(acc_v[u], acc_s[u]))
            << "n=" << n << " step=" << step << " row " << i << ": "
            << acc_v[u] << " vs " << acc_s[u];
      }
    }
  }
}

TEST(BackendScalar, GradientRowSqMatchesTheFusedSolverLoop) {
  // The scalar entry is the solver's former fused pass: the squared
  // norm of (from - step * grad), accumulated on top of row_sq.
  auto rng = rt::make_rng(711);
  const index_t n = 9;
  const CVec from = rt::random_cvec(n, rng);
  const CVec grad = rt::random_cvec(n, rng);
  const double step = 0.61;
  std::vector<double> acc(static_cast<std::size_t>(n), 1.0);
  scalar().gradient_row_sq(from.data(), grad.data(), step, n, acc.data());
  for (index_t i = 0; i < n; ++i) {
    const double xr = from[i].real() - step * grad[i].real();
    const double xi = from[i].imag() - step * grad[i].imag();
    EXPECT_EQ(acc[static_cast<std::size_t>(i)], 1.0 + (xr * xr + xi * xi));
  }
}

}  // namespace
}  // namespace roarray::linalg::backend
