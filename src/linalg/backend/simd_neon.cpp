// NEON (aarch64 Advanced SIMD) backend. One 128-bit vector holds one
// complex double; complex multiply-accumulate is one ext (swap) plus
// two FMAs per element. Advanced SIMD is baseline on aarch64, so there
// is no runtime feature check — backend.cpp publishes this table
// whenever the TU is compiled in.
//
// The kernels deliberately mirror the scalar table's traversal and
// zero-skip semantics entry-for-entry (no row-group skips, no lane
// splitting of reductions), so the only divergence vs scalar is FMA
// contraction rounding plus soft_threshold's documented
// squared-magnitude compare — well inside the per-kernel tolerances in
// backend.hpp.
#include "linalg/backend/backend.hpp"
#include "linalg/backend/crc32.hpp"

#if !defined(__aarch64__)
#error "simd_neon.cpp must be compiled on aarch64"
#endif

#include <arm_neon.h>

#include <cmath>
#include <cstring>

namespace roarray::linalg::backend {

// Defined in scalar.cpp (see kNeon below).
void gradient_row_sq_scalar(const cxd* from, const cxd* grad, double step,
                            index_t n, double* row_sq);

namespace {

/// acc += (ar, ai) * (br + i bi) on interleaved lanes: one lane swap,
/// two FMAs. vbi must hold {-bi, +bi}.
inline float64x2_t cmla(float64x2_t acc, float64x2_t va, double br,
                        float64x2_t vbi) {
  acc = vfmaq_n_f64(acc, va, br);
  return vfmaq_f64(acc, vextq_f64(va, va, 1), vbi);
}

void gemm_tile(index_t i0, index_t i1, index_t j0, index_t j1, index_t m,
               index_t k, const cxd* a, const cxd* b, cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * k;
    double* cj = reinterpret_cast<double*>(c + j * m);
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const float64x2_t vbi = {-bi, bi};
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t i = i0; i < i1; ++i) {
        const float64x2_t va = vld1q_f64(ak + 2 * i);
        const float64x2_t cv = vld1q_f64(cj + 2 * i);
        vst1q_f64(cj + 2 * i, cmla(cv, va, br, vbi));
      }
    }
  }
}

void gemm_cols(index_t m, index_t n, index_t k, const cxd* a, const cxd* b,
               cxd* c) {
  // Whole C column accumulates in an L1-resident stack buffer (m <= 16).
  alignas(16) double acc[2 * kSmallRowLimit];
  const std::size_t bytes = static_cast<std::size_t>(2 * m) * sizeof(double);
  for (index_t j = 0; j < n; ++j) {
    const cxd* bj = b + j * k;
    std::memset(acc, 0, bytes);
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const float64x2_t vbi = {-bi, bi};
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t i = 0; i < m; ++i) {
        const float64x2_t va = vld1q_f64(ak + 2 * i);
        const float64x2_t cv = vld1q_f64(acc + 2 * i);
        vst1q_f64(acc + 2 * i, cmla(cv, va, br, vbi));
      }
    }
    std::memcpy(c + j * m, acc, bytes);
  }
}

void gemm_cols_depth(index_t m, index_t n, index_t k, const cxd* a,
                     const cxd* b, cxd* c) {
  const double* ad = reinterpret_cast<const double*>(a);
  double br[kSmallDepthLimit] = {};
  float64x2_t vbi[kSmallDepthLimit] = {};
  for (index_t j = 0; j < n; ++j) {
    const cxd* bj = b + j * k;
    for (index_t kk = 0; kk < k; ++kk) {
      br[kk] = bj[kk].real();
      const double bi = bj[kk].imag();
      vbi[kk] = float64x2_t{-bi, bi};
    }
    double* cj = reinterpret_cast<double*>(c + j * m);
    for (index_t i = 0; i < m; ++i) {
      float64x2_t accv = vdupq_n_f64(0.0);  // no zero-skip (exact +/-0 terms)
      for (index_t kk = 0; kk < k; ++kk) {
        const float64x2_t va = vld1q_f64(ad + 2 * kk * m + 2 * i);
        accv = cmla(accv, va, br[kk], vbi[kk]);
      }
      vst1q_f64(cj + 2 * i, accv);
    }
  }
}

void gemm_adj_tile(index_t i0, index_t i1, index_t j0, index_t j1,
                   index_t m, index_t k, const cxd* a, const cxd* b,
                   cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const double* bj = reinterpret_cast<const double*>(b + j * k);
    cxd* cj = c + j * m;
    for (index_t i = i0; i < i1; ++i) {
      const double* ai = reinterpret_cast<const double*>(a + i * k);
      float64x2_t acc1 = vdupq_n_f64(0.0);  // lanes: ar*br, aim*bii
      float64x2_t acc2 = vdupq_n_f64(0.0);  // lanes: ar*bii, aim*br
      for (index_t kk = 0; kk < k; ++kk) {
        const float64x2_t va = vld1q_f64(ai + 2 * kk);
        const float64x2_t vb = vld1q_f64(bj + 2 * kk);
        acc1 = vfmaq_f64(acc1, va, vb);
        acc2 = vfmaq_f64(acc2, va, vextq_f64(vb, vb, 1));
      }
      const double sr = vgetq_lane_f64(acc1, 0) + vgetq_lane_f64(acc1, 1);
      const double si = vgetq_lane_f64(acc2, 0) - vgetq_lane_f64(acc2, 1);
      cj[i] = cxd{sr, si};
    }
  }
}

void soft_threshold(cxd* x, index_t n, double t) {
  double* xd = reinterpret_cast<double*>(x);
  const double t2 = t * t;
  for (index_t i = 0; i < n; ++i) {
    const float64x2_t va = vld1q_f64(xd + 2 * i);
    const float64x2_t sq = vmulq_f64(va, va);
    const double m2 = vpaddd_f64(sq);  // |x|^2, no sqrt on the zero branch
    if (m2 <= t2) {  // false for NaN: NaN stays on the scale branch
      vst1q_f64(xd + 2 * i, vdupq_n_f64(0.0));
    } else {
      vst1q_f64(xd + 2 * i, vmulq_n_f64(va, 1.0 - t / std::sqrt(m2)));
    }
  }
}

void row_sq_accumulate(const cxd* col, index_t n, double* acc) {
  const double* cj = reinterpret_cast<const double*>(col);
  for (index_t i = 0; i < n; ++i) {
    const float64x2_t va = vld1q_f64(cj + 2 * i);
    acc[i] += vpaddd_f64(vmulq_f64(va, va));
  }
}

void row_scale(cxd* col, index_t n, const double* scale) {
  double* cj = reinterpret_cast<double*>(col);
  for (index_t i = 0; i < n; ++i) {
    const double s = scale[i];
    if (s < 0.0) {
      vst1q_f64(cj + 2 * i, vdupq_n_f64(0.0));
    } else {
      vst1q_f64(cj + 2 * i, vmulq_n_f64(vld1q_f64(cj + 2 * i), s));
    }
  }
}

/// Two one-element chains advanced by step^2 (see the AVX2 TU for the
/// drift bound; |step| = 1 in every caller).
template <bool Accum>
void phase_ramp_impl(cxd scale, cxd step, index_t n, cxd* out) {
  const cxd p1 = scale * step;
  const cxd s2 = step * step;
  float64x2_t v0 = {scale.real(), scale.imag()};
  float64x2_t v1 = {p1.real(), p1.imag()};
  const double cr = s2.real();
  const float64x2_t vci = {-s2.imag(), s2.imag()};
  double* od = reinterpret_cast<double*>(out);
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    if (Accum) {
      vst1q_f64(od + 2 * i, vaddq_f64(vld1q_f64(od + 2 * i), v0));
      vst1q_f64(od + 2 * i + 2, vaddq_f64(vld1q_f64(od + 2 * i + 2), v1));
    } else {
      vst1q_f64(od + 2 * i, v0);
      vst1q_f64(od + 2 * i + 2, v1);
    }
    v0 = cmla(vdupq_n_f64(0.0), v0, cr, vci);
    v1 = cmla(vdupq_n_f64(0.0), v1, cr, vci);
  }
  if (i < n) {  // odd count: one element left in the first chain
    const cxd p{vgetq_lane_f64(v0, 0), vgetq_lane_f64(v0, 1)};
    if (Accum) {
      out[i] += p;
    } else {
      out[i] = p;
    }
  }
}

void phase_ramp(cxd scale, cxd step, index_t n, cxd* out) {
  phase_ramp_impl<false>(scale, step, n, out);
}

void phase_ramp_accum(cxd scale, cxd step, index_t n, cxd* out) {
  phase_ramp_impl<true>(scale, step, n, out);
}

// The group-prox gradient pass reuses the scalar loop (scalar.cpp) and
// the CRC-32 the slicing-by-8 reference, so the two tables agree bit
// for bit on them.
constexpr Backend kNeon = {
    "simd-neon",     &gemm_tile, &gemm_cols,         &gemm_cols_depth,
    &gemm_adj_tile,  &soft_threshold, &row_sq_accumulate, &row_scale,
    &gradient_row_sq_scalar,          &phase_ramp,       &phase_ramp_accum,
    &crc32_sliced,
};

}  // namespace

const Backend* simd_neon_table() { return &kNeon; }

}  // namespace roarray::linalg::backend
