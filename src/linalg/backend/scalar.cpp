// The portable backend: today's hand-separated real-arithmetic kernels,
// moved here verbatim from linalg/gemm.cpp, sparse/prox.hpp,
// sparse/fista.cpp and dsp/steering.cpp (its CRC-32 entry is the
// slicing-by-8 of crc32.hpp). The loops moved but the arithmetic
// (expression trees, traversal order, zero-skips) did not, so this
// table reproduces the pre-backend results bit-for-bit. Keep it that
// way: the golden corpus and the cross-backend differential tests both
// anchor on this table.
#include "linalg/backend/backend.hpp"
#include "linalg/backend/crc32.hpp"

#include <array>
#include <cstring>
#include <utility>

namespace roarray::linalg::backend {

namespace {

/// C(i0:i1, j0:j1) += A(i0:i1, :) B(:, j0:j1) on interleaved storage.
/// Reduction over kk ascends for every (i, j), matching naive matmul.
void gemm_tile(index_t i0, index_t i1, index_t j0, index_t j1, index_t m,
               index_t k, const cxd* a, const cxd* b, cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const cxd* bj = b + j * k;
    double* cj = reinterpret_cast<double*>(c + j * m);
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t i = i0; i < i1; ++i) {
        const double ar = ak[2 * i];
        const double ai = ak[2 * i + 1];
        cj[2 * i] += ar * br - ai * bi;
        cj[2 * i + 1] += ar * bi + ai * br;
      }
    }
  }
}

/// C = A B (n columns) for an A with a compile-time row count.
/// The Kronecker fast path spends most of its time in GEMMs whose output
/// has only a few rows (the antenna count M, or M times the snapshot
/// count); the generic tile reloads and restores the C column on every
/// step of the k reduction there. Keeping the whole column in a
/// fixed-size accumulator removes that traffic. Reduction order and the
/// zero-skip match gemm_tile exactly, so results are bit-identical.
template <int M>
void gemm_cols_small(index_t n, index_t k, const cxd* a, const cxd* b,
                     cxd* c) {
  for (index_t j = 0; j < n; ++j) {
    const cxd* bj = b + j * k;
    double acc[2 * M] = {};
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const double* ak = reinterpret_cast<const double*>(a + kk * M);
      for (int i = 0; i < M; ++i) {
        acc[2 * i] += ak[2 * i] * br - ak[2 * i + 1] * bi;
        acc[2 * i + 1] += ak[2 * i] * bi + ak[2 * i + 1] * br;
      }
    }
    std::memcpy(c + j * M, acc, sizeof(acc));
  }
}

using SmallKernel = void (*)(index_t, index_t, const cxd*, const cxd*,
                             cxd*);

template <int... Ms>
constexpr std::array<SmallKernel, sizeof...(Ms)> small_kernel_table(
    std::integer_sequence<int, Ms...>) {
  return {&gemm_cols_small<Ms + 1>...};
}

constexpr auto kSmallKernels =
    small_kernel_table(std::make_integer_sequence<int, kSmallRowLimit>{});

void gemm_cols(index_t m, index_t n, index_t k, const cxd* a, const cxd* b,
               cxd* c) {
  kSmallKernels[static_cast<std::size_t>(m - 1)](n, k, a, b, c);
}

/// C = A B (n columns) for a compile-time reduction depth K.
/// This is the Kronecker adjoint's final product (tall output, inner
/// dimension = the antenna count). The loop structure is the generic
/// tile's (vectorizable contiguous sweep over the C column per
/// reduction step, ascending as always), but the first step stores
/// instead of accumulating — no memset of C and one fewer read pass
/// per column. Zero B entries are not skipped here: their terms are
/// exact +/-0, which leaves every sum's value unchanged versus the
/// zero-skipping kernels (only the sign of an all-zero sum can
/// differ).
template <int K>
void gemm_cols_small_depth(index_t m, index_t n, const cxd* a, const cxd* b,
                           cxd* c) {
  const double* ad = reinterpret_cast<const double*>(a);
  for (index_t j = 0; j < n; ++j) {
    const cxd* bj = b + j * K;
    double* cj = reinterpret_cast<double*>(c + j * m);
    {
      const double br = bj[0].real();
      const double bi = bj[0].imag();
      for (index_t i = 0; i < m; ++i) {
        const double ar = ad[2 * i];
        const double ai = ad[2 * i + 1];
        cj[2 * i] = ar * br - ai * bi;
        cj[2 * i + 1] = ar * bi + ai * br;
      }
    }
    for (int kk = 1; kk < K; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      const double* ak = ad + 2 * kk * m;
      for (index_t i = 0; i < m; ++i) {
        const double ar = ak[2 * i];
        const double ai = ak[2 * i + 1];
        cj[2 * i] += ar * br - ai * bi;
        cj[2 * i + 1] += ar * bi + ai * br;
      }
    }
  }
}

using SmallDepthKernel = void (*)(index_t, index_t, const cxd*, const cxd*,
                                  cxd*);

template <int... Ks>
constexpr std::array<SmallDepthKernel, sizeof...(Ks)> small_depth_table(
    std::integer_sequence<int, Ks...>) {
  return {&gemm_cols_small_depth<Ks + 1>...};
}

constexpr auto kSmallDepthKernels =
    small_depth_table(std::make_integer_sequence<int, kSmallDepthLimit>{});

void gemm_cols_depth(index_t m, index_t n, index_t k, const cxd* a,
                     const cxd* b, cxd* c) {
  kSmallDepthKernels[static_cast<std::size_t>(k - 1)](m, n, a, b, c);
}

/// C(i0:i1, j0:j1) = A(:, i0:i1)^H B(:, j0:j1): contiguous dot products
/// down the shared k dimension, ascending like naive matmul_adj_left.
void gemm_adj_tile(index_t i0, index_t i1, index_t j0, index_t j1,
                   index_t m, index_t k, const cxd* a, const cxd* b,
                   cxd* c) {
  for (index_t j = j0; j < j1; ++j) {
    const double* bj = reinterpret_cast<const double*>(b + j * k);
    cxd* cj = c + j * m;
    for (index_t i = i0; i < i1; ++i) {
      const double* ai = reinterpret_cast<const double*>(a + i * k);
      double sr = 0.0;
      double si = 0.0;
      for (index_t kk = 0; kk < k; ++kk) {
        const double ar = ai[2 * kk];
        const double aim = ai[2 * kk + 1];
        const double brr = bj[2 * kk];
        const double bii = bj[2 * kk + 1];
        sr += ar * brr + aim * bii;
        si += ar * bii - aim * brr;
      }
      cj[i] = cxd{sr, si};
    }
  }
}

/// acc[i] += |col[i]|^2, the column-major row-norm sweep of the group
/// prox and the l2,1 norm.
void row_sq_accumulate(const cxd* col, index_t n, double* acc) {
  const double* cj = reinterpret_cast<const double*>(col);
  for (index_t i = 0; i < n; ++i) {
    acc[i] += cj[2 * i] * cj[2 * i] + cj[2 * i + 1] * cj[2 * i + 1];
  }
}

/// col[i] *= scale[i], with scale[i] < 0 marking "write exact zero".
void row_scale(cxd* col, index_t n, const double* scale) {
  double* cj = reinterpret_cast<double*>(col);
  for (index_t i = 0; i < n; ++i) {
    const double s = scale[i];
    if (s < 0.0) {
      cj[2 * i] = 0.0;
      cj[2 * i + 1] = 0.0;
    } else {
      cj[2 * i] *= s;
      cj[2 * i + 1] *= s;
    }
  }
}

/// Squared row norms of one column of the group-prox gradient step: the
/// arithmetic of sparse::solve_group_l1's former fused pass, moved here
/// verbatim minus its store of the step.
void gradient_row_sq(const cxd* from, const cxd* grad, double step,
                            index_t n, double* row_sq) {
  const double* fd = reinterpret_cast<const double*>(from);
  const double* gd = reinterpret_cast<const double*>(grad);
  for (index_t i = 0; i < n; ++i) {
    const double xr = fd[2 * i] - step * gd[2 * i];
    const double xi = fd[2 * i + 1] - step * gd[2 * i + 1];
    row_sq[i] += xr * xr + xi * xi;
  }
}

/// out[i] = scale * step^i via the running-product recurrence — the
/// exact expression steering_joint evaluates (scale enters each
/// element as one multiply; the recurrence itself is never scaled, so
/// error does not compound through scale).
void phase_ramp(cxd scale, cxd step, index_t n, cxd* out) {
  cxd lm{1.0, 0.0};
  for (index_t i = 0; i < n; ++i) {
    out[i] = scale * lm;
    lm *= step;
  }
}

/// out[i] += scale * step^i (the CSI synthesis accumulation).
void phase_ramp_accum(cxd scale, cxd step, index_t n, cxd* out) {
  cxd lm{1.0, 0.0};
  for (index_t i = 0; i < n; ++i) {
    out[i] += scale * lm;
    lm *= step;
  }
}

constexpr Backend kScalar = {
    "scalar",         &gemm_tile,        &gemm_cols,  &gemm_cols_depth,
    &gemm_adj_tile,   &row_sq_accumulate, &row_scale, &gradient_row_sq,
    &phase_ramp,      &phase_ramp_accum,  &crc32_sliced,
};

}  // namespace

const Backend& scalar() { return kScalar; }

}  // namespace roarray::linalg::backend
