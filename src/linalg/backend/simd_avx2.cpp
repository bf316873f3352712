// AVX2+FMA backend, with a PCLMULQDQ CRC-32. Compiled only on x86-64
// with -mavx2 -mfma -mpclmul (the CMake list adds this TU per-source);
// backend.cpp gates table publication behind a runtime CPU check so the
// binary still runs on machines without the units.
//
// Layout notes. All buffers are interleaved (re, im) column-major, so
// one 256-bit lane holds two complex numbers. Two access schemes are
// used:
//   * interleaved: keep (re, im) adjacent and multiply by a broadcast
//     complex via one permute + two FMAs per vector
//     (gemm_cols/gemm_cols_depth/phase_ramp) — cheap for streaming
//     kernels whose b-scalar is reused across a whole column;
//   * planar: deinterleave four complex rows into a real and an
//     imaginary register via unpacklo/unpackhi (lane order is permuted
//     but consistent between the two, and folds back with the same
//     unpacks), so the GEMM inner loop is pure FMA with no shuffle
//     traffic (gemm_tile).
//
// Determinism: nothing here depends on the thread count — the tile
// partition comes from the caller, and every reduction (including the
// fixed-order horizontal folds in gemm_adj_tile) is a deterministic
// function of the operand shapes. Differences vs the scalar table are
// rounding-only and bounded by the per-kernel tolerances in
// backend.hpp, with one documented exception (zero-skip granularity in
// gemm_tile, which skips only all-zero B row groups so a zero B entry
// next to a nonzero one contributes exact +/-0 terms).
#include "linalg/backend/backend.hpp"
#include "linalg/backend/crc32.hpp"

#if !defined(__x86_64__) || !defined(__AVX2__) || !defined(__FMA__) || \
    !defined(__PCLMUL__)
#error "simd_avx2.cpp must be compiled on x86-64 with -mavx2 -mfma -mpclmul"
#endif

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

namespace roarray::linalg::backend {

namespace {

// k-chunk length for gemm_tile: bounds the A panel slice live in L2
// between C-accumulator spills (128 rows x 256 depth x 16 B = 512 KB
// worst case, typically far less because callers tile rows at 128).
constexpr index_t kKc = 256;

/// One j-group of the generic tile: C(i0:i1, j0..j0+NR) +=
/// A(i0:i1, kc:kend) B(kc:kend, j0..j0+NR). Four complex rows are
/// deinterleaved into planar registers; per reduction step the inner
/// body is 4 FMAs per column with no shuffles. Skips a reduction step
/// only when ALL NR b-entries are exactly zero — this still captures
/// the row-sparse iterates the zero-skip exists for (the group prox
/// zeros whole rows of B at once).
template <int NR>
void tile_panel(index_t i0, index_t i1, index_t j0, index_t kc, index_t kend,
                index_t m, index_t k, const cxd* a, const cxd* b, cxd* c) {
  // Planar repack of the B panel, once per (column group, k-chunk):
  // the i-loop below revisits every reduction step per row group, and
  // broadcasting from a hot contiguous pack beats re-reading the
  // strided B columns every time. nzf caches the zero-skip verdict.
  alignas(64) double brp[kKc * NR];
  alignas(64) double bip[kKc * NR];
  unsigned char nzf[kKc];
  const index_t klen = kend - kc;
  for (index_t kk = 0; kk < klen; ++kk) {
    bool any = false;
    for (int jj = 0; jj < NR; ++jj) {
      const cxd bv = b[(j0 + jj) * k + kc + kk];
      brp[kk * NR + jj] = bv.real();
      bip[kk * NR + jj] = bv.imag();
      any = any || bv.real() != 0.0 || bv.imag() != 0.0;
    }
    nzf[kk] = any ? 1 : 0;
  }
  // One named accumulator pair per column, fully unrolled: gcc keeps
  // named locals in ymm registers but spills a loop-indexed __m256d[NR]
  // to the stack (8 reloads + 8 stores per reduction step — measured
  // ~2x slower), so the jj loop is written out via these macros.
#define ROARRAY_TP_MAC(JJ)                                   \
  do {                                                       \
    const __m256d vbr = _mm256_broadcast_sd(brow + (JJ));    \
    const __m256d vbi = _mm256_broadcast_sd(birow + (JJ));   \
    cre##JJ = _mm256_fmadd_pd(are, vbr, cre##JJ);            \
    cre##JJ = _mm256_fnmadd_pd(aim, vbi, cre##JJ);           \
    cim##JJ = _mm256_fmadd_pd(are, vbi, cim##JJ);            \
    cim##JJ = _mm256_fmadd_pd(aim, vbr, cim##JJ);            \
  } while (0)
  // The unpacks that split (re, im) also interleave them back:
  // lo = rows i, i+1 and hi = rows i+2, i+3 in storage order.
#define ROARRAY_TP_STORE(JJ)                                           \
  do {                                                                 \
    double* cj = reinterpret_cast<double*>(c + (j0 + (JJ)) * m);       \
    const __m256d lo = _mm256_unpacklo_pd(cre##JJ, cim##JJ);           \
    const __m256d hi = _mm256_unpackhi_pd(cre##JJ, cim##JJ);           \
    _mm256_storeu_pd(cj + 2 * i,                                       \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i), lo));  \
    _mm256_storeu_pd(cj + 2 * i + 4,                                   \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i + 4), hi)); \
  } while (0)
  index_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    __m256d cre0 = _mm256_setzero_pd(), cim0 = _mm256_setzero_pd();
    [[maybe_unused]] __m256d cre1 = cre0, cim1 = cre0;
    [[maybe_unused]] __m256d cre2 = cre0, cim2 = cre0;
    [[maybe_unused]] __m256d cre3 = cre0, cim3 = cre0;
    for (index_t kk = 0; kk < klen; ++kk) {
      if (!nzf[kk]) continue;  // all-zero B row group: matmul's zero-skip
      const double* ak = reinterpret_cast<const double*>(a + (kc + kk) * m);
      const __m256d a0 = _mm256_loadu_pd(ak + 2 * i);
      const __m256d a1 = _mm256_loadu_pd(ak + 2 * i + 4);
      const __m256d are = _mm256_unpacklo_pd(a0, a1);  // rows i,i+2,i+1,i+3
      const __m256d aim = _mm256_unpackhi_pd(a0, a1);  // same permuted order
      const double* brow = brp + kk * NR;
      const double* birow = bip + kk * NR;
      ROARRAY_TP_MAC(0);
      if constexpr (NR > 1) ROARRAY_TP_MAC(1);
      if constexpr (NR > 2) ROARRAY_TP_MAC(2);
      if constexpr (NR > 3) ROARRAY_TP_MAC(3);
    }
    ROARRAY_TP_STORE(0);
    if constexpr (NR > 1) ROARRAY_TP_STORE(1);
    if constexpr (NR > 2) ROARRAY_TP_STORE(2);
    if constexpr (NR > 3) ROARRAY_TP_STORE(3);
  }
#undef ROARRAY_TP_MAC
#undef ROARRAY_TP_STORE
  // Row tail (i1 - i < 4): the scalar kernel restricted to these rows,
  // per-entry zero-skip and all — the same rows land here on every
  // call, so the table stays deterministic.
  for (int jj = 0; jj < NR; ++jj) {
    const cxd* bj = b + (j0 + jj) * k;
    double* cj = reinterpret_cast<double*>(c + (j0 + jj) * m);
    for (index_t kk = kc; kk < kend; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t ii = i; ii < i1; ++ii) {
        const double ar = ak[2 * ii];
        const double ai = ak[2 * ii + 1];
        cj[2 * ii] += ar * br - ai * bi;
        cj[2 * ii + 1] += ar * bi + ai * br;
      }
    }
  }
}

// Column-chunk width for the packed fast path below: bounds the B pack
// at 2 x kKc x kJc doubles (128 KB) of stack.
constexpr index_t kJc = 32;

/// Packed fast path: C(i0:i1, jc:jc+4*ngroups) += A(i0:i1, kc:kend)
/// B(kc:kend, ...) with BOTH operands repacked planar. B is packed once
/// per (column chunk, k-chunk); each four-row A quad is packed once and
/// reused across every column group, turning the stride-m A walk into
/// contiguous aligned loads (the strided walk defeats the hardware
/// prefetcher past each 4 KB page and was the measured bottleneck).
/// Accumulation per output element is unchanged: ascending kk, one
/// visit per (element, chunk).
void tile_packed(index_t i0, index_t i1, index_t jc, index_t ngroups,
                 index_t kc, index_t kend, index_t m, index_t k,
                 const cxd* a, const cxd* b, cxd* c) {
  alignas(64) double brp[kKc * kJc];
  alignas(64) double bip[kKc * kJc];
  alignas(64) double apre[kKc * 4];
  alignas(64) double apim[kKc * 4];
  unsigned char nzf[(kJc / 4) * kKc];   // per-group zero-skip verdicts
  unsigned char nzany[kKc];             // OR over groups: skip the A pack too
  const index_t klen = kend - kc;
  std::memset(nzany, 0, static_cast<std::size_t>(klen));
  for (index_t g = 0; g < ngroups; ++g) {
    for (index_t kk = 0; kk < klen; ++kk) {
      bool any = false;
      for (index_t jj = 0; jj < 4; ++jj) {
        const cxd bv = b[(jc + 4 * g + jj) * k + kc + kk];
        brp[(g * kKc + kk) * 4 + jj] = bv.real();
        bip[(g * kKc + kk) * 4 + jj] = bv.imag();
        any = any || bv.real() != 0.0 || bv.imag() != 0.0;
      }
      nzf[g * kKc + kk] = any ? 1 : 0;
      nzany[kk] |= nzf[g * kKc + kk];
    }
  }
#define ROARRAY_TP_MAC(JJ)                                   \
  do {                                                       \
    const __m256d vbr = _mm256_broadcast_sd(brow + (JJ));    \
    const __m256d vbi = _mm256_broadcast_sd(birow + (JJ));   \
    cre##JJ = _mm256_fmadd_pd(are, vbr, cre##JJ);            \
    cre##JJ = _mm256_fnmadd_pd(aim, vbi, cre##JJ);           \
    cim##JJ = _mm256_fmadd_pd(are, vbi, cim##JJ);            \
    cim##JJ = _mm256_fmadd_pd(aim, vbr, cim##JJ);            \
  } while (0)
#define ROARRAY_TP_STORE(JJ)                                           \
  do {                                                                 \
    double* cj = reinterpret_cast<double*>(c + (j + (JJ)) * m);        \
    const __m256d lo = _mm256_unpacklo_pd(cre##JJ, cim##JJ);           \
    const __m256d hi = _mm256_unpackhi_pd(cre##JJ, cim##JJ);           \
    _mm256_storeu_pd(cj + 2 * i,                                       \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i), lo));  \
    _mm256_storeu_pd(cj + 2 * i + 4,                                   \
                     _mm256_add_pd(_mm256_loadu_pd(cj + 2 * i + 4), hi)); \
  } while (0)
  index_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    // Planar A quad: rows i..i+3 of the chunk, deinterleaved once. The
    // in-lane unpack order (i, i+2, i+1, i+3) is the same one the store
    // unpacks fold back, so it never leaks. kk steps that every group
    // skips are never read (their pack slots stay stale and unread).
    for (index_t kk = 0; kk < klen; ++kk) {
      if (!nzany[kk]) continue;
      const double* ak = reinterpret_cast<const double*>(a + (kc + kk) * m);
      const __m256d a0 = _mm256_loadu_pd(ak + 2 * i);
      const __m256d a1 = _mm256_loadu_pd(ak + 2 * i + 4);
      _mm256_store_pd(apre + 4 * kk, _mm256_unpacklo_pd(a0, a1));
      _mm256_store_pd(apim + 4 * kk, _mm256_unpackhi_pd(a0, a1));
    }
    for (index_t g = 0; g < ngroups; ++g) {
      const index_t j = jc + 4 * g;
      const unsigned char* gz = nzf + g * kKc;
      const double* gbr = brp + g * kKc * 4;
      const double* gbi = bip + g * kKc * 4;
      __m256d cre0 = _mm256_setzero_pd(), cim0 = _mm256_setzero_pd();
      __m256d cre1 = cre0, cim1 = cre0;
      __m256d cre2 = cre0, cim2 = cre0;
      __m256d cre3 = cre0, cim3 = cre0;
      for (index_t kk = 0; kk < klen; ++kk) {
        if (!gz[kk]) continue;  // all-zero B row group: matmul's zero-skip
        const __m256d are = _mm256_load_pd(apre + 4 * kk);
        const __m256d aim = _mm256_load_pd(apim + 4 * kk);
        const double* brow = gbr + 4 * kk;
        const double* birow = gbi + 4 * kk;
        ROARRAY_TP_MAC(0);
        ROARRAY_TP_MAC(1);
        ROARRAY_TP_MAC(2);
        ROARRAY_TP_MAC(3);
      }
      ROARRAY_TP_STORE(0);
      ROARRAY_TP_STORE(1);
      ROARRAY_TP_STORE(2);
      ROARRAY_TP_STORE(3);
    }
  }
#undef ROARRAY_TP_MAC
#undef ROARRAY_TP_STORE
  // Row tail (i1 - i < 4): the scalar kernel restricted to these rows,
  // per-entry zero-skip and all — the same rows land here on every
  // call, so the table stays deterministic.
  for (index_t j = jc; j < jc + 4 * ngroups; ++j) {
    const cxd* bj = b + j * k;
    double* cj = reinterpret_cast<double*>(c + j * m);
    for (index_t kk = kc; kk < kend; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;
      const double* ak = reinterpret_cast<const double*>(a + kk * m);
      for (index_t ii = i; ii < i1; ++ii) {
        const double ar = ak[2 * ii];
        const double ai = ak[2 * ii + 1];
        cj[2 * ii] += ar * br - ai * bi;
        cj[2 * ii + 1] += ar * bi + ai * br;
      }
    }
  }
}

void gemm_tile(index_t i0, index_t i1, index_t j0, index_t j1, index_t m,
               index_t k, const cxd* a, const cxd* b, cxd* c) {
  // Chunk columns (bounds the B pack) then the reduction (keeps the A
  // slice L2-resident between C-accumulator spills); per output element
  // the chunks, and the steps inside each chunk, still accumulate in
  // ascending k order, and the partition depends only on the shapes.
  for (index_t jc = j0; jc < j1; jc += kJc) {
    const index_t jend = std::min(j1, jc + kJc);
    const index_t ngroups = (jend - jc) / 4;
    const index_t jt = jc + 4 * ngroups;  // first tail column (< 4 left)
    for (index_t kc = 0; kc < k; kc += kKc) {
      const index_t kend = std::min(k, kc + kKc);
      if (ngroups > 0) {
        tile_packed(i0, i1, jc, ngroups, kc, kend, m, k, a, b, c);
      }
      switch (jend - jt) {
        case 3: tile_panel<3>(i0, i1, jt, kc, kend, m, k, a, b, c); break;
        case 2: tile_panel<2>(i0, i1, jt, kc, kend, m, k, a, b, c); break;
        case 1: tile_panel<1>(i0, i1, jt, kc, kend, m, k, a, b, c); break;
        default: break;
      }
    }
  }
}

// Sign mask [-0, +0, -0, +0]: xor-ing a broadcast bi produces
// [-bi, +bi, ...], the multiplier that turns one permute + FMA into a
// complex multiply-accumulate on interleaved lanes.
#define ROARRAY_SIGN_EVEN() _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)

/// C = A B (n columns) for a compile-time row count M <= 16,
/// one column at a time. Whole C column lives in registers (ceil(M/2)
/// vectors); per reduction step: one contiguous A-column load, one
/// in-lane permute, two FMAs per vector. Zero-skip matches the scalar
/// kernel per entry. Used as is for M > 7, and for the leftover columns
/// of cols_blocked below.
template <int M>
void cols_kernel(index_t n, index_t k, const cxd* a, const cxd* b,
                 cxd* c) {
  constexpr int NV = M / 2;           // full 2-complex vectors
  constexpr bool kTail = (M % 2) != 0;  // odd row count: one xmm lane
  const __m256d sign = ROARRAY_SIGN_EVEN();
  const double* ad = reinterpret_cast<const double*>(a);
  for (index_t j = 0; j < n; ++j) {
    const cxd* bj = b + j * k;
    __m256d acc[NV > 0 ? NV : 1];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
    [[maybe_unused]] __m128d tacc = _mm_setzero_pd();
    for (index_t kk = 0; kk < k; ++kk) {
      const double br = bj[kk].real();
      const double bi = bj[kk].imag();
      if (br == 0.0 && bi == 0.0) continue;  // matmul's zero-skip
      const __m256d vbr = _mm256_set1_pd(br);
      const __m256d vbi = _mm256_xor_pd(_mm256_set1_pd(bi), sign);
      const double* ak = ad + 2 * kk * M;
      for (int v = 0; v < NV; ++v) {
        const __m256d va = _mm256_loadu_pd(ak + 4 * v);
        acc[v] = _mm256_fmadd_pd(va, vbr, acc[v]);
        acc[v] = _mm256_fmadd_pd(_mm256_permute_pd(va, 0x5), vbi, acc[v]);
      }
      if constexpr (kTail) {
        const __m128d ta = _mm_loadu_pd(ak + 4 * NV);
        tacc = _mm_fmadd_pd(ta, _mm_set1_pd(br), tacc);
        tacc = _mm_fmadd_pd(_mm_shuffle_pd(ta, ta, 0x1),
                            _mm_setr_pd(-bi, bi), tacc);
      }
    }
    double* cj = reinterpret_cast<double*>(c + j * M);
    for (int v = 0; v < NV; ++v) _mm256_storeu_pd(cj + 4 * v, acc[v]);
    if constexpr (kTail) _mm_storeu_pd(cj + 4 * NV, tacc);
  }
}

/// Columns per pass of cols_blocked: enough independent accumulator
/// chains to hide the FMA latency, few enough that the NB * ceil(M/2)
/// accumulators plus the shared A registers fit the 16 ymm registers
/// (M = 7 spills a few and still runs ~2x faster than one column).
template <int M>
inline constexpr int kColsBlock = M <= 4 ? 4 : 2;

/// cols_kernel for M <= 7, NB = kColsBlock<M> columns per pass. One
/// column alone gives each reduction step a chain of two dependent FMAs
/// per accumulator, so cols_kernel waits on FMA latency at small M; here
/// NB columns share each A-column load and interleave NB independent
/// chains. Exactness: every output element sees cols_kernel's FMA
/// sequence (same operands, same order), and a column whose B entry is
/// zero does no FMA at that step (the per-entry zero-skip), so results
/// are bit-identical to cols_kernel. The zero tests run four reduction
/// steps at a time on whole vectors: a group of steps whose NB x 4
/// entries are all +/-0 is skipped after one OR-and-test (the row-sparse
/// FISTA iterates make this the common case), otherwise one compare per
/// vector yields every entry's verdict. The accumulators are named
/// locals, not an array (see the tile_panel note on gcc spilling
/// __m256d arrays).
template <int M>
void cols_blocked(index_t n, index_t k, const cxd* a, const cxd* b,
                  cxd* c) {
  constexpr int NB = kColsBlock<M>;
  constexpr int NV = M / 2;
  constexpr bool kTail = (M % 2) != 0;
  static_assert(NV <= 3 && NB <= 4, "named accumulators cover M <= 7");
  const __m256d sign = ROARRAY_SIGN_EVEN();
  const __m256d zero = _mm256_setzero_pd();
  const __m256i magnitude = _mm256_set1_epi64x(0x7fffffffffffffffLL);
  const double* ad = reinterpret_cast<const double*>(a);
  // Reduction step KK for every column whose verdict bit (bit 8C of NZ)
  // is set. accCV: column C, row pair V; tailC: column C's odd last row.
#define ROARRAY_CB_MAC(C, KK, NZ)                                          \
  do {                                                                     \
    if ((NZ) & (1u << (8 * (C)))) {                                        \
      const double* bc = bd + 2 * ((C) * k + (KK));                        \
      const __m256d vbr = _mm256_broadcast_sd(bc);                         \
      const __m256d vbi = _mm256_xor_pd(_mm256_broadcast_sd(bc + 1), sign); \
      if constexpr (NV > 0) {                                              \
        acc##C##0 = _mm256_fmadd_pd(va0, vbr, acc##C##0);                  \
        acc##C##0 = _mm256_fmadd_pd(vp0, vbi, acc##C##0);                  \
      }                                                                    \
      if constexpr (NV > 1) {                                              \
        acc##C##1 = _mm256_fmadd_pd(va1, vbr, acc##C##1);                  \
        acc##C##1 = _mm256_fmadd_pd(vp1, vbi, acc##C##1);                  \
      }                                                                    \
      if constexpr (NV > 2) {                                              \
        acc##C##2 = _mm256_fmadd_pd(va2, vbr, acc##C##2);                  \
        acc##C##2 = _mm256_fmadd_pd(vp2, vbi, acc##C##2);                  \
      }                                                                    \
      if constexpr (kTail) {                                               \
        tail##C = _mm_fmadd_pd(ta, _mm256_castpd256_pd128(vbr), tail##C);  \
        tail##C = _mm_fmadd_pd(tp, _mm256_castpd256_pd128(vbi), tail##C);  \
      }                                                                    \
    }                                                                      \
  } while (0)
#define ROARRAY_CB_STEP(KK, NZ)                                            \
  do {                                                                     \
    const double* ak = ad + 2 * (KK) * M;                                  \
    [[maybe_unused]] const __m256d va0 =                                   \
        NV > 0 ? _mm256_loadu_pd(ak) : zero;                               \
    [[maybe_unused]] const __m256d va1 =                                   \
        NV > 1 ? _mm256_loadu_pd(ak + 4) : zero;                           \
    [[maybe_unused]] const __m256d va2 =                                   \
        NV > 2 ? _mm256_loadu_pd(ak + 8) : zero;                           \
    [[maybe_unused]] const __m256d vp0 = _mm256_permute_pd(va0, 0x5);      \
    [[maybe_unused]] const __m256d vp1 = _mm256_permute_pd(va1, 0x5);      \
    [[maybe_unused]] const __m256d vp2 = _mm256_permute_pd(va2, 0x5);      \
    [[maybe_unused]] const __m128d ta =                                    \
        kTail ? _mm_loadu_pd(ak + 4 * NV) : _mm_setzero_pd();              \
    [[maybe_unused]] const __m128d tp = _mm_shuffle_pd(ta, ta, 0x1);       \
    ROARRAY_CB_MAC(0, KK, NZ);                                             \
    if constexpr (NB > 1) ROARRAY_CB_MAC(1, KK, NZ);                       \
    if constexpr (NB > 2) ROARRAY_CB_MAC(2, KK, NZ);                       \
    if constexpr (NB > 3) ROARRAY_CB_MAC(3, KK, NZ);                       \
  } while (0)
#define ROARRAY_CB_STORE(C)                                                \
  do {                                                                     \
    double* cj = reinterpret_cast<double*>(c + (j + (C)) * M);             \
    if constexpr (NV > 0) _mm256_storeu_pd(cj, acc##C##0);                 \
    if constexpr (NV > 1) _mm256_storeu_pd(cj + 4, acc##C##1);             \
    if constexpr (NV > 2) _mm256_storeu_pd(cj + 8, acc##C##2);             \
    if constexpr (kTail) _mm_storeu_pd(cj + 4 * NV, tail##C);              \
  } while (0)
  index_t j = 0;
  for (; j + NB <= n; j += NB) {
    const double* bd = reinterpret_cast<const double*>(b + j * k);
    [[maybe_unused]] __m256d acc00 = zero, acc01 = zero, acc02 = zero;
    [[maybe_unused]] __m256d acc10 = zero, acc11 = zero, acc12 = zero;
    [[maybe_unused]] __m256d acc20 = zero, acc21 = zero, acc22 = zero;
    [[maybe_unused]] __m256d acc30 = zero, acc31 = zero, acc32 = zero;
    [[maybe_unused]] __m128d tail0 = _mm_setzero_pd(), tail1 = tail0,
                             tail2 = tail0, tail3 = tail0;
    index_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      // Steps kk..kk+3: two vectors per column hold all four entries.
      __m256d any = zero;
      for (int cc = 0; cc < NB; ++cc) {
        const double* bc = bd + 2 * (cc * k + kk);
        any = _mm256_or_pd(
            any, _mm256_or_pd(_mm256_loadu_pd(bc), _mm256_loadu_pd(bc + 4)));
      }
      // Every entry +/-0 (only sign bits set): no column does any FMA.
      if (_mm256_testz_si256(_mm256_castpd_si256(any), magnitude)) continue;
      // Bit 8cc + 2s: column cc's entry at step kk + s is nonzero (NaN
      // counts as nonzero, as in the scalar test).
      unsigned bits = 0;
      for (int cc = 0; cc < NB; ++cc) {
        const double* bc = bd + 2 * (cc * k + kk);
        const unsigned lo = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(bc), zero, _CMP_NEQ_UQ)));
        const unsigned hi = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(bc + 4), zero, _CMP_NEQ_UQ)));
        bits |= (lo | (hi << 4)) << (8 * cc);
      }
      bits = (bits | (bits >> 1)) & 0x55555555u;
      for (int s = 0; s < 4; ++s) {
        const unsigned nz = (bits >> (2 * s)) & 0x01010101u;
        if (nz == 0) continue;
        ROARRAY_CB_STEP(kk + s, nz);
      }
    }
    for (; kk < k; ++kk) {  // k % 4 leftover steps: scalar zero tests
      unsigned nz = 0;
      for (int cc = 0; cc < NB; ++cc) {
        const double* bc = bd + 2 * (cc * k + kk);
        nz |= static_cast<unsigned>((bc[0] != 0.0) | (bc[1] != 0.0))
              << (8 * cc);
      }
      if (nz == 0) continue;
      ROARRAY_CB_STEP(kk, nz);
    }
    ROARRAY_CB_STORE(0);
    if constexpr (NB > 1) ROARRAY_CB_STORE(1);
    if constexpr (NB > 2) ROARRAY_CB_STORE(2);
    if constexpr (NB > 3) ROARRAY_CB_STORE(3);
  }
#undef ROARRAY_CB_MAC
#undef ROARRAY_CB_STEP
#undef ROARRAY_CB_STORE
  if (j < n) cols_kernel<M>(n - j, k, a, b + j * k, c + j * M);
}

using ColsKernel = void (*)(index_t, index_t, const cxd*, const cxd*, cxd*);

/// Fixed-height kernel for row count M: column-blocked up to M = 7,
/// one column at a time above (where one column already carries four or
/// more independent accumulator chains).
template <int M>
constexpr ColsKernel cols_entry() {
  if constexpr (M <= 7) {
    return &cols_blocked<M>;
  } else {
    return &cols_kernel<M>;
  }
}

template <int... Ms>
constexpr std::array<ColsKernel, sizeof...(Ms)> cols_table(
    std::integer_sequence<int, Ms...>) {
  return {cols_entry<Ms + 1>()...};
}

constexpr auto kColsKernels =
    cols_table(std::make_integer_sequence<int, kSmallRowLimit>{});

void gemm_cols(index_t m, index_t n, index_t k, const cxd* a, const cxd* b,
               cxd* c) {
  kColsKernels[static_cast<std::size_t>(m - 1)](n, k, a, b, c);
}

/// C = A B (n columns) for a compile-time depth K <= 8: the B
/// factors are hoisted into per-depth broadcast registers once per
/// column, then each C vector is produced in one pass over the K
/// contiguous A columns. K is a template parameter so the fully
/// unrolled broadcast arrays live in registers (a runtime K keeps them
/// in a loop-indexed stack array, reloaded every step). No zero-skip,
/// matching the scalar fixed-depth kernel (exact +/-0 terms).
template <int K>
void cols_depth_kernel(index_t m, index_t n, const cxd* a, const cxd* b,
                       cxd* c) {
  const __m256d sign = ROARRAY_SIGN_EVEN();
  const double* ad = reinterpret_cast<const double*>(a);
  for (index_t j = 0; j < n; ++j) {
    const double* bj = reinterpret_cast<const double*>(b + j * K);
    __m256d vbr[K];
    __m256d vbi[K];
#pragma GCC unroll 8
    for (int kk = 0; kk < K; ++kk) {
      vbr[kk] = _mm256_broadcast_sd(bj + 2 * kk);
      vbi[kk] = _mm256_xor_pd(_mm256_broadcast_sd(bj + 2 * kk + 1), sign);
    }
    double* cj = reinterpret_cast<double*>(c + j * m);
    index_t i = 0;
    for (; i + 2 <= m; i += 2) {
      __m256d acc = _mm256_setzero_pd();
#pragma GCC unroll 8
      for (int kk = 0; kk < K; ++kk) {
        const __m256d va = _mm256_loadu_pd(ad + 2 * kk * m + 2 * i);
        acc = _mm256_fmadd_pd(va, vbr[kk], acc);
        acc = _mm256_fmadd_pd(_mm256_permute_pd(va, 0x5), vbi[kk], acc);
      }
      _mm256_storeu_pd(cj + 2 * i, acc);
    }
    if (i < m) {  // odd row count: final complex in an xmm lane
      __m128d acc = _mm_setzero_pd();
#pragma GCC unroll 8
      for (int kk = 0; kk < K; ++kk) {
        const __m128d ta = _mm_loadu_pd(ad + 2 * kk * m + 2 * i);
        acc = _mm_fmadd_pd(ta, _mm256_castpd256_pd128(vbr[kk]), acc);
        acc = _mm_fmadd_pd(_mm_shuffle_pd(ta, ta, 0x1),
                           _mm256_castpd256_pd128(vbi[kk]), acc);
      }
      _mm_storeu_pd(cj + 2 * i, acc);
    }
  }
}

using ColsDepthKernel = void (*)(index_t, index_t, const cxd*, const cxd*,
                                 cxd*);

template <int... Ks>
constexpr std::array<ColsDepthKernel, sizeof...(Ks)> cols_depth_table(
    std::integer_sequence<int, Ks...>) {
  return {&cols_depth_kernel<Ks + 1>...};
}

constexpr auto kColsDepthKernels =
    cols_depth_table(std::make_integer_sequence<int, kSmallDepthLimit>{});

void gemm_cols_depth(index_t m, index_t n, index_t k, const cxd* a,
                     const cxd* b, cxd* c) {
  kColsDepthKernels[static_cast<std::size_t>(k - 1)](m, n, a, b, c);
}

/// C(i0:i1, j0:j1) = A(:, i0:i1)^H B(:, j0:j1). Each dot product keeps
/// two vector accumulators (aligned and swapped products) over the
/// contiguous k dimension; the horizontal fold at the end runs in one
/// fixed order, so results depend only on the shapes (NOT on the thread
/// count), but the lane-split partial sums round differently from the
/// scalar ascending sum — rounding-tolerance only.
void gemm_adj_tile(index_t i0, index_t i1, index_t j0, index_t j1,
                   index_t m, index_t k, const cxd* a, const cxd* b,
                   cxd* c) {
  const __m256d sign_odd = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  for (index_t j = j0; j < j1; ++j) {
    const double* bj = reinterpret_cast<const double*>(b + j * k);
    cxd* cj = c + j * m;
    for (index_t i = i0; i < i1; ++i) {
      const double* ai = reinterpret_cast<const double*>(a + i * k);
      __m256d acc1 = _mm256_setzero_pd();  // lanes: ar*br, aim*bii
      __m256d acc2 = _mm256_setzero_pd();  // lanes: ar*bii, aim*br
      index_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const __m256d va = _mm256_loadu_pd(ai + 2 * kk);
        const __m256d vb = _mm256_loadu_pd(bj + 2 * kk);
        acc1 = _mm256_fmadd_pd(va, vb, acc1);
        acc2 = _mm256_fmadd_pd(va, _mm256_permute_pd(vb, 0x5), acc2);
      }
      // sr = sum of acc1 lanes; si = acc2 with odd lanes negated.
      acc2 = _mm256_xor_pd(acc2, sign_odd);
      const __m128d s1 = _mm_add_pd(_mm256_castpd256_pd128(acc1),
                                    _mm256_extractf128_pd(acc1, 1));
      const __m128d s2 = _mm_add_pd(_mm256_castpd256_pd128(acc2),
                                    _mm256_extractf128_pd(acc2, 1));
      double sr = _mm_cvtsd_f64(s1) + _mm_cvtsd_f64(_mm_unpackhi_pd(s1, s1));
      double si = _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
      for (; kk < k; ++kk) {  // odd reduction tail
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

/// acc[i] += |col[i]|^2 (group-prox row sweep), two rows per step.
void row_sq_accumulate(const cxd* col, index_t n, double* acc) {
  const double* cj = reinterpret_cast<const double*>(col);
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(cj + 2 * i);
    const __m256d sq = _mm256_mul_pd(va, va);
    const __m128d lo = _mm256_castpd256_pd128(sq);
    const __m128d hi = _mm256_extractf128_pd(sq, 1);
    const __m128d s = _mm_add_pd(_mm_unpacklo_pd(lo, hi),
                                 _mm_unpackhi_pd(lo, hi));
    _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i), s));
  }
  for (; i < n; ++i) {
    acc[i] += cj[2 * i] * cj[2 * i] + cj[2 * i + 1] * cj[2 * i + 1];
  }
}

/// col[i] *= scale[i], exact +0 where scale[i] < 0 (the group-prox
/// "zero the row" marker). Same multiplies as scalar: bit-identical.
void row_scale(cxd* col, index_t n, const double* scale) {
  double* cj = reinterpret_cast<double*>(col);
  const __m256d zero = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d s2 = _mm_loadu_pd(scale + i);
    const __m256d vs = _mm256_set_m128d(_mm_unpackhi_pd(s2, s2),
                                        _mm_unpacklo_pd(s2, s2));
    const __m256d lt = _mm256_cmp_pd(vs, zero, _CMP_LT_OQ);
    const __m256d r = _mm256_andnot_pd(
        lt, _mm256_mul_pd(_mm256_loadu_pd(cj + 2 * i), vs));
    _mm256_storeu_pd(cj + 2 * i, r);
  }
  for (; i < n; ++i) {
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

// gcc lowers _mm256_mul_pd / _mm256_sub_pd to plain vector arithmetic,
// and with this TU's -mfma it contracts a multiply feeding an add or
// subtract into one FMA (gcc 12, -O2 -std=c++20), intrinsics or not.
// Kernels that promise the scalar table's rounding switch contraction
// off for their own body; clang contracts only within one source
// expression, so the intrinsic calls already stay separate there.
#if defined(__clang__)
#define ROARRAY_NO_FP_CONTRACT
#else
#define ROARRAY_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif

/// Squared row norms of one column of the group-prox gradient step,
/// four rows per iteration: row_sq += re^2 + im^2 of from - step * grad.
/// Each multiply, subtract and add rounds on its own, like the scalar
/// loop (which the baseline x86-64 target compiles without FMA), so the
/// two tables are bit-identical here. hadd pairs re^2 + im^2 of rows
/// (i, i+2) and (i+1, i+3); the 64-bit permute restores row order.
ROARRAY_NO_FP_CONTRACT
void gradient_row_sq(const cxd* from, const cxd* grad, double step,
                     index_t n, double* row_sq) {
  const double* fd = reinterpret_cast<const double*>(from);
  const double* gd = reinterpret_cast<const double*>(grad);
  const __m256d vs = _mm256_set1_pd(step);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x0 = _mm256_sub_pd(
        _mm256_loadu_pd(fd + 2 * i),
        _mm256_mul_pd(vs, _mm256_loadu_pd(gd + 2 * i)));
    const __m256d x1 = _mm256_sub_pd(
        _mm256_loadu_pd(fd + 2 * i + 4),
        _mm256_mul_pd(vs, _mm256_loadu_pd(gd + 2 * i + 4)));
    const __m256d sq = _mm256_permute4x64_pd(
        _mm256_hadd_pd(_mm256_mul_pd(x0, x0), _mm256_mul_pd(x1, x1)), 0xD8);
    _mm256_storeu_pd(row_sq + i,
                     _mm256_add_pd(_mm256_loadu_pd(row_sq + i), sq));
  }
  for (; i < n; ++i) {  // row tail: the same operations on one complex
    const __m128d x = _mm_sub_pd(
        _mm_loadu_pd(fd + 2 * i),
        _mm_mul_pd(_mm256_castpd256_pd128(vs), _mm_loadu_pd(gd + 2 * i)));
    const __m128d sq = _mm_mul_pd(x, x);
    const __m128d norm = _mm_add_sd(sq, _mm_unpackhi_pd(sq, sq));
    row_sq[i] = _mm_cvtsd_f64(_mm_add_sd(_mm_set_sd(row_sq[i]), norm));
  }
}

#undef ROARRAY_NO_FP_CONTRACT

/// out[i] (+)= scale * step^i, four elements per iteration: two
/// two-element chains each advanced by step^4 (one permute, one
/// multiply, one fmaddsub per chain). The chained products drift from
/// the scalar recurrence by O(n eps) — |step| = 1 in every caller, so
/// the products stay O(|scale|).
template <bool Accum>
void phase_ramp_impl(cxd scale, cxd step, index_t n, cxd* out) {
  const cxd p1 = scale * step;
  const cxd p2 = p1 * step;
  const cxd p3 = p2 * step;
  const cxd s2 = step * step;
  const cxd s4 = s2 * s2;
  __m256d v0 = _mm256_setr_pd(scale.real(), scale.imag(), p1.real(), p1.imag());
  __m256d v1 = _mm256_setr_pd(p2.real(), p2.imag(), p3.real(), p3.imag());
  const __m256d cr = _mm256_set1_pd(s4.real());
  const __m256d ci = _mm256_set1_pd(s4.imag());
  double* od = reinterpret_cast<double*>(out);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (Accum) {
      _mm256_storeu_pd(od + 2 * i,
                       _mm256_add_pd(_mm256_loadu_pd(od + 2 * i), v0));
      _mm256_storeu_pd(od + 2 * i + 4,
                       _mm256_add_pd(_mm256_loadu_pd(od + 2 * i + 4), v1));
    } else {
      _mm256_storeu_pd(od + 2 * i, v0);
      _mm256_storeu_pd(od + 2 * i + 4, v1);
    }
    v0 = _mm256_fmaddsub_pd(v0, cr,
                            _mm256_mul_pd(_mm256_permute_pd(v0, 0x5), ci));
    v1 = _mm256_fmaddsub_pd(v1, cr,
                            _mm256_mul_pd(_mm256_permute_pd(v1, 0x5), ci));
  }
  if (i < n) {  // up to three elements left in the chain registers
    alignas(32) double buf[8];
    _mm256_store_pd(buf, v0);
    _mm256_store_pd(buf + 4, v1);
    for (int idx = 0; i < n; ++i, ++idx) {
      const cxd p{buf[2 * idx], buf[2 * idx + 1]};
      if (Accum) {
        out[i] += p;
      } else {
        out[i] = p;
      }
    }
  }
}

void phase_ramp(cxd scale, cxd step, index_t n, cxd* out) {
  phase_ramp_impl<false>(scale, step, n, out);
}

void phase_ramp_accum(cxd scale, cxd step, index_t n, cxd* out) {
  phase_ramp_impl<true>(scale, step, n, out);
}

#undef ROARRAY_SIGN_EVEN

// CRC-32 by carry-less multiplication (V. Gopal, E. Ozturk et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009), in the bit-reflected domain of the
// 0xEDB88320 polynomial P. Four 128-bit lanes each carry a running
// remainder; one fold multiplies a lane's two 64-bit halves by
// x^(e + 32) and x^(e - 32) mod P, which moves the lane e bits further
// along the message, and xors in the next 16 bytes. Four-lane folds
// stride 64 bytes (e = 512), the lane merge and single-lane folds 16
// (e = 128). Two more folds bring the remainder to 64 bits, and a
// Barrett reduction to the 32-bit state. Integer arithmetic
// throughout: the state equals the slicing-by-8 one bit for bit.

/// The 33-bit fold multiplier (x^e mod P), bit-reflected and shifted
/// left by one so the carry-less product lines up with the reflected
/// data. Stepping x^i -> x^(i+1) is a right shift in the reflected
/// domain, reduced by P whenever a bit falls off.
constexpr std::uint64_t crc32_fold_constant(int e) {
  std::uint32_t r = 0x80000000U;  // x^0, reflected
  for (int i = 0; i < e; ++i) {
    r = (r & 1U) != 0 ? (r >> 1) ^ 0xEDB88320U : r >> 1;
  }
  return static_cast<std::uint64_t>(r) << 1;
}

constexpr std::uint64_t kCrcK1 = crc32_fold_constant(4 * 128 + 32);
constexpr std::uint64_t kCrcK2 = crc32_fold_constant(4 * 128 - 32);
constexpr std::uint64_t kCrcK3 = crc32_fold_constant(128 + 32);
constexpr std::uint64_t kCrcK4 = crc32_fold_constant(128 - 32);
constexpr std::uint64_t kCrcK5 = crc32_fold_constant(64);
// The paper's published values for the CRC-32 polynomial.
static_assert(kCrcK1 == 0x154442BD4ULL && kCrcK2 == 0x1C6E41596ULL &&
              kCrcK3 == 0x1751997D0ULL && kCrcK4 == 0x0CCAA009EULL &&
              kCrcK5 == 0x163CD6124ULL);
/// Barrett reduction: P itself (33 bits, reflected) and
/// mu = floor(x^64 / P), reflected.
constexpr std::uint64_t kCrcPoly = 0x1DB710641ULL;
constexpr std::uint64_t kCrcMu = 0x1F7011641ULL;

/// Folds lane x by 128-bit multiplier pair k and xors in `next`.
inline __m128i crc32_fold_lane(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

inline __m128i crc32_load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds n bytes into the state; n >= 64 and a multiple of 16.
std::uint32_t crc32_fold(std::uint32_t state, const unsigned char* p,
                         std::size_t n) {
  __m128i x0 = _mm_xor_si128(crc32_load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = crc32_load(p + 16);
  __m128i x2 = crc32_load(p + 32);
  __m128i x3 = crc32_load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k12 = _mm_set_epi64x(static_cast<long long>(kCrcK2),
                                     static_cast<long long>(kCrcK1));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = crc32_fold_lane(x0, k12, crc32_load(p));
    x1 = crc32_fold_lane(x1, k12, crc32_load(p + 16));
    x2 = crc32_fold_lane(x2, k12, crc32_load(p + 32));
    x3 = crc32_fold_lane(x3, k12, crc32_load(p + 48));
  }

  // Merge the four lanes into one, then fold the remaining 16-byte
  // blocks into it.
  const __m128i k34 = _mm_set_epi64x(static_cast<long long>(kCrcK4),
                                     static_cast<long long>(kCrcK3));
  __m128i x = crc32_fold_lane(x0, k34, x1);
  x = crc32_fold_lane(x, k34, x2);
  x = crc32_fold_lane(x, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x = crc32_fold_lane(x, k34, crc32_load(p));

  // 128 -> 96 bits: the low half times x^96 mod P, plus the high half.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k34, 0x10));
  // 96 -> 64 bits: the low 32 bits times x^64 mod P, plus the rest.
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kCrcK5));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
  // Barrett: q = floor(low32 * mu / x^32), remainder = x ^ q * P.
  const __m128i pmu = _mm_set_epi64x(static_cast<long long>(kCrcMu),
                                     static_cast<long long>(kCrcPoly));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), pmu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

/// Runs of >= 64 bytes fold with carry-less multiplies down to a
/// < 16-byte tail, which (like shorter inputs) goes to slicing-by-8.
std::uint32_t crc32_update(std::uint32_t state, const unsigned char* data,
                           std::size_t n) {
  if (n >= 64) {
    const std::size_t folded = n & ~static_cast<std::size_t>(15);
    state = crc32_fold(state, data, folded);
    data += folded;
    n -= folded;
  }
  return crc32_sliced(state, data, n);
}

constexpr Backend kAvx2 = {
    "simd-avx2",      &gemm_tile,        &gemm_cols,  &gemm_cols_depth,
    &gemm_adj_tile,   &row_sq_accumulate, &row_scale, &gradient_row_sq,
    &phase_ramp,      &phase_ramp_accum,  &crc32_update,
};

}  // namespace

const Backend* simd_avx2_table() { return &kAvx2; }

}  // namespace roarray::linalg::backend
