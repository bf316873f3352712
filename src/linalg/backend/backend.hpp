// Pluggable compute backends for the complex kernel hot path.
//
// A Backend is a table of raw-buffer kernels (GEMM microkernels, the
// group-prox element passes, the steering-vector
// phase recurrences, and the trace format's CRC-32). The `scalar`
// table holds today's hand-separated real-arithmetic loops, extracted
// verbatim from gemm.cpp / prox.hpp / steering.cpp, and the
// slicing-by-8 CRC-32 of crc32.hpp; the `simd` table hand-vectorizes
// the same kernels (AVX2+FMA on x86-64; other architectures run the
// scalar table) behind compile-time feature macros with a runtime CPU check, so a binary
// built with the SIMD translation units still runs on machines without
// the vector units.
//
// Selection is process-global and resolved once: callers reach the
// active table through active(), or pass an explicit table to the
// kernel entry points (gemm, gemm_adj_left, ...) for
// differential testing. ROARRAY_BACKEND=scalar|simd|auto overrides the
// default (auto). Selection is deliberately NOT per-request: operator
// caches and worker threads are shared across requests, and mixing
// backends inside one process would let a cached Gram matrix or
// Lipschitz constant disagree with the kernels consuming it. A device
// backend (CUDA) would slot in as another table plus a memory-space
// contract; see DESIGN.md "Compute backends".
//
// Determinism contract per table:
//   * Every kernel is bit-identical on whichever thread runs it (the
//     tile partition and reduction order depend only on the shapes),
//     for the scalar AND the simd table alike.
//   * The scalar table reproduces the pre-backend kernels bit-for-bit
//     (the loops moved, the arithmetic did not).
//   * scalar vs simd may differ only to rounding, and the integer
//     crc32_update not at all: the simd floating-point kernels keep
//     ascending-k traversal but may round differently (FMA contraction,
//     lane-split partial sums in gemm_adj_tile). Per-kernel tolerances are
//     documented next to each pointer and enforced by
//     tests/linalg/test_backend.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/types.hpp"

namespace roarray::linalg::backend {

/// Outputs with at most this many rows use the fixed-height column
/// kernel (`gemm_cols`) instead of the generic tile.
inline constexpr index_t kSmallRowLimit = 16;

/// Reductions at most this deep use the fixed-depth column kernel
/// (`gemm_cols_depth`) when the row count is too large for the
/// fixed-height one.
inline constexpr index_t kSmallDepthLimit = 8;

/// Function-pointer table of hot kernels. All matrix arguments are raw
/// column-major interleaved (re, im) buffers; every pointer is non-null
/// in a published table.
struct Backend {
  /// Short stable identifier ("scalar", "simd-avx2") —
  /// recorded in bench provenance.
  const char* name;

  /// C(i0:i1, j0:j1) += A(i0:i1, :) B(:, j0:j1); A is m x k, C is m x n.
  /// Skips exact-zero B entries (matmul's zero-skip). Reduction over k
  /// ascends for every output element. simd tolerance vs scalar is the
  /// dot-product forward-error bound gamma_k * sum |a||b| with slack
  /// for complex FMA contraction:
  /// |diff| <= 8 * eps * k * max|A| * max_j sum_l |B(l,j)| per element.
  void (*gemm_tile)(index_t i0, index_t i1, index_t j0, index_t j1,
                    index_t m, index_t k, const cxd* a, const cxd* b, cxd* c);

  /// C = A B for m <= kSmallRowLimit; A is m x k, B k x n, C m x n
  /// (overwrites, no prior memset needed). Each column of C is computed
  /// from its own column of B alone. Same zero-skip and tolerance as
  /// gemm_tile.
  void (*gemm_cols)(index_t m, index_t n, index_t k, const cxd* a,
                    const cxd* b, cxd* c);

  /// C = A B for k <= kSmallDepthLimit (overwrites; shapes as in
  /// gemm_cols). Does NOT skip zero B entries (their terms are exact
  /// +/-0); the simd kernel matches that so the two tables see the same
  /// terms.
  void (*gemm_cols_depth)(index_t m, index_t n, index_t k, const cxd* a,
                          const cxd* b, cxd* c);

  /// C(i0:i1, j0:j1) = A(:, i0:i1)^H B(:, j0:j1); A is k x m', B k x n.
  /// simd may split the k reduction into a fixed number of lanes with a
  /// fixed-order horizontal reduce (still thread-count independent);
  /// tolerance vs scalar as gemm_tile.
  void (*gemm_adj_tile)(index_t i0, index_t i1, index_t j0, index_t j1,
                        index_t m, index_t k, const cxd* a, const cxd* b,
                        cxd* c);

  /// acc[i] += |col[i]|^2 for one matrix column (the group-prox /
  /// l2,1-norm row sweep). Tolerance vs scalar: 2 * eps * |col[i]|^2
  /// per element per column.
  void (*row_sq_accumulate)(const cxd* col, index_t n, double* acc);

  /// col[i] *= scale[i], writing exact +0 when scale[i] < 0 (the
  /// group-prox "zero the row" marker). Bit-identical across tables.
  void (*row_scale)(cxd* col, index_t n, const double* scale);

  /// Squared row norms of one column of the group-prox gradient step:
  /// row_sq[i] += re^2 + im^2 of (from[i] - step * grad[i]), the step
  /// itself not stored (the solver writes only the rows the prox keeps).
  /// Callers sweep columns in ascending order, so each row sums its
  /// columns in order. Bit-identical across tables: every table rounds
  /// each multiply, subtract and add separately (no FMA contraction; see
  /// simd_avx2.cpp).
  void (*gradient_row_sq)(const cxd* from, const cxd* grad, double step,
                          index_t n, double* row_sq);

  /// out[i] = scale * step^i via the phase recurrence lm *= step
  /// (steering vectors / dictionary factors). simd advances four
  /// elements per step with a step^4 stride; tolerance vs scalar:
  /// 2 * eps * n * |scale| per element (|step| = 1 in every caller).
  void (*phase_ramp)(cxd scale, cxd step, index_t n, cxd* out);

  /// out[i] += scale * step^i (the CSI synthesis accumulation).
  void (*phase_ramp_accum)(cxd scale, cxd step, index_t n, cxd* out);

  /// Folds n bytes into a running CRC-32 state (IEEE 802.3, reflected
  /// polynomial 0xEDB88320; no pre- or post-inversion), the trace
  /// format's checksum (io/crc32.hpp). Integer arithmetic, so unlike
  /// the floating-point entries it has no tolerance: every table
  /// returns the slicing-by-8 reference (crc32.hpp) bit for bit, at
  /// every length and alignment. The scalar table points at that
  /// reference; AVX2 folds runs of >= 64 bytes with carry-less
  /// multiplies (PCLMULQDQ) and hands the < 16-byte tail to it.
  std::uint32_t (*crc32_update)(std::uint32_t state, const unsigned char* data,
                                std::size_t n);
};

/// The portable table (always available; arithmetic of the pre-backend
/// scalar kernels, bit-for-bit).
[[nodiscard]] const Backend& scalar();

/// The vectorized table compiled into this binary, or nullptr when the
/// build has no SIMD translation unit for this architecture OR the
/// running CPU lacks the required features (AVX2+FMA+PCLMUL).
[[nodiscard]] const Backend* simd();

/// True when a SIMD translation unit was compiled into this binary,
/// independent of whether the running CPU can execute it.
[[nodiscard]] bool simd_compiled();

/// How the active table was chosen (for bench provenance and the CI
/// backend leg).
struct Dispatch {
  const Backend* selected;  ///< the table active() returns.
  const char* requested;    ///< "auto", "scalar", "simd" (env) or "force".
  bool simd_compiled;       ///< a SIMD TU exists in this binary.
  bool simd_supported;      ///< the running CPU has the features.
};

/// The process-global table: force() override if set, else the
/// ROARRAY_BACKEND environment choice, else auto (simd when supported,
/// scalar otherwise). Resolved once and cached; ROARRAY_BACKEND=simd on
/// hardware without the features falls back to scalar (recorded in
/// dispatch_info() so the CI leg can skip gracefully).
[[nodiscard]] const Backend& active();

/// Selection provenance for the current active() result.
[[nodiscard]] Dispatch dispatch_info();

/// Comma-separated vector features detected on this CPU at runtime
/// (e.g. "avx2,fma"), independent of what was compiled in. Empty string
/// when none. Stable storage (string literal).
[[nodiscard]] const char* cpu_features();

/// Test hook: force the active table (nullptr restores env/auto
/// selection). Affects the whole process; tests that force a backend
/// must restore it. Safe to call concurrently with active().
void force(const Backend* be);

}  // namespace roarray::linalg::backend
