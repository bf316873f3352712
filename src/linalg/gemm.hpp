// Cache-blocked complex GEMM for the operator hot path.
//
// The generic matmul/matmul_adj_left in matrix.hpp are written against
// std::complex arithmetic, whose operator* lowers to a guarded multiply
// (NaN fix-up branch) and whose scattered per-column loops defeat
// vectorization. These entry points tile the *output* into fixed-size
// blocks and execute each tile, on the calling thread, through a
// backend::Backend kernel table (scalar, or hand-vectorized SIMD —
// see linalg/backend/backend.hpp for selection and the per-kernel
// scalar-vs-simd tolerances). They take no thread pool: the products
// the solvers issue are small (M = 3 antenna rows), and the one level
// of parallelism is the per-burst fan-out in core (DESIGN.md §8).
//
// Determinism contract: every output element is produced by exactly one
// tile, and within a tile the reduction over the inner dimension runs in
// ascending order — the same order the naive kernels use — so, on the
// scalar table, results match the naive kernels to rounding (<= 1e-12
// relative in practice; identical accumulation order, only instruction
// selection may differ). On any fixed table, results are bit-identical
// whichever thread runs the product.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/types.hpp"

namespace roarray::linalg {

namespace backend {
struct Backend;
}

/// C = A B on raw column-major buffers: A is m x k, B is k x n, C is
/// m x n and is overwritten. Mirrors matmul's skip of exact-zero B
/// entries (a large win on soft-thresholded sparse iterates). Null
/// backend uses the process-global backend::active() table; pass one
/// explicitly only to pin a table (differential tests, benches).
void gemm(index_t m, index_t n, index_t k, const cxd* a, const cxd* b,
          cxd* c, const backend::Backend* be = nullptr);

/// C = A^H B on raw column-major buffers: A is k x m, B is k x n, C is
/// m x n and is overwritten (A^H is never formed).
void gemm_adj_left(index_t m, index_t n, index_t k, const cxd* a,
                   const cxd* b, cxd* c,
                   const backend::Backend* be = nullptr);

/// Blocked drop-in for matmul(a, b). Throws on shape mismatch.
[[nodiscard]] CMat matmul_blocked(const CMat& a, const CMat& b,
                                  const backend::Backend* be = nullptr);

}  // namespace roarray::linalg
