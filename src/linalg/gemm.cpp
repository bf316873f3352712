#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "linalg/backend/backend.hpp"

namespace roarray::linalg {

namespace {

// Fixed output-tile shape of the generic kernels.
constexpr index_t kRowTile = 128;
constexpr index_t kColTile = 32;

using backend::Backend;

/// Runs `tile(i0, i1, j0, j1)` over the fixed output partition. Each
/// output element belongs to exactly one tile and is reduced over the
/// whole inner dimension there.
template <typename Tile>
void run_tiled(index_t m, index_t n, const Tile& tile) {
  for (index_t j0 = 0; j0 < n; j0 += kColTile) {
    for (index_t i0 = 0; i0 < m; i0 += kRowTile) {
      tile(i0, std::min(m, i0 + kRowTile), j0, std::min(n, j0 + kColTile));
    }
  }
}

}  // namespace

void gemm(index_t m, index_t n, index_t k, const cxd* a, const cxd* b,
          cxd* c, const Backend* be) {
  if (m <= 0 || n <= 0) return;
  // Resolve the kernel table once per call: every tile of this product
  // uses the same table.
  const Backend& bk = be != nullptr ? *be : backend::active();
  if (k <= 0) {
    std::memset(static_cast<void*>(c), 0, static_cast<std::size_t>(m * n) * sizeof(cxd));
    return;
  }
  if (m <= backend::kSmallRowLimit) {
    // Fixed-height kernel: every column is written exactly once (no
    // memset needed).
    bk.gemm_cols(m, n, k, a, b, c);
    return;
  }
  if (k <= backend::kSmallDepthLimit) {
    bk.gemm_cols_depth(m, n, k, a, b, c);
    return;
  }
  std::memset(static_cast<void*>(c), 0, static_cast<std::size_t>(m * n) * sizeof(cxd));
  run_tiled(m, n, [&](index_t i0, index_t i1, index_t j0, index_t j1) {
    bk.gemm_tile(i0, i1, j0, j1, m, k, a, b, c);
  });
}

void gemm_adj_left(index_t m, index_t n, index_t k, const cxd* a,
                   const cxd* b, cxd* c, const Backend* be) {
  if (m <= 0 || n <= 0) return;
  const Backend& bk = be != nullptr ? *be : backend::active();
  if (k <= 0) {
    std::memset(static_cast<void*>(c), 0, static_cast<std::size_t>(m * n) * sizeof(cxd));
    return;
  }
  run_tiled(m, n, [&](index_t i0, index_t i1, index_t j0, index_t j1) {
    bk.gemm_adj_tile(i0, i1, j0, j1, m, k, a, b, c);
  });
}

CMat matmul_blocked(const CMat& a, const CMat& b, const Backend* be) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul_blocked: shape mismatch");
  }
  CMat c(a.rows(), b.cols());
  gemm(a.rows(), b.cols(), a.cols(), a.data(), b.data(), c.data(), be);
  return c;
}

CMat matmul_adj_left_blocked(const CMat& a, const CMat& b,
                             const Backend* be) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_adj_left_blocked: shape mismatch");
  }
  CMat c(a.cols(), b.cols());
  gemm_adj_left(a.cols(), b.cols(), a.rows(), a.data(), b.data(), c.data(),
                be);
  return c;
}

}  // namespace roarray::linalg
