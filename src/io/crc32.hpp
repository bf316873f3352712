// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to detect
// corruption in the on-disk CSI trace format. The byte folding runs on
// the active compute backend's crc32_update entry (slicing-by-8 in the
// scalar table, carry-less-multiply folding in the AVX2 one; see
// linalg/backend/backend.hpp). CRC-32 is integer arithmetic, so every
// table yields the same value — that of the plain byte-at-a-time
// algorithm — and a trace written under one table verifies under any
// other. In a constant expression the routines fold with the
// slicing-by-8 reference directly, so they stay usable at compile time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "linalg/backend/backend.hpp"
#include "linalg/backend/crc32.hpp"

namespace roarray::io {

/// Starting state for an incremental CRC-32.
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept {
  return 0xFFFFFFFFU;
}

/// Folds `n` bytes into the running state.
[[nodiscard]] constexpr std::uint32_t crc32_update(std::uint32_t state,
                                                   const unsigned char* data,
                                                   std::size_t n) noexcept {
  if (std::is_constant_evaluated()) {
    return linalg::backend::crc32_sliced(state, data, n);
  }
  return linalg::backend::active().crc32_update(state, data, n);
}

/// Final xor-out step.
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFU;
}

/// One-shot CRC-32 of a byte buffer.
[[nodiscard]] constexpr std::uint32_t crc32(const unsigned char* data,
                                            std::size_t n) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace roarray::io
