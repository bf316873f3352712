// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to detect
// corruption in the on-disk CSI trace format. Slicing-by-8: eight
// constexpr 256-entry tables fold eight bytes per step, and the
// byte-at-a-time table handles the < 8-byte tail. Words are assembled
// from bytes by the wire codec, so the routines stay constexpr,
// alignment-free and host-endianness-independent, and are usable from
// tests on raw byte images. The values are those of the plain
// byte-at-a-time algorithm.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "io/wire.hpp"

namespace roarray::io {

namespace detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

using Crc32Slices = std::array<std::array<std::uint32_t, 256>, 8>;

/// slices[k][b] is the CRC state change of byte b followed by k zero
/// bytes, so one step can fold eight bytes by eight independent lookups.
[[nodiscard]] constexpr Crc32Slices make_crc32_slices() {
  Crc32Slices slices{};
  slices[0] = kCrc32Table;
  for (std::size_t k = 1; k < slices.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = slices[k - 1][b];
      slices[k][b] = kCrc32Table[prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return slices;
}

inline constexpr Crc32Slices kCrc32Slices = make_crc32_slices();

}  // namespace detail

/// Starting state for an incremental CRC-32.
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept {
  return 0xFFFFFFFFU;
}

/// Folds `n` bytes into the running state.
[[nodiscard]] constexpr std::uint32_t crc32_update(std::uint32_t state,
                                                   const unsigned char* data,
                                                   std::size_t n) noexcept {
  const detail::Crc32Slices& t = detail::kCrc32Slices;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = state ^ wire::get_u32(data);
    const std::uint32_t hi = wire::get_u32(data + 4);
    state = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
            t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
            t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (std::size_t i = 0; i < n; ++i) {
    state = t[0][(state ^ data[i]) & 0xFFU] ^ (state >> 8);
  }
  return state;
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
