// The reference CRC-32 of the backend table: IEEE 802.3, reflected
// polynomial 0xEDB88320, slicing-by-8. Eight constexpr 256-entry tables
// fold eight bytes per step, and the byte-at-a-time table handles the
// < 8-byte tail. It is the scalar table's crc32_update entry, the tail
// routine of the vector kernels, and the compile-time path of
// io::crc32. Each step reads its eight bytes as two little-endian
// words assembled from single bytes (a reflected CRC consumes every
// byte low bit first), so the routine stays constexpr, alignment-free
// and host-endianness-independent. The values are those of the plain
// byte-at-a-time algorithm.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace roarray::linalg::backend {

namespace crc32_detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_table() {
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

inline constexpr std::array<std::uint32_t, 256> kTable = make_table();

using Slices = std::array<std::array<std::uint32_t, 256>, 8>;

/// slices[k][b] is the CRC state change of byte b followed by k zero
/// bytes, so one step can fold eight bytes by eight independent lookups.
[[nodiscard]] constexpr Slices make_slices() {
  Slices slices{};
  slices[0] = kTable;
  for (std::size_t k = 1; k < slices.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = slices[k - 1][b];
      slices[k][b] = kTable[prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return slices;
}

inline constexpr Slices kSlices = make_slices();

[[nodiscard]] constexpr std::uint32_t load_le32(
    const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace crc32_detail

/// Folds `n` bytes into the running CRC-32 state (no pre- or
/// post-inversion: the caller owns those).
[[nodiscard]] constexpr std::uint32_t crc32_sliced(std::uint32_t state,
                                                   const unsigned char* data,
                                                   std::size_t n) noexcept {
  const crc32_detail::Slices& t = crc32_detail::kSlices;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = state ^ crc32_detail::load_le32(data);
    const std::uint32_t hi = crc32_detail::load_le32(data + 4);
    state = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
            t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
            t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (std::size_t i = 0; i < n; ++i) {
    state = t[0][(state ^ data[i]) & 0xFFU] ^ (state >> 8);
  }
  return state;
}

}  // namespace roarray::linalg::backend
