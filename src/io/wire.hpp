// Little-endian byte codec of the on-disk trace format, and the one
// place in the code that knows its byte order.
//
// Every multi-byte field is assembled from (or split into) its
// individual bytes with explicit shifts, so the result is the same on
// any host and no pointer is ever reinterpreted as a wider type (trace
// windows are unaligned). Compilers recognize the shift-and-or pattern
// and emit one load (store) per field on little-endian hosts, a load
// plus a byte swap on big-endian ones. Doubles travel as their
// IEEE-754 bit patterns, so they round-trip bit-exactly, non-finite
// values included. Every helper is constexpr. (The CRC-32 assembles
// its own little-endian words: linalg/backend/crc32.hpp sits below io.)
#pragma once

#include <bit>
#include <cstdint>

namespace roarray::io::wire {

[[nodiscard]] constexpr std::uint32_t get_u32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] constexpr std::uint64_t get_u64(const unsigned char* p) noexcept {
  return static_cast<std::uint64_t>(p[0]) |
         (static_cast<std::uint64_t>(p[1]) << 8) |
         (static_cast<std::uint64_t>(p[2]) << 16) |
         (static_cast<std::uint64_t>(p[3]) << 24) |
         (static_cast<std::uint64_t>(p[4]) << 32) |
         (static_cast<std::uint64_t>(p[5]) << 40) |
         (static_cast<std::uint64_t>(p[6]) << 48) |
         (static_cast<std::uint64_t>(p[7]) << 56);
}

[[nodiscard]] constexpr double get_f64(const unsigned char* p) noexcept {
  return std::bit_cast<double>(get_u64(p));
}

/// Writers store at `p` and return the position just past the field,
/// so a record is encoded as a chain of puts into a pre-sized buffer.
constexpr unsigned char* put_u32(unsigned char* p, std::uint32_t v) noexcept {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
  return p + 4;
}

constexpr unsigned char* put_u64(unsigned char* p, std::uint64_t v) noexcept {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
  p[4] = static_cast<unsigned char>(v >> 32);
  p[5] = static_cast<unsigned char>(v >> 40);
  p[6] = static_cast<unsigned char>(v >> 48);
  p[7] = static_cast<unsigned char>(v >> 56);
  return p + 8;
}

constexpr unsigned char* put_f64(unsigned char* p, double v) noexcept {
  return put_u64(p, std::bit_cast<std::uint64_t>(v));
}

}  // namespace roarray::io::wire
