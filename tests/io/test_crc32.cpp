// CRC-32 and wire-codec known answers: the sliced CRC must produce the
// plain byte-at-a-time values (every trace ever written has to keep
// verifying), stay usable at compile time, and compose incrementally;
// the wire helpers must put bytes on disk little-endian on any host.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "../test_util.hpp"
#include "io/crc32.hpp"
#include "io/wire.hpp"

namespace roarray {
namespace {

using testing::make_rng;

constexpr std::array<unsigned char, 9> kCheckInput = {'1', '2', '3', '4', '5',
                                                      '6', '7', '8', '9'};
constexpr std::uint32_t kCheckValue = 0xCBF43926U;  // CRC-32/ISO-HDLC check.

// Compile-time evaluation proves crc32 is still constexpr; nine bytes
// run one eight-byte step plus a one-byte tail.
static_assert(io::crc32(kCheckInput.data(), kCheckInput.size()) == kCheckValue);
static_assert(io::crc32(nullptr, 0) == 0U);

/// Bit-at-a-time CRC-32 over each byte, independent of the tables.
std::uint32_t crc32_reference(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  auto rng = make_rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng() & 0xFFU);
  return out;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(io::crc32(kCheckInput.data(), kCheckInput.size()), kCheckValue);
  EXPECT_EQ(crc32_reference(kCheckInput.data(), kCheckInput.size()),
            kCheckValue);
}

TEST(Crc32, EmptyInputIsZero) {
  const unsigned char byte = 0xA5;
  EXPECT_EQ(io::crc32(&byte, 0), 0U);
  EXPECT_EQ(io::crc32_update(io::crc32_init(), &byte, 0), io::crc32_init());
}

TEST(Crc32, SlicedEqualsBytewiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(48, 7);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 40; ++len) {
      EXPECT_EQ(io::crc32(buf.data() + off, len),
                crc32_reference(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, UpdateSplitAtEveryPointEqualsOneShot) {
  const std::vector<unsigned char> buf = random_bytes(77, 11);
  const std::uint32_t one_shot = io::crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    std::uint32_t s = io::crc32_init();
    s = io::crc32_update(s, buf.data(), split);
    s = io::crc32_update(s, buf.data() + split, buf.size() - split);
    EXPECT_EQ(io::crc32_final(s), one_shot) << "split " << split;
  }
}

TEST(WireCodec, FieldsAreLittleEndianOnDisk) {
  std::array<unsigned char, 20> buf{};
  unsigned char* p = io::wire::put_u32(buf.data(), 0x04030201U);
  p = io::wire::put_u64(p, 0x0C0B0A0908070605ULL);
  p = io::wire::put_f64(p, -2.0);  // 0xC000000000000000
  EXPECT_EQ(p, buf.data() + buf.size());
  const std::array<unsigned char, 20> want = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A,
      0x0B, 0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0};
  EXPECT_EQ(buf, want);
  EXPECT_EQ(io::wire::get_u32(buf.data()), 0x04030201U);
  EXPECT_EQ(io::wire::get_u64(buf.data() + 4), 0x0C0B0A0908070605ULL);
  EXPECT_EQ(io::wire::get_f64(buf.data() + 12), -2.0);
  // Unaligned reads are fine: every field is assembled from bytes.
  EXPECT_EQ(io::wire::get_u32(buf.data() + 1), 0x05040302U);
}

}  // namespace
}  // namespace roarray
