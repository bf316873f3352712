// CRC-32 and wire-codec known answers: every backend table's CRC must
// produce the plain byte-at-a-time values (every trace ever written has
// to keep verifying), the sliced reference must stay usable at compile
// time, and updates must compose incrementally; the wire helpers must
// put bytes on disk little-endian on any host.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "../test_util.hpp"
#include "io/crc32.hpp"
#include "io/wire.hpp"
#include "linalg/backend/backend.hpp"

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

/// One byte of the bit-at-a-time CRC-32, independent of the tables.
std::uint32_t crc32_reference_step(std::uint32_t c, unsigned char byte) {
  c ^= byte;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return c;
}

std::uint32_t crc32_reference(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) c = crc32_reference_step(c, p[i]);
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

// The two sweeps run io::crc32 under every backend table: the scalar
// slicing-by-8 and, where present, the vector kernel, whose 64-byte
// four-lane fold, 16-byte single-lane fold and < 16-byte sliced tail
// are all entered by lengths up to 2048 at every offset modulo 16.
TEST(Crc32, SlicedEqualsBytewiseAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 2048;
  constexpr std::size_t kOffsets = 16;
  const std::vector<unsigned char> buf = random_bytes(kMaxLen + kOffsets, 7);
  // want[off][len]: the bit-at-a-time CRC of buf[off, off + len), built
  // incrementally so the reference costs one pass per offset.
  std::vector<std::vector<std::uint32_t>> want(kOffsets);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    std::uint32_t c = 0xFFFFFFFFU;
    want[off].push_back(c ^ 0xFFFFFFFFU);
    for (std::size_t len = 1; len <= kMaxLen; ++len) {
      c = crc32_reference_step(c, buf[off + len - 1]);
      want[off].push_back(c ^ 0xFFFFFFFFU);
    }
  }
  const testing::BackendForceGuard guard;
  for (const auto* table : testing::backend_tables()) {
    linalg::backend::force(table);
    int mismatches = 0;
    for (std::size_t off = 0; off < kOffsets; ++off) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        if (io::crc32(buf.data() + off, len) != want[off][len] &&
            ++mismatches <= 5) {
          ADD_FAILURE() << table->name << ": offset " << off << " length "
                        << len;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << table->name;
  }
}

TEST(Crc32, UpdateSplitAtEveryPointEqualsOneShot) {
  const std::vector<unsigned char> buf = random_bytes(333, 11);
  const std::uint32_t one_shot = crc32_reference(buf.data(), buf.size());
  const testing::BackendForceGuard guard;
  for (const auto* table : testing::backend_tables()) {
    linalg::backend::force(table);
    EXPECT_EQ(io::crc32(buf.data(), buf.size()), one_shot) << table->name;
    for (std::size_t split = 0; split <= buf.size(); ++split) {
      std::uint32_t s = io::crc32_init();
      s = io::crc32_update(s, buf.data(), split);
      s = io::crc32_update(s, buf.data() + split, buf.size() - split);
      EXPECT_EQ(io::crc32_final(s), one_shot)
          << table->name << ": split " << split;
    }
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
