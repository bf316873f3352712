// Trace format robustness: bit-exact round trips, typed rejection of
// damaged headers, and latched statuses on truncated or corrupted
// records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "io/crc32.hpp"
#include "io/trace_reader.hpp"
#include "io/trace_writer.hpp"
#include "sim/recorder.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

namespace roarray {
namespace {

using testing::make_rng;
using testing::random_cmat;

/// Serializes `records` (shape from `cfg`) into an in-memory trace.
std::string build_trace(const std::vector<io::TraceRecord>& records,
                        const dsp::ArrayConfig& cfg = {}) {
  std::stringstream ss;
  io::TraceWriter writer(ss, cfg);
  for (const auto& r : records) writer.append(r);
  return ss.str();
}

std::vector<io::TraceRecord> sample_records(int n, std::uint64_t seed = 42) {
  const dsp::ArrayConfig cfg;
  auto rng = make_rng(seed);
  std::vector<io::TraceRecord> out;
  for (int i = 0; i < n; ++i) {
    io::TraceRecord r;
    r.ap_id = static_cast<std::uint32_t>(i % 3);
    r.client_id = static_cast<std::uint64_t>(100 + i / 3);
    r.timestamp_tick = static_cast<std::uint64_t>(i);
    r.snr_db = 20.0 - i;
    r.csi = random_cmat(cfg.num_antennas, cfg.num_subcarriers, rng);
    out.push_back(r);
  }
  return out;
}

void expect_record_eq(const io::TraceRecord& got, const io::TraceRecord& want) {
  EXPECT_EQ(got.ap_id, want.ap_id);
  EXPECT_EQ(got.client_id, want.client_id);
  EXPECT_EQ(got.timestamp_tick, want.timestamp_tick);
  EXPECT_EQ(got.snr_db, want.snr_db);  // bit-exact, not near
  ASSERT_EQ(got.csi.rows(), want.csi.rows());
  ASSERT_EQ(got.csi.cols(), want.csi.cols());
  for (linalg::index_t j = 0; j < got.csi.cols(); ++j) {
    for (linalg::index_t i = 0; i < got.csi.rows(); ++i) {
      EXPECT_EQ(got.csi(i, j).real(), want.csi(i, j).real());
      EXPECT_EQ(got.csi(i, j).imag(), want.csi(i, j).imag());
    }
  }
}

TEST(TraceRoundTrip, RecordsComeBackBitExact) {
  const auto records = sample_records(7);
  std::stringstream ss(build_trace(records));
  io::TraceReader reader(ss);
  EXPECT_EQ(reader.header().num_antennas, 3u);
  EXPECT_EQ(reader.header().num_subcarriers, 30u);
  io::TraceRecord rec;
  for (const auto& want : records) {
    ASSERT_EQ(reader.next(rec), io::ReadStatus::kOk);
    expect_record_eq(rec, want);
  }
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kEndOfTrace);
  EXPECT_EQ(reader.records_read(), records.size());
}

/// Hands out at most `chunk` bytes of `bytes` per underflow, so every
/// istream::read the reader makes is served in several short pieces.
class TrickleBuf : public std::streambuf {
 public:
  TrickleBuf(std::string bytes, std::size_t chunk)
      : bytes_(std::move(bytes)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min(chunk_, bytes_.size() - pos_);
    char* base = bytes_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string bytes_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

TEST(TraceRoundTrip, ShortReadsDecodeLikeOneBuffer) {
  // A stream that delivers a few bytes per underflow must yield the
  // same records and the same terminal status as a whole-buffer one,
  // for a clean trace and for one that ends mid-record.
  const auto records = sample_records(4);
  const std::string clean = build_trace(records);
  const std::string cut = clean.substr(0, clean.size() - 17);
  for (const std::size_t chunk : {1u, 3u, 7u, 64u, 1000u}) {
    for (const std::string* bytes : {&clean, &cut}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", " +
                   std::to_string(bytes->size()) + " bytes");
      std::stringstream whole(*bytes);
      TrickleBuf trickle_buf(*bytes, chunk);
      std::istream trickle(&trickle_buf);
      io::TraceReader want_reader(whole);
      io::TraceReader got_reader(trickle);
      io::TraceRecord want;
      io::TraceRecord got;
      io::ReadStatus want_status;
      do {
        want_status = want_reader.next(want);
        ASSERT_EQ(got_reader.next(got), want_status);
        if (want_status == io::ReadStatus::kOk) expect_record_eq(got, want);
      } while (want_status == io::ReadStatus::kOk);
      EXPECT_EQ(got_reader.records_read(), want_reader.records_read());
    }
  }
}

TEST(TraceRoundTrip, SimulatedRoundSurvivesRecordAndRegroup) {
  sim::Testbed tb = sim::make_paper_testbed();
  tb.aps.resize(3);
  sim::ScenarioConfig scfg = sim::scenario_for_band(sim::SnrBand::kHigh);
  scfg.num_packets = 4;
  auto rng = make_rng(5);
  const auto clients = sim::sample_client_locations(2, tb.room, rng);

  std::stringstream ss;
  io::TraceWriter writer(ss, scfg.array);
  std::vector<std::vector<sim::ApMeasurement>> live;
  std::uint64_t tick = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    live.push_back(sim::generate_measurements(tb, clients[c], scfg, rng));
    tick = sim::record_round(writer, live.back(), c, tick);
  }
  EXPECT_EQ(writer.records_written(), 2u * 3u * 4u);

  ss.seekg(0);
  io::TraceReader reader(ss);
  const auto rounds = io::read_client_rounds(reader);
  ASSERT_EQ(rounds.size(), live.size());
  for (std::size_t c = 0; c < rounds.size(); ++c) {
    EXPECT_EQ(rounds[c].client_id, c);
    ASSERT_EQ(rounds[c].bursts.size(), live[c].size());
    for (std::size_t a = 0; a < live[c].size(); ++a) {
      EXPECT_EQ(rounds[c].ap_ids[a], static_cast<std::uint32_t>(a));
      EXPECT_EQ(rounds[c].snr_db[a], live[c][a].snr_db);
      const auto& packets = live[c][a].burst.csi;
      ASSERT_EQ(rounds[c].bursts[a].size(), packets.size());
      for (std::size_t p = 0; p < packets.size(); ++p) {
        for (linalg::index_t j = 0; j < packets[p].cols(); ++j) {
          for (linalg::index_t i = 0; i < packets[p].rows(); ++i) {
            EXPECT_EQ(rounds[c].bursts[a][p](i, j), packets[p](i, j));
          }
        }
      }
    }
  }
}

TEST(TraceRoundTrip, NonFiniteDoublesRoundTrip) {
  io::TraceRecord r;
  r.snr_db = std::numeric_limits<double>::quiet_NaN();
  r.csi = linalg::CMat(3, 30);
  r.csi(0, 0) = {std::numeric_limits<double>::infinity(), -0.0};
  std::stringstream ss(build_trace({r}));
  io::TraceReader reader(ss);
  io::TraceRecord got;
  ASSERT_EQ(reader.next(got), io::ReadStatus::kOk);
  EXPECT_TRUE(std::isnan(got.snr_db));
  EXPECT_EQ(got.csi(0, 0).real(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::signbit(got.csi(0, 0).imag()));
}

TEST(TraceRoundTrip, EmptyTraceIsCleanEnd) {
  std::stringstream ss(build_trace({}));
  io::TraceReader reader(ss);
  io::TraceRecord rec;
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kEndOfTrace);
  // Latched: asking again is still a clean end.
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kEndOfTrace);
}

TEST(TraceHeaderValidation, RejectsForeignFile) {
  // Long enough that a full 64-byte header can be read; rejection must
  // come from the magic check, not from hitting end-of-file.
  std::string foreign = "this is not a trace file at all, not even close. ";
  foreign += foreign;
  std::stringstream ss(foreign);
  try {
    io::TraceReader reader(ss);
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kBadMagic);
  }
}

TEST(TraceHeaderValidation, RejectsTruncatedHeader) {
  std::string bytes = build_trace({});
  bytes.resize(20);
  std::stringstream ss(bytes);
  try {
    io::TraceReader reader(ss);
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kBadHeader);
  }
}

TEST(TraceHeaderValidation, RejectsUnsupportedVersion) {
  std::string bytes = build_trace(sample_records(1));
  // Bump the version field (offset 8) and re-seal the header CRC so the
  // reader sees a valid header from the future, not a corrupt one.
  bytes[8] = static_cast<char>(io::kTraceVersion + 1);
  const std::uint32_t crc = io::crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()), 60);
  for (int i = 0; i < 4; ++i) {
    bytes[60 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  std::stringstream ss(bytes);
  try {
    io::TraceReader reader(ss);
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kVersionMismatch);
  }
}

TEST(TraceHeaderValidation, RejectsHeaderBitFlip) {
  std::string bytes = build_trace({});
  bytes[17] = static_cast<char>(bytes[17] ^ 0x40);  // inside num_antennas
  std::stringstream ss(bytes);
  try {
    io::TraceReader reader(ss);
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kBadHeader);
  }
}

TEST(TraceWriterValidation, RejectsGeometryMismatch) {
  std::stringstream ss;
  io::TraceWriter writer(ss, dsp::ArrayConfig{});
  io::TraceRecord r;
  r.csi = linalg::CMat(2, 30);  // header says 3 x 30
  try {
    writer.append(r);
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kGeometryMismatch);
  }
}

TEST(TraceWriterValidation, UnwritablePathIsTyped) {
  try {
    io::TraceWriter writer("/nonexistent-dir/trace.bin", dsp::ArrayConfig{});
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kWriteFailed);
  }
}

TEST(TraceReaderValidation, UnreadablePathIsTyped) {
  try {
    io::TraceReader reader("/nonexistent-dir/trace.bin");
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kBadHeader);
  }
}

TEST(TraceTruncation, StrictModeLatchesTruncated) {
  const auto records = sample_records(3);
  std::string bytes = build_trace(records);
  bytes.resize(bytes.size() - 17);  // chop into the last record
  std::stringstream ss(bytes);
  io::TraceReader reader(ss);
  io::TraceRecord rec;
  ASSERT_EQ(reader.next(rec), io::ReadStatus::kOk);
  ASSERT_EQ(reader.next(rec), io::ReadStatus::kOk);
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kTruncated);
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kTruncated);  // latched
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(TraceCorruption, StrictModeLatchesCorrupt) {
  const auto records = sample_records(3);
  std::string bytes = build_trace(records);
  const std::size_t record_size =
      io::TraceHeader::of(dsp::ArrayConfig{}).record_size_bytes();
  // Flip one payload byte in the middle record.
  const std::size_t pos = io::kHeaderBytes + record_size + 50;
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);
  std::stringstream ss(bytes);
  io::TraceReader reader(ss);
  io::TraceRecord rec;
  ASSERT_EQ(reader.next(rec), io::ReadStatus::kOk);
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kCorrupt);
  EXPECT_EQ(reader.next(rec), io::ReadStatus::kCorrupt);  // latched
}

TEST(TraceCorruption, FlippedByteCorpusNeverCrashes) {
  // Every position in a small trace gets one bit flipped. Header damage
  // must throw a typed TraceError; record damage must surface as kCorrupt
  // at the damaged record, never as UB (ASan/TSan legs run this too).
  const auto records = sample_records(2);
  const std::string clean = build_trace(records);
  const std::size_t record_size =
      io::TraceHeader::of(dsp::ArrayConfig{}).record_size_bytes();
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    std::string bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    std::stringstream ss(bytes);
    try {
      io::TraceReader reader(ss);
      io::TraceRecord rec;
      io::ReadStatus status;
      do {
        status = reader.next(rec);
      } while (status == io::ReadStatus::kOk);
      EXPECT_EQ(status, io::ReadStatus::kCorrupt) << "pos " << pos;
      EXPECT_EQ(reader.records_read(), (pos - io::kHeaderBytes) / record_size)
          << "pos " << pos;
    } catch (const io::TraceError&) {
      EXPECT_LT(pos, io::kHeaderBytes) << "record damage must not throw";
    }
  }
}

TEST(TraceClientRounds, StrictGroupingThrowsOnCorruptRecord) {
  const auto records = sample_records(3);
  std::string bytes = build_trace(records);
  bytes[io::kHeaderBytes + 40] = static_cast<char>(
      bytes[io::kHeaderBytes + 40] ^ 0x02);
  std::stringstream ss(bytes);
  io::TraceReader reader(ss);
  try {
    (void)io::read_client_rounds(reader);
    FAIL() << "expected TraceError";
  } catch (const io::TraceError& e) {
    EXPECT_EQ(e.code(), io::TraceErrorCode::kCorruptRecord);
  }
}

TEST(TraceClientRounds, GroupsInterleavedClientsInFirstAppearanceOrder) {
  // Two clients interleaved packet-by-packet across two APs.
  const dsp::ArrayConfig cfg;
  auto rng = make_rng(9);
  std::vector<io::TraceRecord> records;
  for (int p = 0; p < 2; ++p) {
    for (const std::uint64_t client : {7u, 3u}) {
      for (const std::uint32_t ap : {1u, 0u}) {
        io::TraceRecord r;
        r.ap_id = ap;
        r.client_id = client;
        r.timestamp_tick = static_cast<std::uint64_t>(records.size());
        r.csi = random_cmat(cfg.num_antennas, cfg.num_subcarriers, rng);
        records.push_back(r);
      }
    }
  }
  std::stringstream ss(build_trace(records));
  io::TraceReader reader(ss);
  const auto rounds = io::read_client_rounds(reader);
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].client_id, 7u);
  EXPECT_EQ(rounds[1].client_id, 3u);
  for (const auto& round : rounds) {
    ASSERT_EQ(round.ap_ids.size(), 2u);
    EXPECT_EQ(round.ap_ids[0], 1u);  // first-appearance order, not sorted
    EXPECT_EQ(round.ap_ids[1], 0u);
    EXPECT_EQ(round.bursts[0].size(), 2u);
    EXPECT_EQ(round.bursts[1].size(), 2u);
  }
}

}  // namespace
}  // namespace roarray
