#include "io/trace_reader.hpp"

#include <istream>
#include <unordered_map>
#include <utility>

#include "io/crc32.hpp"
#include "io/wire.hpp"

namespace roarray::io {

namespace {

/// Decodes `n` CSI values stored as re, im f64 pairs at `p`.
void decode_csi(const unsigned char* p, linalg::cxd* dst,
                std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k, p += 16) {
    dst[k] = linalg::cxd(wire::get_f64(p), wire::get_f64(p + 8));
  }
}

}  // namespace

const char* read_status_name(ReadStatus status) noexcept {
  switch (status) {
    case ReadStatus::kOk: return "ok";
    case ReadStatus::kEndOfTrace: return "end-of-trace";
    case ReadStatus::kTruncated: return "truncated";
    case ReadStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

TraceReader::TraceReader(std::istream& is, RecoveryMode mode)
    : is_(is), mode_(mode) {
  read_and_validate_header();
}

TraceReader::TraceReader(const std::string& path, RecoveryMode mode)
    : owned_(path, std::ios::binary), is_(owned_), mode_(mode) {
  if (!owned_) {
    throw TraceError(TraceErrorCode::kBadHeader,
                     "cannot open trace file for reading: " + path);
  }
  read_and_validate_header();
}

void TraceReader::read_and_validate_header() {
  unsigned char image[kHeaderBytes];
  is_.read(reinterpret_cast<char*>(image), kHeaderBytes);
  header_ = decode_header(image, static_cast<std::size_t>(is_.gcount()));
  record_size_ = header_.record_size_bytes();
  win_.reserve(2 * record_size_);
}

void TraceReader::ensure(std::size_t n) {
  if (available() >= n) return;
  if (head_ > 0) {
    win_.erase(win_.begin(),
               win_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  while (win_.size() < n && is_) {
    const std::size_t old = win_.size();
    const std::size_t want = n - old;
    win_.resize(old + want);
    is_.read(reinterpret_cast<char*>(win_.data() + old),
             static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is_.gcount());
    win_.resize(old + got);
    if (got == 0) break;
  }
}

void TraceReader::consume(std::size_t n) { head_ += n; }

bool TraceReader::resync() {
  // The byte at head_ begins a damaged span: skip it, then hunt for the
  // next record magic, pulling more of the stream in as needed.
  bytes_skipped_ += 1;
  consume(1);
  for (;;) {
    ensure(record_size_);
    if (available() < 4) {
      bytes_skipped_ += available();
      consume(available());
      return false;
    }
    for (std::size_t p = head_; p + 4 <= win_.size(); ++p) {
      if (wire::get_u32(win_.data() + p) == kRecordMagic) {
        bytes_skipped_ += p - head_;
        head_ = p;
        return true;
      }
    }
    // No magic in the window; keep the last 3 bytes in case a magic
    // straddles the boundary with the next read.
    const std::size_t drop = available() - 3;
    bytes_skipped_ += drop;
    consume(drop);
  }
}

ReadStatus TraceReader::next(TraceRecord& out) {
  if (latched_ != ReadStatus::kOk) return latched_;
  for (;;) {
    ensure(record_size_);
    if (available() == 0) return latch(ReadStatus::kEndOfTrace);
    if (available() < record_size_) {
      if (mode_ == RecoveryMode::kStrict) return latch(ReadStatus::kTruncated);
      bytes_skipped_ += available();
      consume(available());
      return latch(ReadStatus::kEndOfTrace);
    }
    const unsigned char* base = win_.data() + head_;
    const bool magic_ok = wire::get_u32(base) == kRecordMagic;
    const bool crc_ok =
        magic_ok && wire::get_u32(base + record_size_ - 4) ==
                        crc32(base, record_size_ - 4);
    if (!crc_ok) {
      if (mode_ == RecoveryMode::kStrict) return latch(ReadStatus::kCorrupt);
      ++records_skipped_;
      if (!resync()) return latch(ReadStatus::kEndOfTrace);
      continue;
    }
    out.ap_id = wire::get_u32(base + 4);
    out.client_id = wire::get_u64(base + 8);
    out.timestamp_tick = wire::get_u64(base + 16);
    out.snr_db = wire::get_f64(base + 24);
    const auto rows = static_cast<index_t>(header_.num_antennas);
    const auto cols = static_cast<index_t>(header_.num_subcarriers);
    out.csi = linalg::CMat(rows, cols);
    // Column-major (antenna-fastest), matching linalg::Matrix storage.
    decode_csi(base + 32, out.csi.data(),
               static_cast<std::size_t>(out.csi.size()));
    consume(record_size_);
    ++records_read_;
    return ReadStatus::kOk;
  }
}

std::vector<ClientRound> read_client_rounds(TraceReader& reader) {
  std::vector<ClientRound> rounds;
  std::unordered_map<std::uint64_t, std::size_t> round_of;
  TraceRecord rec;
  for (;;) {
    const ReadStatus status = reader.next(rec);
    if (status == ReadStatus::kEndOfTrace) break;
    if (status == ReadStatus::kTruncated) {
      throw TraceError(TraceErrorCode::kTruncatedRecord,
                       "trace ended mid-record after " +
                           std::to_string(reader.records_read()) + " records");
    }
    if (status == ReadStatus::kCorrupt) {
      throw TraceError(TraceErrorCode::kCorruptRecord,
                       "corrupt trace record after " +
                           std::to_string(reader.records_read()) + " records");
    }
    auto [it, inserted] = round_of.try_emplace(rec.client_id, rounds.size());
    if (inserted) {
      rounds.emplace_back();
      rounds.back().client_id = rec.client_id;
      rounds.back().first_tick = rec.timestamp_tick;
    }
    ClientRound& round = rounds[it->second];
    std::size_t ap_slot = round.ap_ids.size();
    for (std::size_t k = 0; k < round.ap_ids.size(); ++k) {
      if (round.ap_ids[k] == rec.ap_id) {
        ap_slot = k;
        break;
      }
    }
    if (ap_slot == round.ap_ids.size()) {
      round.ap_ids.push_back(rec.ap_id);
      round.bursts.emplace_back();
      round.snr_db.push_back(rec.snr_db);
    }
    round.bursts[ap_slot].push_back(std::move(rec.csi));
  }
  return rounds;
}

}  // namespace roarray::io
