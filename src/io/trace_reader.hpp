// Streaming CSI trace reader: validates the header up front (typed
// errors for bad magic / version mismatch / corrupt headers), then
// yields records one at a time with bounded memory. Truncation and
// per-record corruption are detected via the fixed record size and the
// per-record CRC and reported as latched statuses.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/format.hpp"

namespace roarray::io {

/// Outcome of one TraceReader::next call.
enum class ReadStatus {
  kOk,          ///< a record was decoded into the output argument.
  kEndOfTrace,  ///< clean end: the stream ended on a record boundary.
  kTruncated,   ///< stream ended mid-record.
  kCorrupt,     ///< record magic or CRC mismatch.
};

[[nodiscard]] const char* read_status_name(ReadStatus status) noexcept;

class TraceReader {
 public:
  /// Reads and validates the header from `is` (borrowed, binary-clean).
  /// Throws TraceError on kBadMagic / kVersionMismatch / kBadHeader.
  explicit TraceReader(std::istream& is);

  /// Opens `path` and validates the header. Additionally throws
  /// TraceError(kBadHeader) when the file cannot be opened.
  explicit TraceReader(const std::string& path);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const TraceHeader& header() const noexcept { return header_; }
  [[nodiscard]] dsp::ArrayConfig array_config() const {
    return header_.array_config();
  }

  /// Advances to the next record. Returns kOk and fills `out`, or a
  /// terminal status. A terminal status latches: every later call
  /// reports the same status.
  [[nodiscard]] ReadStatus next(TraceRecord& out);

  [[nodiscard]] std::uint64_t records_read() const noexcept {
    return records_read_;
  }

 private:
  void read_and_validate_header();
  [[nodiscard]] ReadStatus latch(ReadStatus status) {
    latched_ = status;
    return status;
  }

  std::ifstream owned_;  ///< backing file for the path constructor.
  std::istream& is_;
  TraceHeader header_;
  std::vector<unsigned char> record_;  ///< one record's bytes.
  ReadStatus latched_ = ReadStatus::kOk;
  std::uint64_t records_read_ = 0;
};

/// One client's grouped measurement round, reassembled from a trace:
/// per contacted AP (first-appearance order) the burst of CSI packets
/// in record order. This is the unit a LocalizationService request
/// replays.
struct ClientRound {
  std::uint64_t client_id = 0;
  std::uint64_t first_tick = 0;
  std::vector<std::uint32_t> ap_ids;               ///< parallel to bursts.
  std::vector<std::vector<linalg::CMat>> bursts;   ///< packets per AP.
  std::vector<double> snr_db;                      ///< first-packet SNR per AP.
};

/// Drains `reader`, grouping records into per-client rounds (clients in
/// first-appearance order). A damaged record throws TraceError
/// (kTruncatedRecord / kCorruptRecord).
[[nodiscard]] std::vector<ClientRound> read_client_rounds(TraceReader& reader);

}  // namespace roarray::io
