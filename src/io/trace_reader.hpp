// Streaming CSI trace reader: validates the header up front (typed
// errors for bad magic / version mismatch / corrupt headers), then
// yields records one at a time with bounded memory. Truncation and
// per-record corruption are detected via the fixed record size and the
// per-record CRC; strict mode reports them as statuses, recovery mode
// scans forward to the next record magic and keeps going.
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
  kTruncated,   ///< stream ended mid-record (strict mode only).
  kCorrupt,     ///< record magic or CRC mismatch (strict mode only).
};

[[nodiscard]] const char* read_status_name(ReadStatus status) noexcept;

/// What to do when a record fails its integrity checks.
enum class RecoveryMode {
  kStrict,       ///< report the defect; the reader latches the error.
  kSkipCorrupt,  ///< resync on the next record magic and keep reading.
};

class TraceReader {
 public:
  /// Reads and validates the header from `is` (borrowed, binary-clean).
  /// Throws TraceError on kBadMagic / kVersionMismatch / kBadHeader.
  explicit TraceReader(std::istream& is,
                       RecoveryMode mode = RecoveryMode::kStrict);

  /// Opens `path` and validates the header. Additionally throws
  /// TraceError(kBadHeader) when the file cannot be opened.
  explicit TraceReader(const std::string& path,
                       RecoveryMode mode = RecoveryMode::kStrict);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const TraceHeader& header() const noexcept { return header_; }
  [[nodiscard]] dsp::ArrayConfig array_config() const {
    return header_.array_config();
  }

  /// Advances to the next record. Returns kOk and fills `out`, or a
  /// terminal status. In strict mode the first kTruncated / kCorrupt
  /// latches: every later call reports the same status. In recovery
  /// mode those statuses never surface — damaged spans are skipped
  /// (counted in records_skipped / bytes_skipped) and only kOk or
  /// kEndOfTrace is returned.
  [[nodiscard]] ReadStatus next(TraceRecord& out);

  [[nodiscard]] std::uint64_t records_read() const noexcept {
    return records_read_;
  }
  /// Damaged records dropped by recovery mode (0 in strict mode).
  [[nodiscard]] std::uint64_t records_skipped() const noexcept {
    return records_skipped_;
  }
  /// Bytes discarded while resyncing (0 in strict mode).
  [[nodiscard]] std::uint64_t bytes_skipped() const noexcept {
    return bytes_skipped_;
  }

 private:
  void read_and_validate_header();
  [[nodiscard]] std::size_t available() const noexcept {
    return win_.size() - head_;
  }
  /// Tops the window up to `n` unconsumed bytes (stops early at EOF).
  void ensure(std::size_t n);
  void consume(std::size_t n);
  /// Recovery transition: drop the damaged byte at head_ and the bytes
  /// after it up to the next record magic; positions head_ on it. Returns
  /// false when the stream ends first (everything left is discarded).
  [[nodiscard]] bool resync();
  [[nodiscard]] ReadStatus latch(ReadStatus status) {
    latched_ = status;
    return status;
  }

  std::ifstream owned_;  ///< backing file for the path constructor.
  std::istream& is_;
  RecoveryMode mode_;
  TraceHeader header_;
  std::size_t record_size_ = 0;
  std::vector<unsigned char> win_;  ///< read window; bounded by record size.
  std::size_t head_ = 0;            ///< first unconsumed byte in win_.
  ReadStatus latched_ = ReadStatus::kOk;
  std::uint64_t records_read_ = 0;
  std::uint64_t records_skipped_ = 0;
  std::uint64_t bytes_skipped_ = 0;
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
/// first-appearance order). In strict mode a damaged record throws
/// TraceError (kTruncatedRecord / kCorruptRecord); in recovery mode
/// damaged spans are skipped by the reader and this never throws.
[[nodiscard]] std::vector<ClientRound> read_client_rounds(TraceReader& reader);

}  // namespace roarray::io
