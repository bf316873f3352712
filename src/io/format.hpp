// On-disk CSI packet-trace format shared by TraceWriter / TraceReader.
//
// A trace is one 64-byte file header followed by zero or more
// fixed-size records. Everything multi-byte is little-endian on disk
// regardless of host endianness (serialized by the wire codec in
// wire.hpp, doubles as their IEEE-754 bit patterns, so CSI values
// round-trip bit-exactly).
//
// File header (64 bytes):
//   offset size field
//   0      8    magic "ROARRCSI"
//   8      4    version (u32, currently 1)
//   12     4    header_size (u32, = 64; lets future versions grow)
//   16     4    num_antennas M (u32)
//   20     4    num_subcarriers L (u32)
//   24     8    wavelength_m (f64)
//   32     8    antenna_spacing_m (f64)
//   40     8    subcarrier_spacing_hz (f64)
//   48     8    reserved (u64, 0)
//   56     4    reserved (u32, 0)
//   60     4    CRC-32 of bytes [0, 60)
//
// Record (36 + 16*M*L bytes):
//   offset      size    field
//   0           4       record magic (u32, "RTRC" on disk), checked
//                       by the reader and covered by the CRC
//   4           4       ap_id (u32)
//   8           8       client_id (u64)
//   16          8       timestamp_tick (u64) — caller-supplied logical time
//   24          8       snr_db (f64)
//   32          16*M*L  CSI matrix, column-major (antenna-fastest, the
//                       same layout as linalg::Matrix): per element
//                       re (f64) then im (f64)
//   32 + 16*M*L 4       CRC-32 of bytes [0, 32 + 16*M*L) — i.e. every
//                       record byte before the CRC field, magic included
//
// Versioning policy: the version is bumped whenever any byte layout
// above changes; readers reject (typed error, never a guess) any
// version they were not built for. See DESIGN.md §9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/constants.hpp"
#include "linalg/matrix.hpp"

namespace roarray::io {

using linalg::index_t;

/// "ROARRCSI" read as a little-endian u64.
inline constexpr std::uint64_t kTraceMagic = 0x4953435252414F52ULL;
inline constexpr std::uint32_t kTraceVersion = 1;
/// "RTRC" on disk when written little-endian.
inline constexpr std::uint32_t kRecordMagic = 0x43525452U;

inline constexpr std::size_t kHeaderBytes = 64;
/// Record bytes that are not CSI payload: magic + ids + tick + snr + CRC.
inline constexpr std::size_t kRecordOverheadBytes = 36;
/// Geometry bound a well-formed header must respect; guards the reader
/// against allocating absurd buffers from a corrupted header.
inline constexpr std::uint32_t kMaxDimension = 4096;

/// Everything that can go wrong with a trace, as a typed code so
/// callers can branch without parsing message strings.
enum class TraceErrorCode {
  kBadMagic,          ///< file does not start with the trace magic.
  kVersionMismatch,   ///< written by an incompatible format version.
  kBadHeader,         ///< header truncated, CRC-corrupt, or nonsensical.
  kGeometryMismatch,  ///< record CSI shape does not match the header.
  kWriteFailed,       ///< output stream / file failure.
  kTruncatedRecord,   ///< stream ended mid-record.
  kCorruptRecord,     ///< record magic or CRC mismatch.
};

[[nodiscard]] const char* trace_error_name(TraceErrorCode code) noexcept;

/// Typed trace failure. Thrown for header / usage / stream errors;
/// per-record data errors are reported as ReadStatus by the reader
/// (and only escalate to this from convenience wrappers).
class TraceError : public std::runtime_error {
 public:
  TraceError(TraceErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] TraceErrorCode code() const noexcept { return code_; }

 private:
  TraceErrorCode code_;
};

/// Decoded file header: the array geometry every record's CSI matrix
/// must match.
struct TraceHeader {
  std::uint32_t version = kTraceVersion;
  std::uint32_t num_antennas = 0;
  std::uint32_t num_subcarriers = 0;
  double wavelength_m = 0.0;
  double antenna_spacing_m = 0.0;
  double subcarrier_spacing_hz = 0.0;

  [[nodiscard]] static TraceHeader of(const dsp::ArrayConfig& array_cfg);

  /// The ArrayConfig a replaying consumer should estimate with.
  [[nodiscard]] dsp::ArrayConfig array_config() const;

  /// Fixed per-record size implied by the geometry.
  [[nodiscard]] std::size_t record_size_bytes() const noexcept {
    return kRecordOverheadBytes +
           16U * static_cast<std::size_t>(num_antennas) *
               static_cast<std::size_t>(num_subcarriers);
  }
};

/// One CSI packet observation: which AP heard which client when, at
/// what SNR, and the M x L CSI matrix the receiver reported.
/// `timestamp_tick` is a caller-defined logical time (the library never
/// reads a clock); recorders typically use packet indices and services
/// map ticks to whatever real time base drives them.
struct TraceRecord {
  std::uint32_t ap_id = 0;
  std::uint64_t client_id = 0;
  std::uint64_t timestamp_tick = 0;
  double snr_db = 0.0;
  linalg::CMat csi;
};

/// Serializes the 64-byte header image (CRC included).
[[nodiscard]] std::vector<unsigned char> encode_header(const TraceHeader& h);

/// Parses and validates a 64-byte header image. Throws TraceError
/// (kBadMagic / kVersionMismatch / kBadHeader) on any defect.
[[nodiscard]] TraceHeader decode_header(const unsigned char* bytes,
                                        std::size_t n);

}  // namespace roarray::io
