#include "io/format.hpp"

#include <cmath>

#include "io/crc32.hpp"
#include "io/wire.hpp"

namespace roarray::io {

const char* trace_error_name(TraceErrorCode code) noexcept {
  switch (code) {
    case TraceErrorCode::kBadMagic: return "bad-magic";
    case TraceErrorCode::kVersionMismatch: return "version-mismatch";
    case TraceErrorCode::kBadHeader: return "bad-header";
    case TraceErrorCode::kGeometryMismatch: return "geometry-mismatch";
    case TraceErrorCode::kWriteFailed: return "write-failed";
    case TraceErrorCode::kTruncatedRecord: return "truncated-record";
    case TraceErrorCode::kCorruptRecord: return "corrupt-record";
  }
  return "unknown";
}

TraceHeader TraceHeader::of(const dsp::ArrayConfig& array_cfg) {
  array_cfg.validate();
  if (array_cfg.num_antennas > static_cast<index_t>(kMaxDimension) ||
      array_cfg.num_subcarriers > static_cast<index_t>(kMaxDimension)) {
    throw TraceError(TraceErrorCode::kBadHeader,
                     "TraceHeader: array geometry exceeds format bounds");
  }
  TraceHeader h;
  h.num_antennas = static_cast<std::uint32_t>(array_cfg.num_antennas);
  h.num_subcarriers = static_cast<std::uint32_t>(array_cfg.num_subcarriers);
  h.wavelength_m = array_cfg.wavelength_m;
  h.antenna_spacing_m = array_cfg.antenna_spacing_m;
  h.subcarrier_spacing_hz = array_cfg.subcarrier_spacing_hz;
  return h;
}

dsp::ArrayConfig TraceHeader::array_config() const {
  dsp::ArrayConfig cfg;
  cfg.num_antennas = static_cast<index_t>(num_antennas);
  cfg.num_subcarriers = static_cast<index_t>(num_subcarriers);
  cfg.wavelength_m = wavelength_m;
  cfg.antenna_spacing_m = antenna_spacing_m;
  cfg.subcarrier_spacing_hz = subcarrier_spacing_hz;
  return cfg;
}

std::vector<unsigned char> encode_header(const TraceHeader& h) {
  std::vector<unsigned char> out(kHeaderBytes);
  unsigned char* p = out.data();
  p = wire::put_u64(p, kTraceMagic);
  p = wire::put_u32(p, h.version);
  p = wire::put_u32(p, static_cast<std::uint32_t>(kHeaderBytes));
  p = wire::put_u32(p, h.num_antennas);
  p = wire::put_u32(p, h.num_subcarriers);
  p = wire::put_f64(p, h.wavelength_m);
  p = wire::put_f64(p, h.antenna_spacing_m);
  p = wire::put_f64(p, h.subcarrier_spacing_hz);
  p = wire::put_u64(p, 0);  // reserved
  p = wire::put_u32(p, 0);  // reserved
  wire::put_u32(p, crc32(out.data(), kHeaderBytes - 4));
  return out;
}

TraceHeader decode_header(const unsigned char* bytes, std::size_t n) {
  if (n < kHeaderBytes) {
    throw TraceError(TraceErrorCode::kBadHeader,
                     "trace header truncated: " + std::to_string(n) + " of " +
                         std::to_string(kHeaderBytes) + " bytes");
  }
  if (wire::get_u64(bytes) != kTraceMagic) {
    throw TraceError(TraceErrorCode::kBadMagic,
                     "not a ROArray CSI trace (magic mismatch)");
  }
  const std::uint32_t version = wire::get_u32(bytes + 8);
  if (version != kTraceVersion) {
    throw TraceError(TraceErrorCode::kVersionMismatch,
                     "trace format version " + std::to_string(version) +
                         " is not the supported version " +
                         std::to_string(kTraceVersion));
  }
  const std::uint32_t stored_crc = wire::get_u32(bytes + kHeaderBytes - 4);
  if (crc32(bytes, kHeaderBytes - 4) != stored_crc) {
    throw TraceError(TraceErrorCode::kBadHeader, "trace header CRC mismatch");
  }
  TraceHeader h;
  h.version = version;
  const std::uint32_t header_size = wire::get_u32(bytes + 12);
  h.num_antennas = wire::get_u32(bytes + 16);
  h.num_subcarriers = wire::get_u32(bytes + 20);
  h.wavelength_m = wire::get_f64(bytes + 24);
  h.antenna_spacing_m = wire::get_f64(bytes + 32);
  h.subcarrier_spacing_hz = wire::get_f64(bytes + 40);
  if (header_size != kHeaderBytes || h.num_antennas == 0 ||
      h.num_subcarriers == 0 || h.num_antennas > kMaxDimension ||
      h.num_subcarriers > kMaxDimension || !std::isfinite(h.wavelength_m) ||
      !std::isfinite(h.antenna_spacing_m) ||
      !std::isfinite(h.subcarrier_spacing_hz) || h.wavelength_m <= 0.0 ||
      h.antenna_spacing_m <= 0.0 || h.subcarrier_spacing_hz <= 0.0) {
    throw TraceError(TraceErrorCode::kBadHeader,
                     "trace header carries nonsensical geometry");
  }
  return h;
}

}  // namespace roarray::io
