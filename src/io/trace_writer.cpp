#include "io/trace_writer.hpp"

#include <ostream>

#include "io/crc32.hpp"
#include "io/wire.hpp"

namespace roarray::io {

namespace {

/// Encodes `n` CSI values as re, im f64 pairs from `p`; returns the
/// position past the last one.
unsigned char* encode_csi(const linalg::cxd* src, std::size_t n,
                          unsigned char* p) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    p = wire::put_f64(p, src[k].real());
    p = wire::put_f64(p, src[k].imag());
  }
  return p;
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& os, const dsp::ArrayConfig& array_cfg)
    : os_(os), header_(TraceHeader::of(array_cfg)) {
  write_header();
}

TraceWriter::TraceWriter(const std::string& path,
                         const dsp::ArrayConfig& array_cfg)
    : owned_(path, std::ios::binary | std::ios::trunc),
      os_(owned_),
      header_(TraceHeader::of(array_cfg)) {
  if (!owned_) {
    throw TraceError(TraceErrorCode::kWriteFailed,
                     "cannot open trace file for writing: " + path);
  }
  write_header();
}

void TraceWriter::write_header() {
  const std::vector<unsigned char> image = encode_header(header_);
  os_.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  if (!os_) {
    throw TraceError(TraceErrorCode::kWriteFailed,
                     "writing trace header failed");
  }
}

void TraceWriter::append(const TraceRecord& record) {
  const auto rows = static_cast<index_t>(header_.num_antennas);
  const auto cols = static_cast<index_t>(header_.num_subcarriers);
  if (record.csi.rows() != rows || record.csi.cols() != cols) {
    throw TraceError(
        TraceErrorCode::kGeometryMismatch,
        "record CSI is " + std::to_string(record.csi.rows()) + "x" +
            std::to_string(record.csi.cols()) + " but the trace header says " +
            std::to_string(rows) + "x" + std::to_string(cols));
  }
  // Sized once: every record of a trace has the same length.
  buf_.resize(header_.record_size_bytes());
  unsigned char* p = buf_.data();
  p = wire::put_u32(p, kRecordMagic);
  p = wire::put_u32(p, record.ap_id);
  p = wire::put_u64(p, record.client_id);
  p = wire::put_u64(p, record.timestamp_tick);
  p = wire::put_f64(p, record.snr_db);
  // Column-major (antenna-fastest), matching linalg::Matrix storage.
  p = encode_csi(record.csi.data(),
                 static_cast<std::size_t>(record.csi.size()), p);
  wire::put_u32(p, crc32(buf_.data(), buf_.size() - 4));
  os_.write(reinterpret_cast<const char*>(buf_.data()),
            static_cast<std::streamsize>(buf_.size()));
  if (!os_) {
    throw TraceError(TraceErrorCode::kWriteFailed,
                     "writing trace record " + std::to_string(records_) +
                         " failed");
  }
  ++records_;
}

void TraceWriter::flush() {
  os_.flush();
  if (!os_) {
    throw TraceError(TraceErrorCode::kWriteFailed, "flushing trace failed");
  }
}

}  // namespace roarray::io
