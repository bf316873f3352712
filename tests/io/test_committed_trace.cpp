// Compatibility with traces written by earlier builds: the committed
// BENCH_serve_trace.bin must still decode cleanly in strict mode, and
// re-encoding its records must reproduce the file byte for byte, which
// pins the CRC and the wire codec to bytes already on disk.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "io/trace_reader.hpp"
#include "io/trace_writer.hpp"

#ifndef ROARRAY_SERVE_TRACE
#error "ROARRAY_SERVE_TRACE must name the committed serve trace"
#endif

namespace roarray {
namespace {

TEST(TraceCompatibility, CommittedTraceDecodesAndReencodesByteForByte) {
  std::ifstream file(ROARRAY_SERVE_TRACE, std::ios::binary);
  ASSERT_TRUE(file) << "cannot open " << ROARRAY_SERVE_TRACE;
  const std::string original((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());

  std::istringstream in(original, std::ios::binary);
  io::TraceReader reader(in);
  std::ostringstream out(std::ios::binary);
  io::TraceWriter writer(out, reader.array_config());
  io::TraceRecord rec;
  io::ReadStatus status = io::ReadStatus::kOk;
  while ((status = reader.next(rec)) == io::ReadStatus::kOk) {
    writer.append(rec);
  }
  writer.flush();
  EXPECT_EQ(status, io::ReadStatus::kEndOfTrace)
      << io::read_status_name(status) << " after " << reader.records_read()
      << " records";
  EXPECT_GT(reader.records_read(), 0U);
  EXPECT_EQ(reader.records_read() * reader.header().record_size_bytes() +
                io::kHeaderBytes,
            original.size());
  EXPECT_TRUE(out.str() == original) << "re-encoded trace differs";
}

}  // namespace
}  // namespace roarray
