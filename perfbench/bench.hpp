// Shared pieces of the ROArray benchmark: options, the metric/result
// record every workload fills, percentiles, exact-equality fingerprints,
// and the in-memory span recorder the traced runs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/roarray.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";  ///< passed in by run.py.
  std::string spans_path;            ///< traced runs write their spans here.
};

/// A metric name and its unit, as BENCHMARK.json lists them.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced runs) and the per-layer metrics
/// (traced runs), in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

class SpanRecorder;

/// What one run reports: the correctness verdict, the request counts,
/// the metric values by name, and what the provenance block needs.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;
  int pool_lanes = 0;     ///< ThreadPool lanes (0 = no pool).
  int total_threads = 1;  ///< threads the run's timed phase uses.
  std::shared_ptr<SpanRecorder> spans;  ///< set by traced runs.

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value) { values[name] = value; }
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(const std::vector<double>& v);

/// FNV-1a over the bit patterns of the values fed in: two results with
/// the same fingerprint are (up to a 2^-64 collision) bit-identical.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Bit-exact equality of two estimator results: validity, solver
/// counters, every path, the direct path, and every spectrum sample.
[[nodiscard]] bool same_result(const roarray::core::RoArrayResult& a,
                               const roarray::core::RoArrayResult& b);

/// One span: a named interval on the benchmark clock, the span that
/// caused it (kNoParent for a request root), and the request it
/// belongs to.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Spans are appended in memory during the traced phase and written
/// out once the run ends; nothing is formatted or flushed while timing.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve);

  [[nodiscard]] std::uint32_t open(const char* name, std::uint32_t parent,
                                   std::uint64_t request);
  void close(std::uint32_t id);
  [[nodiscard]] double duration_ms(std::uint32_t id) const;

  /// Summed self time (duration minus the time covered by direct
  /// children) of every span named `name`, in ms.
  [[nodiscard]] double self_ms(const char* name) const;
  [[nodiscard]] std::size_t count(const char* name) const;

  /// Writes {"provenance": ..., "spans": [...]} to `path`; false when
  /// the file cannot be written.
  bool write_json(const std::string& path, const std::string& provenance_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint32_t parent,
             std::uint64_t request)
      : rec_(rec), id_(rec.open(name, parent, request)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { rec_.close(id_); }
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

/// Peak resident set size of this program (VmHWM), in MB; 0 when the
/// kernel does not report it.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
