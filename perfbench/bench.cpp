#include "bench.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "eval/cdf.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_rps", "1/s"},  {"latency_p50_ms", "ms"},
      {"loc_err_p50_m", "m"},
      {"aoa_err_p50_deg", "deg"},
      {"ok_frac", "1"},           {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"runtime.cache_build_ms", "ms"},
      {"runtime.cache_entries", "count"},
      {"runtime.cache_lookup_ms", "ms"},
      {"io.decode_ms", "ms"},
      {"io.decode_mb_s", "MB/s"},
      {"core.estimate_ms", "ms"},
      {"core.valid_frac", "1"},
      {"core.stack_ms", "ms"},
      {"dsp.sanitize_ms", "ms"},
      {"sparse.l1svd_ms", "ms"},
      {"music.mdl_ms", "ms"},
      {"sparse.coarse_select_ms", "ms"},
      {"sparse.support_setup_ms", "ms"},
      {"sparse.solve_ms", "ms"},
      {"sparse.iterations_mean", "count"},
      {"sparse.converged_frac", "1"},
      {"sparse.support_cells_mean", "count"},
      {"linalg.apply_cmacs_per_estimate", "count"},
      {"dsp.spectrum_peaks_ms", "ms"},
      {"loc.localize_ms", "ms"},
      {"loc.grid_ms", "ms"},
      {"fusion.fuse_ms", "ms"},
      {"fusion.ransac_frac", "1"},
      {"fusion.ap_rejected_per_req", "count"},
      {"latency_p90_ms", "ms"},
      {"loc_err_p90_m", "m"},
      {"serve.submit_us", "us"},
      {"serve.mean_batch_size", "count"},
      {"serve.batches", "count"},
      {"serve.queue_depth_mean", "count"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.rejected_frac", "1"},
      {"serve.gen_late_ms_p90", "ms"},
      {"trace.overhead_frac", "1"},
      {"trace.stage_coverage", "1"},
  };
  return defs;
}

double percentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  return roarray::eval::Cdf(v).percentile(q);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_path(const roarray::core::PathEstimate& a,
               const roarray::core::PathEstimate& b) {
  return same_bits(a.aoa_deg, b.aoa_deg) && same_bits(a.toa_s, b.toa_s) &&
         same_bits(a.power, b.power);
}

}  // namespace

bool same_result(const roarray::core::RoArrayResult& a,
                 const roarray::core::RoArrayResult& b) {
  if (a.valid != b.valid || a.solver_iterations != b.solver_iterations ||
      a.solver_converged != b.solver_converged ||
      a.paths.size() != b.paths.size() || !same_path(a.direct, b.direct)) {
    return false;
  }
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (!same_path(a.paths[i], b.paths[i])) return false;
  }
  const auto& va = a.spectrum.values;
  const auto& vb = b.spectrum.values;
  return va.rows() == vb.rows() && va.cols() == vb.cols() &&
         std::memcmp(va.data(), vb.data(),
                     static_cast<std::size_t>(va.size()) * sizeof(double)) == 0;
}

SpanRecorder::SpanRecorder(std::size_t reserve) : origin_(Clock::now()) {
  spans_.reserve(reserve);
}

std::uint32_t SpanRecorder::open(const char* name, std::uint32_t parent,
                                 std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::uint32_t id) {
  spans_[id].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

double SpanRecorder::duration_ms(std::uint32_t id) const {
  return (spans_[id].end_us - spans_[id].start_us) / 1000.0;
}

double SpanRecorder::self_ms(const char* name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != Span::kNoParent) child_us[s.parent] += s.end_us - s.start_us;
  }
  double total_us = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    total_us += spans_[i].end_us - spans_[i].start_us - child_us[i];
  }
  return total_us / 1000.0;
}

std::size_t SpanRecorder::count(const char* name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& s) { return std::strcmp(s.name, name) == 0; }));
}

bool SpanRecorder::write_json(const std::string& path,
                              const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"provenance\": %s,\n\"spans\": [\n", provenance_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, parent, static_cast<unsigned long long>(s.request), s.name,
                 s.start_us, s.end_us, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss is not: Linux carries it over from the parent
  // across fork + exec, so it would report the launcher's footprint
  // whenever that is larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
