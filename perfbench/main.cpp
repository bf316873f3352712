// ROArray benchmark entry point:
//   roarray_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--revision REV] [--spans PATH]
// Prints a provenance line, then as its last line one JSON object with
// correct / attempted / failed / metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Normally launched by
// run.py, which builds this program from the repository sources first.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "linalg/backend/backend.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "roarray_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: roarray_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--revision REV] [--spans PATH]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (flag == "--revision") {
      o.revision = v;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      usage(("unknown option " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      usage(("bad number for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string provenance(const Options& o, const RunResult& r) {
  namespace be = roarray::linalg::backend;
  const be::Dispatch d = be::dispatch_info();
  const char* env = std::getenv("ROARRAY_BACKEND");
  std::string p = "{";
  p += "\"workload\": " + json_string(o.workload);
  p += ", \"seed\": " + std::to_string(o.seed);
  p += ", \"seconds\": " + std::to_string(o.seconds);
  p += ", \"trace\": " + std::string(o.trace ? "true" : "false");
  p += ", \"revision\": " + json_string(o.revision);
  p += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  p += ", \"compiler\": " + json_string(__VERSION__);
  p += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  p += ", \"pool_lanes\": " + std::to_string(r.pool_lanes);
  p += ", \"total_threads\": " + std::to_string(r.total_threads);
  p += ", \"roarray_backend_env\": " + json_string(env != nullptr ? env : "");
  p += ", \"backend_requested\": " + json_string(d.requested);
  p += ", \"backend_selected\": " + json_string(d.selected->name);
  p += ", \"simd_compiled\": " + std::string(d.simd_compiled ? "true" : "false");
  p += ", \"simd_supported\": " + std::string(d.simd_supported ? "true" : "false");
  p += ", \"cpu_features\": " + json_string(be::cpu_features());
  return p + "}";
}

/// Renders the metrics of `defs`, failing `r` on a missing end-to-end
/// value or any non-finite one. Per-layer metrics a workload does not
/// exercise (serve.* offline, io.* offline, l1svd/mdl on 1 packet...)
/// are reported as 0.
std::string render_metrics(const std::vector<MetricDef>& defs, bool required,
                           RunResult& r) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.values.find(defs[i].name);
    double v = 0.0;
    if (it != r.values.end()) {
      v = it->second;
    } else if (required) {
      r.fail(std::string("metric not measured: ") + defs[i].name);
    }
    if (!std::isfinite(v)) {
      r.fail(std::string("non-finite metric: ") + defs[i].name);
      v = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (i == 0 ? "" : ", ") + json_string(defs[i].name) + ": {\"value\": " + num +
           ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(opts.workload);
  if (spec == nullptr) {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    usage(("unknown workload; known:" + known).c_str());
  }
  RunResult r;
  try {
    r = spec->serve ? run_serve_open(opts, *spec) : run_offline(opts, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roarray_perfbench: %s\n", e.what());
    return 1;
  }

  const std::string prov = provenance(opts, r);
  std::printf("provenance %s\n", prov.c_str());
  if (opts.trace) {
    const double coverage = r.values["trace.stage_coverage"];
    if (coverage < 0.9 || coverage > 1.1) {
      std::fprintf(stderr, "warning: trace.stage_coverage %.3f outside [0.9, 1.1]\n",
                   coverage);
    }
    if (!opts.spans_path.empty() && r.spans != nullptr &&
        !r.spans->write_json(opts.spans_path, prov)) {
      r.fail("cannot write spans to " + opts.spans_path);
    }
  }
  const std::string metrics = opts.trace ? render_metrics(per_layer_metrics(), false, r)
                                         : render_metrics(end_to_end_metrics(), true, r);
  for (const std::string& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
