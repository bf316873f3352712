// Offline workloads: one caller processes client rounds back to back
// (closed loop), each request estimating every AP burst with
// core::roarray_estimate on a shared OperatorCache and fusing the
// direct paths with loc::localize. No pool, no other thread.
#include <cmath>
#include <memory>
#include <string>

#include "dsp/angles.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = roarray::core;
namespace serve = roarray::serve;

namespace {

struct Request {
  std::vector<core::RoArrayResult> est;
  serve::Response response;
};

/// One request, untraced: per-AP estimates then assembly + localize.
Request run_request(const Round& round, const PipelineConfig& cfg,
                    roarray::runtime::OperatorCache& cache,
                    std::vector<double>& estimate_ms, std::vector<double>& localize_ms) {
  Request r;
  r.est.reserve(round.bursts.size());
  for (const core::CsiBurst& burst : round.bursts) {
    const Clock::time_point t0 = Clock::now();
    r.est.push_back(core::roarray_estimate(burst, cfg.estimator, cfg.array,
                                           {&cache, nullptr}));
    estimate_ms.push_back(ms_between(t0, Clock::now()));
  }
  double loc_ms = -1.0;  // stays negative when no AP gave an estimate.
  r.response = assemble_response(round, r.est, cfg, nullptr, &loc_ms);
  if (loc_ms >= 0.0) localize_ms.push_back(loc_ms);
  return r;
}

/// A request's fingerprint: the response plus each estimate's solver
/// counters (which the response does not carry).
std::uint64_t request_fingerprint(const Request& r) {
  Fingerprint f;
  f.add(fingerprint(r.response));
  for (const core::RoArrayResult& e : r.est) {
    f.add(static_cast<std::uint64_t>(e.solver_iterations));
    f.add(static_cast<std::uint64_t>(e.solver_converged));
  }
  return f.value();
}

}  // namespace

RunResult run_offline(const Options& opts, const WorkloadSpec& spec) {
  RunResult res;
  const PipelineConfig cfg = make_pipeline_config(spec);
  const std::vector<Round> rounds = make_rounds(spec, opts.seed);
  const std::size_t distinct = rounds.size();

  // Set-up: a cold OperatorCache fill; each fill replaces the cache the
  // run goes on with.
  std::unique_ptr<roarray::runtime::OperatorCache> cache;
  std::vector<double> setup_ms;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    cache = std::make_unique<roarray::runtime::OperatorCache>();
    fill_cache(*cache, cfg);
    return ms_between(t0, Clock::now());
  };
  setup_window(set_up, setup_ms);

  // The cache must not change results: round 0 with and without it.
  for (const core::CsiBurst& burst : rounds[0].bursts) {
    const core::RoArrayResult with =
        core::roarray_estimate(burst, cfg.estimator, cfg.array, {cache.get(), nullptr});
    const core::RoArrayResult without =
        core::roarray_estimate(burst, cfg.estimator, cfg.array);
    if (!same_result(with, without)) {
      res.fail("round 0 differs with and without the OperatorCache context");
      break;
    }
  }

  std::vector<double> estimate_ms, localize_ms, latency_ms;
  for (index_t w = 0; w < spec.warmup; ++w) {
    (void)run_request(rounds[static_cast<std::size_t>(w) % distinct], cfg, *cache,
                      estimate_ms, localize_ms);
  }
  estimate_ms.clear();
  localize_ms.clear();

  // Untimed rounds aside, the timed phase covers the whole distinct set
  // once (the count and accuracy metrics come from that first pass)
  // and every later pass must reproduce it bit for bit.
  const double seconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const std::size_t min_requests = std::max(distinct, kMinTimedRequests);
  std::vector<std::uint64_t> first_pass(distinct);
  std::vector<double> loc_err, aoa_err;
  double estimates = 0, valid = 0, iterations = 0, converged = 0;
  double fused = 0, ransac = 0, ap_rejected = 0;
  std::size_t ok = 0, requests = 0, repeat_mismatches = 0;

  const Clock::time_point start = Clock::now();
  for (;; ++requests) {
    if (requests >= min_requests && ms_between(start, Clock::now()) >= seconds * 1e3) {
      break;
    }
    const std::size_t d = requests % distinct;
    const Round& round = rounds[d];
    const Clock::time_point t0 = Clock::now();
    const Request r = run_request(round, cfg, *cache, estimate_ms, localize_ms);
    latency_ms.push_back(ms_between(t0, Clock::now()));

    const bool req_ok = r.response.status == serve::ResponseStatus::kOk;
    ok += req_ok ? 1 : 0;
    const std::uint64_t fp = request_fingerprint(r);
    if (requests >= distinct) {
      if (fp != first_pass[d] && repeat_mismatches++ == 0) {
        res.fail("round " + std::to_string(d) + " changed when repeated");
      }
      continue;
    }
    first_pass[d] = fp;
    for (std::size_t j = 0; j < r.est.size(); ++j) {
      const core::RoArrayResult& e = r.est[j];
      estimates += 1;
      iterations += e.solver_iterations;
      converged += e.solver_converged ? 1 : 0;
      if (!e.valid) continue;
      valid += 1;
      aoa_err.push_back(roarray::dsp::angle_diff_deg(e.direct.aoa_deg,
                                                      round.true_aoa_deg[j]));
    }
    if (!req_ok) continue;
    const auto& pos = r.response.location.position;
    loc_err.push_back(std::hypot(pos.x - round.client.x, pos.y - round.client.y));
    if (r.response.location.used_fusion) {
      const auto& fusion = r.response.location.fusion;
      fused += 1;
      ransac += fusion.used_ransac ? 1 : 0;
      ap_rejected += static_cast<double>(fusion.per_ap.size()) - fusion.inliers;
    }
  }
  const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
  const double cache_entries = static_cast<double>(cache->size());
  setup_window(set_up, setup_ms);

  res.attempted = requests;
  res.failed = requests - ok;
  res.set("throughput_rps", static_cast<double>(ok) / elapsed_s);
  res.set("latency_p50_ms", percentile(latency_ms, 0.5));
  res.set("latency_p90_ms", percentile(latency_ms, 0.9));
  res.set("loc_err_p50_m", percentile(loc_err, 0.5));
  res.set("loc_err_p90_m", percentile(loc_err, 0.9));
  res.set("aoa_err_p50_deg", percentile(aoa_err, 0.5));
  res.set("ok_frac", static_cast<double>(ok) / static_cast<double>(requests));
  res.set("setup_s", median(setup_ms) / 1e3);

  res.set("runtime.cache_build_ms", median(setup_ms));
  res.set("runtime.cache_entries", cache_entries);
  res.set("core.estimate_ms", mean(estimate_ms));
  res.set("core.valid_frac", valid / estimates);
  res.set("sparse.iterations_mean", iterations / estimates);
  res.set("sparse.converged_frac", converged / estimates);
  res.set("loc.localize_ms", mean(localize_ms));
  res.set("fusion.ransac_frac", fused > 0 ? ransac / fused : 0.0);
  res.set("fusion.ap_rejected_per_req", fused > 0 ? ap_rejected / fused : 0.0);

  if (opts.trace) {
    run_traced(rounds, cfg, *cache, opts.seconds / 2.0,
               static_cast<std::size_t>(spec.traced_min), res);
  }
  res.set("peak_rss_mb", peak_rss_mb());
  return res;
}

}  // namespace perfbench
