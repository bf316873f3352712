// serve_open: open-loop Poisson arrivals into one LocalizationService
// (1 dispatcher, ThreadPool(2), dynamic batching up to 8, no linger or
// deadline). The requests are recorded to an in-memory CSI trace as
// input and decoded by the program during set-up. One generator thread
// submits each request at its scheduled time; latency runs from that
// scheduled time to the response callback, so a stall also charges the
// requests queued behind it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <memory>
#include <random>
#include <streambuf>
#include <string>
#include <thread>

#include "dsp/angles.hpp"
#include "io/trace_reader.hpp"
#include "runtime/thread_pool.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = roarray::core;
namespace io = roarray::io;
namespace serve = roarray::serve;

namespace {

constexpr int kPoolLanes = 2;
constexpr index_t kMaxBatch = 8;

/// Read-only stream over bytes already in memory (no copy).
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

/// The program's state after set-up. Members are destroyed in reverse
/// order, so the service stops before the pool and cache it borrows;
/// release() does the same explicitly.
struct Served {
  std::unique_ptr<roarray::runtime::OperatorCache> cache;
  std::unique_ptr<roarray::runtime::ThreadPool> pool;
  std::unique_ptr<serve::LocalizationService> service;
  std::vector<serve::Request> requests;  ///< one per decoded round.
  double decode_ms = 0.0;
  double cache_ms = 0.0;

  void release() {
    service.reset();
    pool.reset();
    cache.reset();
  }
};

/// Set-up, timed as a whole: trace decode, request construction, cache
/// fill, pool and service construction.
Served set_up(const std::string& trace, const PipelineConfig& cfg,
              const serve::ServeConfig& scfg) {
  Served s;
  Clock::time_point t0 = Clock::now();
  MemoryBuf buf(trace);
  std::istream in(&buf);
  io::TraceReader reader(in);
  const std::vector<io::ClientRound> decoded = io::read_client_rounds(reader);
  s.decode_ms = ms_between(t0, Clock::now());
  for (const io::ClientRound& round : decoded) {
    serve::Request req;
    req.client_id = round.client_id;
    for (std::size_t a = 0; a < round.ap_ids.size(); ++a) {
      req.aps.push_back({round.ap_ids[a], round.bursts[a]});
    }
    s.requests.push_back(std::move(req));
  }
  t0 = Clock::now();
  s.cache = std::make_unique<roarray::runtime::OperatorCache>();
  fill_cache(*s.cache, cfg);
  s.cache_ms = ms_between(t0, Clock::now());
  s.pool = std::make_unique<roarray::runtime::ThreadPool>(kPoolLanes);
  s.service = std::make_unique<serve::LocalizationService>(
      scfg, roarray::runtime::EstimateContext{s.cache.get(), s.pool.get()});
  return s;
}

/// The decoded requests must carry exactly the recorded rounds.
bool decoded_matches(const std::vector<serve::Request>& requests,
                     const std::vector<Round>& rounds) {
  if (requests.size() != rounds.size()) return false;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const serve::Request& req = requests[r];
    if (req.client_id != rounds[r].client_id || req.aps.size() != rounds[r].ap_ids.size()) {
      return false;
    }
    for (std::size_t a = 0; a < req.aps.size(); ++a) {
      const auto& got = req.aps[a].packets;
      const auto& want = rounds[r].bursts[a];
      if (req.aps[a].ap_id != rounds[r].ap_ids[a] || got.size() != want.size()) return false;
      for (std::size_t p = 0; p < got.size(); ++p) {
        if (got[p].size() != want[p].size() ||
            std::memcmp(got[p].data(), want[p].data(),
                        static_cast<std::size_t>(got[p].size()) * sizeof(got[p].data()[0])) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Per-submission record; slot i is written only by request i's callback.
struct Slot {
  Clock::time_point due;
  Clock::time_point done;
  bool accepted = false;
  bool completed = false;
  serve::ResponseStatus status = serve::ResponseStatus::kOk;
  std::uint64_t fingerprint = 0;
};

}  // namespace

RunResult run_serve_open(const Options& opts, const WorkloadSpec& spec) {
  RunResult res;
  res.pool_lanes = kPoolLanes;
  // Generator (this thread) + dispatcher + one pool worker; the
  // dispatcher is the pool's calling lane.
  res.total_threads = 3;

  const PipelineConfig cfg = make_pipeline_config(spec);
  const std::vector<Round> rounds = make_rounds(spec, opts.seed);
  const std::string trace = encode_trace(rounds, cfg.array);
  const double rate = spec.rate_rps;

  serve::ServeConfig scfg;
  scfg.estimator = cfg.estimator;
  scfg.array = cfg.array;
  scfg.localize = cfg.localize;
  scfg.ap_poses = cfg.ap_poses;
  scfg.max_batch = kMaxBatch;
  scfg.batch_linger_ticks = 0;
  scfg.deadline_ticks = 0;
  scfg.dispatchers = 1;

  Served sv;
  std::vector<double> setup_ms, decode_ms, cache_ms;
  const auto set_up_once = [&] {
    sv.release();  // stops the previous service before timing the next.
    const Clock::time_point t0 = Clock::now();
    sv = set_up(trace, cfg, scfg);
    const double ms = ms_between(t0, Clock::now());
    decode_ms.push_back(sv.decode_ms);
    cache_ms.push_back(sv.cache_ms);
    return ms;
  };
  setup_window(set_up_once, setup_ms);
  if (!decoded_matches(sv.requests, rounds)) {
    res.fail("decoded trace differs from the recorded rounds");
  }
  serve::LocalizationService& svc = *sv.service;

  for (index_t w = 0; w < spec.warmup; ++w) {
    serve::Request req = sv.requests[static_cast<std::size_t>(w) % rounds.size()];
    if (svc.submit(std::move(req), {}) != serve::SubmitStatus::kAccepted) {
      res.fail("warm-up request refused");
    }
    svc.drain();
  }
  const serve::ServiceStats before = svc.stats();

  // Arrival schedule: a Poisson process conditioned on its count, i.e.
  // n uniform times over the window, sorted. Fixing n keeps the offered
  // load, and so the run, identical in size across seeds.
  const double seconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const auto n = std::max<std::size_t>(kMinTimedRequests,
                                       static_cast<std::size_t>(std::llround(rate * seconds)));
  std::vector<double> offsets_s(n);
  {
    std::mt19937_64 rng(opts.seed * 0x9e3779b97f4a7c15ull + 0x5e7e);
    std::uniform_real_distribution<double> u(0.0, static_cast<double>(n) / rate);
    for (double& t : offsets_s) t = u(rng);
    std::sort(offsets_s.begin(), offsets_s.end());
  }

  std::vector<Slot> slots(n);
  std::vector<double> late_ms, submit_us, depth;
  late_ms.reserve(n);
  submit_us.reserve(n);
  depth.reserve(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offsets_s[i]));
    serve::Request req = sv.requests[i % rounds.size()];
    std::this_thread::sleep_until(slot.due);
    const Clock::time_point sent = Clock::now();
    late_ms.push_back(ms_between(slot.due, sent));
    depth.push_back(static_cast<double>(svc.queue_depth()));
    req.submit_tick = static_cast<serve::Tick>(
        std::chrono::duration_cast<std::chrono::microseconds>(sent - start).count());
    const Clock::time_point s0 = Clock::now();
    const serve::SubmitStatus st =
        svc.submit(std::move(req), [&slot](const serve::Response& r) {
          slot.done = Clock::now();
          slot.status = r.status;
          slot.fingerprint = fingerprint(r);
          slot.completed = true;
        });
    submit_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
    slot.accepted = st == serve::SubmitStatus::kAccepted;
  }
  // stop() processes everything accepted and joins the dispatcher, so
  // every callback has run (and its slot is visible) once it returns.
  svc.stop();
  const serve::ServiceStats after = svc.stats();
  const double cache_entries = static_cast<double>(sv.cache->size());
  setup_window(set_up_once, setup_ms);  // replaces the service `svc` named.

  // The offline pipeline on the same rounds: roarray_estimate_batch
  // (serial) + the service's assembly. Every response must match it.
  std::vector<std::uint64_t> expected(rounds.size());
  std::vector<double> loc_err, aoa_err, estimate_ms, localize_ms;
  double estimates = 0, valid = 0, iterations = 0, converged = 0;
  for (std::size_t d = 0; d < rounds.size(); ++d) {
    const Round& round = rounds[d];
    const Clock::time_point t0 = Clock::now();
    const std::vector<core::RoArrayResult> est = core::roarray_estimate_batch(
        round.bursts, cfg.estimator, cfg.array, {sv.cache.get(), nullptr});
    estimate_ms.push_back(ms_between(t0, Clock::now()) /
                          static_cast<double>(round.bursts.size()));
    double loc_ms = -1.0;
    const serve::Response r = assemble_response(round, est, cfg, nullptr, &loc_ms);
    if (loc_ms >= 0.0) localize_ms.push_back(loc_ms);
    expected[d] = fingerprint(r);
    for (std::size_t j = 0; j < est.size(); ++j) {
      estimates += 1;
      iterations += est[j].solver_iterations;
      converged += est[j].solver_converged ? 1 : 0;
      if (!est[j].valid) continue;
      valid += 1;
      aoa_err.push_back(roarray::dsp::angle_diff_deg(est[j].direct.aoa_deg,
                                                      round.true_aoa_deg[j]));
    }
    if (r.status == serve::ResponseStatus::kOk) {
      const auto& pos = r.location.position;
      loc_err.push_back(std::hypot(pos.x - round.client.x, pos.y - round.client.y));
    }
  }

  std::vector<double> latency_ms;
  std::size_t ok = 0, rejected = 0, mismatches = 0;
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& slot = slots[i];
    if (!slot.accepted) {
      ++rejected;
      continue;
    }
    if (!slot.completed) {
      res.fail("accepted request " + std::to_string(i) + " got no callback");
      continue;
    }
    latency_ms.push_back(ms_between(slot.due, slot.done));
    last_done = std::max(last_done, slot.done);
    if (slot.fingerprint != expected[i % rounds.size()] && mismatches++ == 0) {
      res.fail("response " + std::to_string(i) + " differs from the offline pipeline");
    }
    ok += slot.status == serve::ResponseStatus::kOk ? 1 : 0;
  }

  res.attempted = n;
  res.failed = n - ok;
  res.set("throughput_rps", static_cast<double>(ok) / (ms_between(start, last_done) / 1e3));
  res.set("latency_p50_ms", percentile(latency_ms, 0.5));
  res.set("latency_p90_ms", percentile(latency_ms, 0.9));
  res.set("loc_err_p50_m", percentile(loc_err, 0.5));
  res.set("loc_err_p90_m", percentile(loc_err, 0.9));
  res.set("aoa_err_p50_deg", percentile(aoa_err, 0.5));
  res.set("ok_frac", static_cast<double>(ok) / static_cast<double>(n));
  res.set("setup_s", median(setup_ms) / 1e3);

  res.set("runtime.cache_build_ms", median(cache_ms));
  res.set("runtime.cache_entries", cache_entries);
  res.set("io.decode_ms", median(decode_ms));
  res.set("io.decode_mb_s", static_cast<double>(trace.size()) / 1e6 / (median(decode_ms) / 1e3));
  res.set("core.estimate_ms", mean(estimate_ms));
  res.set("core.valid_frac", valid / estimates);
  res.set("sparse.iterations_mean", iterations / estimates);
  res.set("sparse.converged_frac", converged / estimates);
  res.set("loc.localize_ms", mean(localize_ms));

  const double fused = static_cast<double>(after.fusion_used - before.fusion_used);
  res.set("fusion.ransac_frac",
          fused > 0 ? static_cast<double>(after.fusion_ransac - before.fusion_ransac) / fused : 0.0);
  res.set("fusion.ap_rejected_per_req",
          fused > 0 ? static_cast<double>(after.fusion_ap_rejected - before.fusion_ap_rejected) / fused
                    : 0.0);
  double batched = 0;
  for (std::size_t k = 0; k < after.batch_size_hist.size(); ++k) {
    batched += static_cast<double>(k + 1) *
               static_cast<double>(after.batch_size_hist[k] - before.batch_size_hist[k]);
  }
  const double batches = static_cast<double>(after.batches - before.batches);
  res.set("serve.submit_us", mean(submit_us));
  res.set("serve.mean_batch_size", batches > 0 ? batched / batches : 0.0);
  res.set("serve.batches", batches);
  res.set("serve.queue_depth_mean", mean(depth));
  // Little's law: mean wait in the queue = mean queue length / arrival rate.
  res.set("serve.queue_wait_ms", mean(depth) / rate * 1e3);
  res.set("serve.rejected_frac", static_cast<double>(rejected) / static_cast<double>(n));
  res.set("serve.gen_late_ms_p90", percentile(late_ms, 0.9));

  if (opts.trace) {
    run_traced(rounds, cfg, *sv.cache, 0.0, static_cast<std::size_t>(spec.traced_min), res);
  }
  res.set("peak_rss_mb", peak_rss_mb());
  return res;
}

}  // namespace perfbench
