// Load generator for the serve layer: records (or loads) a CSI trace,
// replays it as a stream of localization requests, and measures
// sustained throughput and latency percentiles for
//   * the single LocalizationService with batching off (max_batch = 1),
//   * the single service with dynamic batching (--max-batch), and
//   * a dispatcher sweep (--dispatchers, default 1,2,4): one service
//     with dynamic batching and N dispatcher threads over the shared
//     pool.
// It also replays the trace through the service with dispatchers = 0 in
// deterministic pump/drain mode, once with max_batch = 1 pumped after
// every submission and once at --max-batch, and records whether the
// per-request results are bit-identical ("replay_batching_identical" —
// a correctness flag the CI smoke leg reads, not a perf number). Emits
// BENCH_serve.json.
//
// Logical service ticks are mapped to wall microseconds here (the bench
// owns the clock; the library never reads one). AP poses are not part
// of the trace format — deployment geometry is replay-time input — so
// this bench always places APs at the paper testbed poses.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "eval/cdf.hpp"
#include "io/trace_reader.hpp"
#include "io/trace_writer.hpp"
#include "serve/service.hpp"
#include "sim/recorder.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

namespace {

using namespace roarray;
using linalg::index_t;

struct Options {
  index_t clients = 8;      ///< distinct client rounds in a recorded trace.
  index_t packets = 6;      ///< packets per AP burst when recording.
  index_t aps = 3;          ///< APs heard per round when recording.
  std::uint64_t seed = 7;
  int threads = 0;          ///< estimation pool lanes; 0 = hardware count.
  index_t requests = 64;    ///< total submissions per mode.
  index_t max_batch = 8;    ///< dynamic-mode batch bound.
  index_t queue_capacity = 64;
  std::uint64_t linger_us = 0;
  std::uint64_t deadline_us = 0;
  int iterations = 120;     ///< FISTA iteration cap per solve.
  std::vector<int> dispatcher_sweep = {1, 2, 4};
  index_t replay_requests = 24;  ///< deterministic replay check size.
  std::string trace;        ///< load this trace instead of recording.
  /// Canonical trace path: the committed artifact at the repo root.
  /// When neither --trace nor --record is given and this file exists,
  /// it is replayed rather than overwritten, so a bare run from the
  /// repo root is reproducible and never clobbers the committed trace.
  std::string record = "BENCH_serve_trace.bin";
  bool record_forced = false;  ///< --record given: always re-record.
  std::string json = "BENCH_serve.json";
};

std::vector<int> parse_int_list(const char* s) {
  std::vector<int> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<int>(v));
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--clients") == 0) {
      o.clients = std::atoll(need_value("--clients"));
    } else if (std::strcmp(argv[i], "--packets") == 0) {
      o.packets = std::atoll(need_value("--packets"));
    } else if (std::strcmp(argv[i], "--aps") == 0) {
      o.aps = std::atoll(need_value("--aps"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      o.seed = static_cast<std::uint64_t>(std::atoll(need_value("--seed")));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      o.threads = std::atoi(need_value("--threads"));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      o.requests = std::atoll(need_value("--requests"));
    } else if (std::strcmp(argv[i], "--max-batch") == 0) {
      o.max_batch = std::atoll(need_value("--max-batch"));
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      o.queue_capacity = std::atoll(need_value("--queue-capacity"));
    } else if (std::strcmp(argv[i], "--linger-us") == 0) {
      o.linger_us =
          static_cast<std::uint64_t>(std::atoll(need_value("--linger-us")));
    } else if (std::strcmp(argv[i], "--deadline-us") == 0) {
      o.deadline_us =
          static_cast<std::uint64_t>(std::atoll(need_value("--deadline-us")));
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      o.iterations = std::atoi(need_value("--iterations"));
    } else if (std::strcmp(argv[i], "--dispatchers") == 0) {
      o.dispatcher_sweep = parse_int_list(need_value("--dispatchers"));
    } else if (std::strcmp(argv[i], "--replay-requests") == 0) {
      o.replay_requests = std::atoll(need_value("--replay-requests"));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      o.trace = need_value("--trace");
    } else if (std::strcmp(argv[i], "--record") == 0) {
      o.record = need_value("--record");
      o.record_forced = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      o.json = need_value("--json");
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "options: --clients N --packets P --aps A --seed S --threads T\n"
          "         --requests R --max-batch B --queue-capacity Q\n"
          "         --linger-us L --deadline-us D --iterations I\n"
          "         --dispatchers N1,N2,... --replay-requests R\n"
          "         --trace PATH | --record PATH   --json PATH\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (o.clients < 1 || o.packets < 1 || o.aps < 1 || o.requests < 1 ||
      o.max_batch < 1 || o.queue_capacity < 1 || o.threads < 0 ||
      o.iterations < 1 || o.replay_requests < 1 ||
      o.dispatcher_sweep.empty()) {
    std::fprintf(stderr, "all counts must be >= 1 (threads >= 0)\n");
    std::exit(2);
  }
  for (const int k : o.dispatcher_sweep) {
    if (k < 1) {
      std::fprintf(stderr, "--dispatchers entries must be >= 1\n");
      std::exit(2);
    }
  }
  return o;
}

int effective_threads(const Options& o) {
  return o.threads > 0 ? o.threads : runtime::ThreadPool::default_thread_count();
}

/// Synthesizes a trace: `clients` rounds, each heard by the first
/// `aps` paper-testbed APs, recorded packet-by-packet.
void record_trace(const Options& o) {
  sim::Testbed tb = sim::make_paper_testbed();
  if (o.aps < static_cast<index_t>(tb.aps.size())) {
    tb.aps.resize(static_cast<std::size_t>(o.aps));
  }
  std::mt19937_64 rng(o.seed);
  const auto clients = sim::sample_client_locations(o.clients, tb.room, rng);
  sim::ScenarioConfig scfg = sim::scenario_for_band(sim::SnrBand::kHigh);
  scfg.num_packets = o.packets;
  io::TraceWriter writer(o.record, scfg.array);
  std::uint64_t tick = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const auto ms = sim::generate_measurements(tb, clients[c], scfg, rng);
    tick = sim::record_round(writer, ms, static_cast<std::uint64_t>(c), tick);
  }
  writer.flush();
  std::printf("recorded %llu records to %s\n",
              static_cast<unsigned long long>(writer.records_written()),
              o.record.c_str());
}

serve::ServeConfig serve_config(const std::vector<channel::ApPose>& poses,
                                const dsp::ArrayConfig& array,
                                const channel::Room& room, index_t max_batch,
                                const Options& o, int dispatchers) {
  serve::ServeConfig cfg;
  cfg.estimator.solver.max_iterations = o.iterations;
  cfg.array = array;
  cfg.localize.room = room;
  cfg.ap_poses = poses;
  cfg.max_batch = max_batch;
  cfg.queue_capacity = o.queue_capacity;
  cfg.batch_linger_ticks = o.linger_us;
  cfg.deadline_ticks = o.deadline_us;
  cfg.dispatchers = dispatchers;
  return cfg;
}

serve::Request make_request(const io::ClientRound& round,
                            std::uint64_t client_id, serve::Tick tick) {
  serve::Request req;
  req.client_id = client_id;
  req.submit_tick = tick;
  req.aps.reserve(round.ap_ids.size());
  for (std::size_t a = 0; a < round.ap_ids.size(); ++a) {
    req.aps.push_back({round.ap_ids[a], round.bursts[a]});
  }
  return req;
}

struct ModeResult {
  index_t max_batch = 1;
  int dispatchers = 1;
  double wall_ms = 0.0;
  double sustained_rps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, mean_ms = 0.0;
  serve::ServiceStats stats;
};

/// Drives `svc` with o.requests submissions, retrying on kQueueFull
/// backpressure, a 100 us wall-tick pusher running alongside. Returns
/// the wall time; the caller snapshots stats afterwards.
double run_load(serve::LocalizationService& svc,
                const std::vector<io::ClientRound>& rounds, const Options& o) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  auto tick_now = [&t0] {
    return static_cast<serve::Tick>(
        std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                              t0)
            .count());
  };

  // Push wall time into the service so linger windows, deadlines, and
  // completion timestamps track reality while the submitter is blocked.
  std::atomic<bool> ticker_stop{false};
  std::thread ticker([&] {
    while (!ticker_stop.load(std::memory_order_relaxed)) {
      svc.advance_time(tick_now());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (index_t r = 0; r < o.requests; ++r) {
    const io::ClientRound& round =
        rounds[static_cast<std::size_t>(r) % rounds.size()];
    for (;;) {
      const serve::SubmitStatus st =
          svc.submit(make_request(round, round.client_id, tick_now()), {});
      if (st == serve::SubmitStatus::kAccepted) break;
      if (st != serve::SubmitStatus::kQueueFull) {
        std::fprintf(stderr, "submit rejected: %s\n",
                     serve::submit_status_name(st));
        std::exit(1);
      }
      std::this_thread::yield();
    }
  }
  svc.drain();
  const double wall_ms = static_cast<double>(tick_now()) / 1000.0;
  ticker_stop.store(true, std::memory_order_relaxed);
  ticker.join();
  svc.stop();
  return wall_ms;
}

void fill_metrics(ModeResult& m, const serve::ServiceStats& stats,
                  double wall_ms) {
  m.wall_ms = wall_ms;
  m.stats = stats;
  const auto completed = stats.completed_ok + stats.completed_no_observations;
  m.sustained_rps =
      static_cast<double>(completed) / std::max(wall_ms / 1000.0, 1e-9);
  if (!stats.latency_ticks.empty()) {
    const eval::Cdf lat(stats.latency_ticks);
    m.p50_ms = lat.percentile(0.5) / 1000.0;
    m.p95_ms = lat.percentile(0.95) / 1000.0;
    m.p99_ms = lat.percentile(0.99) / 1000.0;
    m.mean_ms = lat.mean() / 1000.0;
  }
}

ModeResult run_mode(const std::vector<io::ClientRound>& rounds,
                    const std::vector<channel::ApPose>& poses,
                    const dsp::ArrayConfig& array, const channel::Room& room,
                    index_t max_batch, int dispatchers, const Options& o) {
  serve::ServeConfig cfg =
      serve_config(poses, array, room, max_batch, o, dispatchers);

  // Fresh runtime per mode so neither benefits from the other's warmup;
  // the operator is pre-built so both start warm.
  runtime::OperatorCache cache;
  runtime::ThreadPool pool(effective_threads(o));
  (void)cache.get(cfg.estimator.aoa_grid, cfg.estimator.toa_grid, array);
  serve::LocalizationService svc(cfg, {&cache, &pool});

  ModeResult m;
  m.max_batch = max_batch;
  m.dispatchers = dispatchers;
  const double wall_ms = run_load(svc, rounds, o);
  fill_metrics(m, svc.stats(), wall_ms);
  return m;
}

// --- deterministic replay fingerprint ---------------------------------------

/// Bit pattern of every numeric field of a response, in a fixed order,
/// so two replays can be compared for exact equality.
std::vector<std::uint64_t> response_bits(const serve::Response& r) {
  std::vector<std::uint64_t> bits;
  bits.push_back(static_cast<std::uint64_t>(r.status));
  bits.push_back(r.client_id);
  bits.push_back(r.location.valid ? 1u : 0u);
  bits.push_back(std::bit_cast<std::uint64_t>(r.location.position.x));
  bits.push_back(std::bit_cast<std::uint64_t>(r.location.position.y));
  bits.push_back(std::bit_cast<std::uint64_t>(r.location.cost));
  for (const serve::ApEstimate& ae : r.ap_estimates) {
    bits.push_back(ae.ap_id);
    bits.push_back(ae.valid ? 1u : 0u);
    bits.push_back(std::bit_cast<std::uint64_t>(ae.aoa_deg));
    bits.push_back(std::bit_cast<std::uint64_t>(ae.toa_s));
    bits.push_back(std::bit_cast<std::uint64_t>(ae.power));
    bits.push_back(std::bit_cast<std::uint64_t>(ae.weight));
  }
  return bits;
}

/// Replays `n` requests through the service with dispatchers = 0 in
/// deterministic pump/drain mode (logical ticks = submission index),
/// pumping after every `max_batch` submissions, and returns the
/// per-submission result fingerprints.
std::vector<std::vector<std::uint64_t>> replay_fingerprint(
    const std::vector<io::ClientRound>& rounds,
    const std::vector<channel::ApPose>& poses, const dsp::ArrayConfig& array,
    const channel::Room& room, index_t max_batch, index_t n,
    const Options& o) {
  serve::LocalizationService svc(serve_config(poses, array, room, max_batch, o,
                                              /*dispatchers=*/0));
  std::vector<std::vector<std::uint64_t>> slots(static_cast<std::size_t>(n));
  for (index_t r = 0; r < n; ++r) {
    const io::ClientRound& round =
        rounds[static_cast<std::size_t>(r) % rounds.size()];
    auto* slot = &slots[static_cast<std::size_t>(r)];
    const serve::SubmitStatus st = svc.submit(
        make_request(round, static_cast<std::uint64_t>(r),
                     static_cast<serve::Tick>(r)),
        [slot](const serve::Response& resp) { *slot = response_bits(resp); });
    if (st != serve::SubmitStatus::kAccepted) {
      std::fprintf(stderr, "replay submit rejected: %s\n",
                   serve::submit_status_name(st));
      std::exit(1);
    }
    // Interleave processing with submission so the queue never exceeds
    // capacity and batch formation exercises partial batches.
    if ((r + 1) % max_batch == 0) (void)svc.pump();
  }
  svc.drain();
  return slots;
}

void emit_mode(eval::JsonWriter& w, const ModeResult& m) {
  w.begin_object();
  w.key("max_batch").value(static_cast<std::int64_t>(m.max_batch));
  w.key("dispatchers").value(m.dispatchers);
  w.key("wall_ms").value(m.wall_ms);
  w.key("sustained_rps").value(m.sustained_rps);
  w.key("p50_ms").value(m.p50_ms);
  w.key("p95_ms").value(m.p95_ms);
  w.key("p99_ms").value(m.p99_ms);
  w.key("mean_ms").value(m.mean_ms);
  w.key("accepted").value(static_cast<std::int64_t>(m.stats.accepted));
  w.key("rejected_queue_full")
      .value(static_cast<std::int64_t>(m.stats.rejected_queue_full));
  w.key("deadline_dropped")
      .value(static_cast<std::int64_t>(m.stats.deadline_dropped));
  w.key("completed_ok").value(static_cast<std::int64_t>(m.stats.completed_ok));
  w.key("completed_no_observations")
      .value(static_cast<std::int64_t>(m.stats.completed_no_observations));
  w.key("batches").value(static_cast<std::int64_t>(m.stats.batches));
  double size_sum = 0.0;
  w.key("batch_size_hist").begin_array();
  for (std::size_t k = 0; k < m.stats.batch_size_hist.size(); ++k) {
    w.value(static_cast<std::int64_t>(m.stats.batch_size_hist[k]));
    size_sum += static_cast<double>((k + 1) * m.stats.batch_size_hist[k]);
  }
  w.end_array();
  w.key("mean_batch_size")
      .value(m.stats.batches > 0
                 ? size_sum / static_cast<double>(m.stats.batches)
                 : 0.0);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);

  std::string trace_path = o.trace;
  if (trace_path.empty()) {
    if (!o.record_forced && std::ifstream(o.record).good()) {
      // Default path and the file (typically the committed repo-root
      // artifact) already exists: replay it instead of re-recording.
      std::printf("replaying existing trace %s (pass --record to re-record)\n",
                  o.record.c_str());
    } else {
      record_trace(o);
    }
    trace_path = o.record;
  }

  io::TraceReader reader(trace_path);
  const auto rounds = io::read_client_rounds(reader);
  if (rounds.empty()) {
    std::fprintf(stderr, "trace %s holds no records\n", trace_path.c_str());
    return 1;
  }
  const dsp::ArrayConfig array = reader.array_config();
  std::uint32_t num_aps = 0;
  for (const auto& r : rounds) {
    for (std::uint32_t id : r.ap_ids) num_aps = std::max(num_aps, id + 1);
  }
  const sim::Testbed tb = sim::make_paper_testbed();
  if (num_aps > tb.aps.size()) {
    std::fprintf(stderr, "trace names AP %u but the testbed has only %zu\n",
                 num_aps - 1, tb.aps.size());
    return 1;
  }
  const std::vector<channel::ApPose> poses(tb.aps.begin(),
                                           tb.aps.begin() + num_aps);

  const int pool_threads = effective_threads(o);
  std::printf("replaying %zu rounds (%u APs) x %lld requests on %d threads\n",
              rounds.size(), num_aps, static_cast<long long>(o.requests),
              pool_threads);
  const ModeResult batch1 = run_mode(rounds, poses, array, tb.room, 1, 1, o);
  std::printf("batch1:  %7.1f req/s  p50 %.1f ms  p95 %.1f ms\n",
              batch1.sustained_rps, batch1.p50_ms, batch1.p95_ms);
  const ModeResult dynamic =
      run_mode(rounds, poses, array, tb.room, o.max_batch, 1, o);
  std::printf("dynamic: %7.1f req/s  p50 %.1f ms  p95 %.1f ms  (batch<=%lld)\n",
              dynamic.sustained_rps, dynamic.p50_ms, dynamic.p95_ms,
              static_cast<long long>(o.max_batch));
  const double speedup =
      dynamic.sustained_rps / std::max(batch1.sustained_rps, 1e-9);
  std::printf("dynamic batching speedup: %.2fx\n", speedup);

  // Dispatcher sweep: one service, dynamic batching, N dispatchers.
  std::vector<ModeResult> scaling;
  scaling.reserve(o.dispatcher_sweep.size());
  for (const int k : o.dispatcher_sweep) {
    scaling.push_back(
        run_mode(rounds, poses, array, tb.room, o.max_batch, k, o));
    const ModeResult& m = scaling.back();
    std::printf("dispatchers=%d: %7.1f req/s  p50 %.1f ms  p95 %.1f ms\n", k,
                m.sustained_rps, m.p50_ms, m.p95_ms);
  }

  // Deterministic replay: pump/drain mode at --max-batch must be
  // bit-identical to one request per batch (batch grouping may change
  // which requests share an estimate call, never their results).
  const index_t replay_n = std::min(o.replay_requests, o.requests);
  const bool replay_identical =
      replay_fingerprint(rounds, poses, array, tb.room, 1, replay_n, o) ==
      replay_fingerprint(rounds, poses, array, tb.room, o.max_batch, replay_n,
                         o);
  std::printf("deterministic replay at max_batch 1 and %lld: %s\n",
              static_cast<long long>(o.max_batch),
              replay_identical ? "bit-identical" : "MISMATCH");

  const bool written = bench::write_json_report(o.json, [&](eval::JsonWriter& w) {
    w.begin_object();
    bench::emit_machine_provenance(w, pool_threads);
    w.key("requests").value(static_cast<std::int64_t>(o.requests));
    w.key("iterations").value(o.iterations);
    w.key("trace").begin_object();
    w.key("path").value(trace_path);
    w.key("records").value(static_cast<std::int64_t>(reader.records_read()));
    w.key("rounds").value(static_cast<std::int64_t>(rounds.size()));
    w.key("aps").value(static_cast<std::int64_t>(num_aps));
    w.key("packets_per_burst")
        .value(static_cast<std::int64_t>(rounds[0].bursts[0].size()));
    w.end_object();
    w.key("batch1");
    emit_mode(w, batch1);
    w.key("dynamic");
    emit_mode(w, dynamic);
    w.key("dynamic_speedup_vs_batch1").value(speedup);
    w.key("dispatcher_scaling").begin_array();
    for (const ModeResult& m : scaling) emit_mode(w, m);
    w.end_array();
    w.key("replay").begin_object();
    w.key("requests").value(static_cast<std::int64_t>(replay_n));
    w.key("max_batch_checked").begin_array();
    w.value(1);
    w.value(static_cast<std::int64_t>(o.max_batch));
    w.end_array();
    w.key("replay_batching_identical").value(replay_identical);
    w.end_object();
    w.end_object();
  });
  if (!written) return 1;
  std::printf("wrote %s\n", o.json.c_str());
  return 0;
}
