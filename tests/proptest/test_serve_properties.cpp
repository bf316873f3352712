// Serve-layer properties.
//
// Differential: PumpDrainReplayIsBatchingIndependent — any generated
// workload pushed through LocalizationService{dispatchers = 0} in
// deterministic pump/drain mode at max_batch in {2, 4, 8} and the
// generated pump cadence produces per-submission responses
// bit-identical to the reference run: max_batch = 1, pumped after every
// submission, so each request is estimated alone. Batch grouping varies
// with max_batch and the cadence; results must not (DESIGN.md §10
// determinism contract).
//
// Concurrent: randomized submitter threads against one service with
// 1-3 dispatchers over a shared 2-lane pool — the leg the TSan build
// instruments. The queue is drawn small so admission sheds. Accounting
// invariants (exactly-once callbacks, accepted + shed == submitted,
// completions == accepted) and each response's bits against the
// dispatchers = 0 replay of the same request are checked after stop();
// threads only touch atomics and their own slots, never gtest asserts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "proptest.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"

namespace pt = roarray::proptest;

namespace roarray {
namespace {

/// Small service configuration (mirrors tests/serve): coarse grids, few
/// iterations, two APs — one solve costs a few milliseconds.
serve::ServeConfig tiny_serve_config(int dispatchers) {
  serve::ServeConfig cfg;
  cfg.estimator.aoa_grid = dsp::Grid(0.0, 180.0, 19);
  cfg.estimator.toa_grid = dsp::Grid(0.0, 784e-9, 8);
  cfg.estimator.solver.max_iterations = 30;
  cfg.localize.grid_step_m = 0.5;
  cfg.ap_poses = {{{0.0, 6.0}, 90.0}, {{18.0, 6.0}, 90.0}};
  cfg.dispatchers = dispatchers;
  return cfg;
}

/// One clean-channel request; all case randomness is folded into
/// `seed` so the request can be re-synthesized identically in every
/// service run of the same case.
serve::Request seeded_request(std::uint64_t client_id, serve::Tick tick,
                              std::uint64_t seed) {
  channel::Path direct;
  direct.aoa_deg = 100.0;
  direct.toa_s = 60e-9;
  direct.gain = {1.0, 0.0};
  std::mt19937_64 rng(seed);
  serve::Request req;
  req.client_id = client_id;
  req.submit_tick = tick;
  for (std::uint32_t ap = 0; ap < 2; ++ap) {
    serve::ApSubmission sub;
    sub.ap_id = ap;
    linalg::CMat csi = channel::synthesize_csi({direct}, dsp::ArrayConfig{});
    (void)channel::add_noise(csi, 20.0, rng);
    sub.packets.push_back(std::move(csi));
    req.aps.push_back(std::move(sub));
  }
  return req;
}

/// Exact bit pattern of every numeric response field, in a fixed
/// order, so replays compare with operator==.
std::vector<std::uint64_t> response_bits(const serve::Response& r) {
  std::vector<std::uint64_t> bits;
  auto push_double = [&bits](double d) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    bits.push_back(u);
  };
  bits.push_back(static_cast<std::uint64_t>(r.status));
  bits.push_back(r.client_id);
  bits.push_back(r.location.valid ? 1u : 0u);
  push_double(r.location.position.x);
  push_double(r.location.position.y);
  push_double(r.location.cost);
  for (const serve::ApEstimate& ae : r.ap_estimates) {
    bits.push_back(ae.ap_id);
    bits.push_back(ae.valid ? 1u : 0u);
    push_double(ae.aoa_deg);
    push_double(ae.toa_s);
    push_double(ae.power);
    push_double(ae.weight);
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Differential: pump/drain replay at several batch bounds vs one request
// per batch.

struct Submission {
  std::uint64_t client_id = 0;
  serve::Tick tick = 0;
  std::uint64_t seed = 0;
};

struct ServeWorkload {
  std::vector<Submission> subs;
  int pump_every = 2;  ///< pump() after every this-many submissions.
};

pt::Gen<ServeWorkload> workload_gen() {
  return [](pt::Rng& rng) {
    ServeWorkload w;
    std::uniform_int_distribution<int> n_dist(1, 9);
    std::uniform_int_distribution<std::uint64_t> client_dist(0, 7);
    std::uniform_int_distribution<serve::Tick> gap_dist(0, 3);
    std::uniform_int_distribution<int> pump_dist(1, 4);
    const int n = n_dist(rng);
    serve::Tick tick = 0;
    for (int i = 0; i < n; ++i) {
      tick += gap_dist(rng);  // non-decreasing logical time
      w.subs.push_back({client_dist(rng), tick, rng()});
    }
    w.pump_every = pump_dist(rng);
    return w;
  };
}

/// Shrink by dropping one submission at a time, then by pumping after
/// every submission (the simplest interleaving).
pt::Shrinker<ServeWorkload> workload_shrinker() {
  return [](const ServeWorkload& w) {
    std::vector<ServeWorkload> out;
    for (std::size_t i = 0; i < w.subs.size(); ++i) {
      ServeWorkload c = w;
      c.subs.erase(c.subs.begin() + static_cast<std::ptrdiff_t>(i));
      if (!c.subs.empty()) out.push_back(std::move(c));
    }
    if (w.pump_every != 1) {
      ServeWorkload c = w;
      c.pump_every = 1;
      out.push_back(std::move(c));
    }
    return out;
  };
}

pt::Show<ServeWorkload> workload_show() {
  return [](const ServeWorkload& w) {
    std::ostringstream os;
    os << "pump_every=" << w.pump_every << " subs=[";
    for (const Submission& s : w.subs) {
      os << "(c" << s.client_id << ",t" << s.tick << ",s" << s.seed << ")";
    }
    os << "]";
    return os.str();
  };
}

/// Runs the workload through a dispatchers = 0 service with the given
/// batch bound, pumping after every `pump_every` submissions, and
/// returns the per-submission fingerprints. Every submission must be
/// accepted (the queue capacity is far above the generated sizes).
std::optional<std::string> run_workload(
    const ServeWorkload& w, linalg::index_t max_batch, int pump_every,
    std::vector<std::vector<std::uint64_t>>& slots,
    std::uint64_t& multi_request_batches) {
  serve::ServeConfig cfg = tiny_serve_config(0);
  cfg.max_batch = max_batch;
  serve::LocalizationService svc(cfg);
  slots.assign(w.subs.size(), {});
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    const Submission& s = w.subs[i];
    auto* slot = &slots[i];
    const serve::SubmitStatus st = svc.submit(
        seeded_request(s.client_id, s.tick, s.seed),
        [slot](const serve::Response& r) { *slot = response_bits(r); });
    if (st != serve::SubmitStatus::kAccepted) {
      return std::string("submission ") + std::to_string(i) + " rejected: " +
             serve::submit_status_name(st);
    }
    if ((i + 1) % static_cast<std::size_t>(pump_every) == 0) {
      (void)svc.pump();
    }
  }
  svc.drain();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].empty()) {
      return std::string("submission ") + std::to_string(i) +
             " never completed";
    }
  }
  const serve::ServiceStats stats = svc.stats();
  for (std::size_t k = 1; k < stats.batch_size_hist.size(); ++k) {
    multi_request_batches += stats.batch_size_hist[k];
  }
  return std::nullopt;
}

TEST(ServeProperties, PumpDrainReplayIsBatchingIndependent) {
  pt::CheckConfig cfg;
  cfg.cases = 6;  // each case runs 4 full service replays
  std::uint64_t multi_request_batches = 0;
  pt::check<ServeWorkload>(
      "pump/drain replay at max_batch 2/4/8 is bit-identical to one "
      "request per batch",
      workload_gen(),
      [&multi_request_batches](
          const ServeWorkload& w) -> std::optional<std::string> {
        std::vector<std::vector<std::uint64_t>> reference;
        std::uint64_t unused = 0;
        if (auto err = run_workload(w, 1, 1, reference, unused)) {
          return "max_batch=1 reference: " + *err;
        }
        for (const linalg::index_t b : {2, 4, 8}) {
          std::vector<std::vector<std::uint64_t>> got;
          if (auto err = run_workload(w, b, w.pump_every, got,
                                      multi_request_batches)) {
            return "max_batch=" + std::to_string(b) + ": " + *err;
          }
          for (std::size_t i = 0; i < reference.size(); ++i) {
            if (got[i] != reference[i]) {
              return "max_batch=" + std::to_string(b) + ": submission " +
                     std::to_string(i) +
                     " differs bitwise from the one-per-batch result";
            }
          }
        }
        return std::nullopt;
      },
      workload_shrinker(), workload_show(), cfg);
  // The sample must actually group requests, or the property compares
  // the reference with itself.
  if (!pt::replaying()) {
    EXPECT_GT(multi_request_batches, 0u);
  }
}

// ---------------------------------------------------------------------------
// Concurrent submitters against a dispatcher-mode service (TSan target).

struct ConcurrentPlan {
  int submitters = 2;  ///< 2..3 threads.
  int per_thread = 2;  ///< 2..4 submissions each.
  int dispatchers = 1;  ///< 1..3 dispatcher threads.
  linalg::index_t queue_capacity = 1;  ///< 1..2, so bursts shed.
  std::uint64_t seed = 1;
};

pt::Gen<ConcurrentPlan> concurrent_gen() {
  return [](pt::Rng& rng) {
    ConcurrentPlan p;
    std::uniform_int_distribution<int> threads_dist(2, 3);
    std::uniform_int_distribution<int> per_dist(2, 4);
    std::uniform_int_distribution<int> dispatchers_dist(1, 3);
    std::uniform_int_distribution<int> capacity_dist(1, 2);
    p.submitters = threads_dist(rng);
    p.per_thread = per_dist(rng);
    p.dispatchers = dispatchers_dist(rng);
    p.queue_capacity = capacity_dist(rng);
    p.seed = rng();
    return p;
  };
}

pt::Show<ConcurrentPlan> concurrent_show() {
  return [](const ConcurrentPlan& p) {
    std::ostringstream os;
    os << "submitters=" << p.submitters << " per_thread=" << p.per_thread
       << " dispatchers=" << p.dispatchers
       << " queue_capacity=" << p.queue_capacity << " seed=" << p.seed;
    return os.str();
  };
}

TEST(ServeProperties, ConcurrentSubmitAccountsForEveryRequest) {
  pt::CheckConfig cfg;
  cfg.cases = 4;  // each case spawns submitter and dispatcher threads
  std::uint64_t total_shed = 0;
  pt::check<ConcurrentPlan>(
      "concurrent submit: exactly-once callbacks, conserved accounting, "
      "and responses bit-identical to the dispatchers = 0 replay",
      concurrent_gen(),
      [&total_shed](const ConcurrentPlan& p) -> std::optional<std::string> {
        const auto total =
            static_cast<std::size_t>(p.submitters * p.per_thread);
        auto request = [&p](std::size_t id) {
          return seeded_request(
              id,
              static_cast<serve::Tick>(id % static_cast<std::size_t>(
                                                p.per_thread)),
              p.seed + id);
        };

        // Reference: every request through the deterministic
        // single-threaded service.
        std::vector<std::vector<std::uint64_t>> reference(total);
        {
          serve::LocalizationService ref(tiny_serve_config(0));
          for (std::size_t id = 0; id < total; ++id) {
            auto* slot = &reference[id];
            if (ref.submit(request(id), [slot](const serve::Response& r) {
                  *slot = response_bits(r);
                }) != serve::SubmitStatus::kAccepted) {
              return "reference submit " + std::to_string(id) + " rejected";
            }
          }
          ref.drain();
        }

        // Pre-synthesize every request so submitter threads only move
        // data and touch atomics and their own slots.
        std::vector<serve::Request> requests;
        for (std::size_t id = 0; id < total; ++id) {
          requests.push_back(request(id));
        }
        std::vector<std::atomic<int>> callbacks(total);
        std::vector<std::vector<std::uint64_t>> got(total);
        std::vector<serve::SubmitStatus> status(total);

        serve::ServeConfig scfg = tiny_serve_config(p.dispatchers);
        scfg.queue_capacity = p.queue_capacity;
        runtime::OperatorCache cache;
        runtime::ThreadPool pool(2);
        serve::LocalizationService svc(scfg, {&cache, &pool});
        {
          std::vector<std::thread> threads;
          for (int t = 0; t < p.submitters; ++t) {
            threads.emplace_back([&, t] {
              for (int i = 0; i < p.per_thread; ++i) {
                const auto id =
                    static_cast<std::size_t>(t * p.per_thread + i);
                status[id] = svc.submit(
                    std::move(requests[id]),
                    [&callbacks, &got, id](const serve::Response& r) {
                      if (callbacks[id].fetch_add(1) == 0) {
                        got[id] = response_bits(r);
                      }
                    });
              }
            });
          }
          for (auto& t : threads) t.join();
        }
        svc.stop();

        std::uint64_t accepted = 0;
        std::uint64_t shed = 0;
        for (std::size_t id = 0; id < total; ++id) {
          const int calls = callbacks[id].load();
          if (status[id] == serve::SubmitStatus::kAccepted) {
            ++accepted;
            if (calls != 1) {
              return "request " + std::to_string(id) + " accepted, " +
                     std::to_string(calls) + " callbacks";
            }
            if (got[id] != reference[id]) {
              return "request " + std::to_string(id) +
                     " differs bitwise from the dispatchers = 0 replay";
            }
          } else if (status[id] == serve::SubmitStatus::kQueueFull) {
            ++shed;
            if (calls != 0) {
              return "request " + std::to_string(id) +
                     " shed but called back";
            }
          } else {
            return std::string("submit returned ") +
                   serve::submit_status_name(status[id]);
          }
        }
        total_shed += shed;
        if (accepted + shed != total) return "accepted + shed != submitted";
        const serve::ServiceStats stats = svc.stats();
        if (stats.accepted != accepted) {
          return "stats().accepted (" + std::to_string(stats.accepted) +
                 ") disagrees with the submitters (" +
                 std::to_string(accepted) + ")";
        }
        if (stats.rejected_queue_full != shed) {
          return "stats().rejected_queue_full disagrees with the submitters";
        }
        if (stats.completed_ok + stats.completed_no_observations !=
            stats.accepted) {
          return "completions != stats().accepted";
        }
        return std::nullopt;
      },
      /*shrink=*/{}, concurrent_show(), cfg);
  // The drawn queue capacities must make admission shed somewhere in
  // the sample, or the kQueueFull accounting goes unchecked.
  if (!pt::replaying()) {
    EXPECT_GT(total_shed, 0u);
  }
}

}  // namespace
}  // namespace roarray
