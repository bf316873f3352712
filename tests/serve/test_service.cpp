// LocalizationService behavior: config validation, admission control,
// logical-time batching/deadlines in deterministic manual-pump mode,
// bit-exact replay against the offline pipeline, and concurrent
// submit/shutdown (the TSan/ASan legs instrument exactly these).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "channel/csi.hpp"
#include "io/trace_reader.hpp"
#include "io/trace_writer.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"
#include "sim/recorder.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

namespace roarray {
namespace {

using testing::make_rng;
using testing::random_cmat;

/// Small, fast configuration: coarse grids, few iterations, two APs.
serve::ServeConfig small_config(int dispatchers) {
  serve::ServeConfig cfg;
  cfg.estimator.aoa_grid = dsp::Grid(0.0, 180.0, 19);
  cfg.estimator.toa_grid = dsp::Grid(0.0, 784e-9, 8);
  cfg.estimator.solver.max_iterations = 40;
  cfg.localize.grid_step_m = 0.5;
  cfg.ap_poses = {{{0.0, 6.0}, 90.0}, {{18.0, 6.0}, 90.0}};
  cfg.dispatchers = dispatchers;
  return cfg;
}

/// A request whose bursts hold a clean synthesized one-path channel, so
/// the estimator reliably produces a direct-path AoA.
serve::Request clean_request(std::uint64_t client_id, serve::Tick tick,
                             std::uint64_t seed = 3) {
  channel::Path direct;
  direct.aoa_deg = 100.0;
  direct.toa_s = 60e-9;
  direct.gain = {1.0, 0.0};
  auto rng = make_rng(seed);
  serve::Request req;
  req.client_id = client_id;
  req.submit_tick = tick;
  for (std::uint32_t ap = 0; ap < 2; ++ap) {
    serve::ApSubmission sub;
    sub.ap_id = ap;
    for (int p = 0; p < 2; ++p) {
      linalg::CMat csi = channel::synthesize_csi({direct}, dsp::ArrayConfig{});
      channel::add_noise(csi, 20.0, rng);
      sub.packets.push_back(std::move(csi));
    }
    req.aps.push_back(std::move(sub));
  }
  return req;
}

TEST(ServeConfigValidation, RejectsNonsenseValues) {
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.ap_poses.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.max_batch = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.queue_capacity = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.dispatchers = -2;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.localize.grid_step_m = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.array.num_antennas = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    serve::ServeConfig cfg = small_config(0);
    cfg.latency_sample_cap = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(small_config(0).validate());
}

// Estimator settings that core::roarray_estimate rejects on every call
// must be refused up front: accepted, they would throw out of every
// batch, into std::terminate on a dispatcher thread.
TEST(ServeConfigValidation, RejectsMaxPathsBelowOne) {
  serve::ServeConfig cfg = small_config(0);
  cfg.estimator.max_paths = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ServeConfigValidation, RejectsSolverMaxIterationsBelowOne) {
  serve::ServeConfig cfg = small_config(0);
  cfg.estimator.solver.max_iterations = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ServeConfigValidation, RejectsAnInvalidEnabledCoarseFineConfig) {
  serve::ServeConfig cfg = small_config(0);
  cfg.estimator.coarse_fine.enabled = true;
  cfg.estimator.coarse_fine.refine_tolerance = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // A disabled coarse-to-fine config is never read by the estimator.
  cfg.estimator.coarse_fine.enabled = false;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ServeConfigValidation, ServiceConstructorRejectsAlwaysThrowingEstimator) {
  serve::ServeConfig cfg = small_config(1);
  cfg.estimator.max_paths = 0;
  EXPECT_THROW(serve::LocalizationService svc(cfg), std::invalid_argument);
}

TEST(ServeAdmission, RejectsMalformedRequests) {
  serve::LocalizationService svc(small_config(0));
  // No APs at all.
  EXPECT_EQ(svc.submit({}, {}), serve::SubmitStatus::kInvalidRequest);
  // Unknown AP id.
  serve::Request bad_ap = clean_request(1, 0);
  bad_ap.aps[0].ap_id = 9;
  EXPECT_EQ(svc.submit(std::move(bad_ap), {}),
            serve::SubmitStatus::kInvalidRequest);
  // Empty burst.
  serve::Request empty_burst = clean_request(1, 0);
  empty_burst.aps[0].packets.clear();
  EXPECT_EQ(svc.submit(std::move(empty_burst), {}),
            serve::SubmitStatus::kInvalidRequest);
  // CSI shape mismatch.
  serve::Request bad_shape = clean_request(1, 0);
  bad_shape.aps[0].packets[0] = linalg::CMat(2, 30);
  EXPECT_EQ(svc.submit(std::move(bad_shape), {}),
            serve::SubmitStatus::kInvalidRequest);
  EXPECT_EQ(svc.stats().rejected_invalid, 4u);
  EXPECT_EQ(svc.stats().accepted, 0u);
}

TEST(ServeAdmission, RejectsNonFiniteCsiButServesValidSibling) {
  serve::LocalizationService svc(small_config(0));
  serve::Request nan_packet = clean_request(1, 0);
  nan_packet.aps[1].packets[1](2, 17) = {std::nan(""), 0.0};
  EXPECT_EQ(svc.submit(std::move(nan_packet), [](const serve::Response&) {
              ADD_FAILURE() << "rejected request got a callback";
            }),
            serve::SubmitStatus::kInvalidRequest);
  serve::Request inf_packet = clean_request(2, 0);
  inf_packet.aps[0].packets[0](0, 0) = {0.0, -HUGE_VAL};
  EXPECT_EQ(svc.submit(std::move(inf_packet), {}),
            serve::SubmitStatus::kInvalidRequest);

  serve::Response resp;
  bool called = false;
  ASSERT_EQ(svc.submit(clean_request(3, 0),
                       [&](const serve::Response& r) {
                         resp = r;
                         called = true;
                       }),
            serve::SubmitStatus::kAccepted);
  svc.drain();
  ASSERT_TRUE(called);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(resp.client_id, 3u);
  EXPECT_TRUE(resp.location.valid);
  EXPECT_EQ(svc.stats().rejected_invalid, 2u);
  EXPECT_EQ(svc.stats().accepted, 1u);
}

TEST(ServeAdmission, QueueFullIsTypedBackpressure) {
  serve::ServeConfig cfg = small_config(0);
  cfg.queue_capacity = 2;
  serve::LocalizationService svc(cfg);
  EXPECT_EQ(svc.submit(clean_request(0, 0), {}),
            serve::SubmitStatus::kAccepted);
  EXPECT_EQ(svc.submit(clean_request(1, 0), {}),
            serve::SubmitStatus::kAccepted);
  EXPECT_EQ(svc.submit(clean_request(2, 0), {}),
            serve::SubmitStatus::kQueueFull);
  svc.drain();
  // Capacity freed: accepted again.
  EXPECT_EQ(svc.submit(clean_request(3, 0), {}),
            serve::SubmitStatus::kAccepted);
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
}

TEST(ServeAdmission, SubmitAfterStopIsRejected) {
  serve::LocalizationService svc(small_config(0));
  svc.stop();
  EXPECT_EQ(svc.submit(clean_request(0, 0), {}),
            serve::SubmitStatus::kStopped);
  EXPECT_EQ(svc.stats().rejected_stopped, 1u);
}

TEST(ServeLifecycle, DrainThenStopIsIdempotent) {
  serve::LocalizationService svc(small_config(0));
  int callbacks = 0;
  for (std::uint64_t c = 0; c < 6; ++c) {
    ASSERT_EQ(svc.submit(clean_request(c, c),
                         [&](const serve::Response&) { ++callbacks; }),
              serve::SubmitStatus::kAccepted);
  }
  svc.drain();
  EXPECT_EQ(callbacks, 6);
  svc.stop();
  svc.stop();   // idempotent
  svc.drain();  // post-stop drain must return immediately, not wedge
  EXPECT_EQ(svc.submit(clean_request(99, 0), {}),
            serve::SubmitStatus::kStopped);
  EXPECT_EQ(svc.stats().rejected_stopped, 1u);
  EXPECT_EQ(callbacks, 6);  // nothing double-completed
}

TEST(ServeBatching, LingerHoldsUntilTickOrFullBatch) {
  serve::ServeConfig cfg = small_config(0);
  cfg.max_batch = 4;
  cfg.batch_linger_ticks = 100;
  serve::LocalizationService svc(cfg);
  ASSERT_EQ(svc.submit(clean_request(0, 10), {}),
            serve::SubmitStatus::kAccepted);
  ASSERT_EQ(svc.submit(clean_request(1, 20), {}),
            serve::SubmitStatus::kAccepted);
  EXPECT_FALSE(svc.pump());  // linger window still open at tick 20
  svc.advance_time(109);
  EXPECT_FALSE(svc.pump());  // window not over yet
  // Boundary convention: the window is over STRICTLY after submit +
  // linger, so the batch still lingers at exactly tick 110 — same rule
  // as the deadline checks (regression: linger used >= here).
  svc.advance_time(110);
  EXPECT_FALSE(svc.pump());
  svc.advance_time(111);
  EXPECT_TRUE(svc.pump());  // both requests go as one batch
  const auto stats = svc.stats();
  EXPECT_EQ(stats.batches, 1u);
  ASSERT_EQ(stats.batch_size_hist.size(), 4u);
  EXPECT_EQ(stats.batch_size_hist[1], 1u);  // one batch of size 2
  EXPECT_EQ(stats.completed_ok, 2u);
  EXPECT_EQ(stats.latency_ticks.size(), 2u);
  EXPECT_EQ(stats.latency_ticks[0], 101.0);  // done 111 - submitted 10
  EXPECT_EQ(stats.latency_ticks[1], 91.0);
}

TEST(ServeBatching, FullBatchDispatchesInsideLingerWindow) {
  serve::ServeConfig cfg = small_config(0);
  cfg.max_batch = 2;
  cfg.batch_linger_ticks = 1000;
  serve::LocalizationService svc(cfg);
  ASSERT_EQ(svc.submit(clean_request(0, 0), {}),
            serve::SubmitStatus::kAccepted);
  EXPECT_FALSE(svc.pump());
  ASSERT_EQ(svc.submit(clean_request(1, 1), {}),
            serve::SubmitStatus::kAccepted);
  EXPECT_TRUE(svc.pump());  // batch full; linger does not apply
  EXPECT_EQ(svc.stats().batch_size_hist[1], 1u);
}

TEST(ServeBatching, OverflowSplitsAcrossBatches) {
  serve::ServeConfig cfg = small_config(0);
  cfg.max_batch = 2;
  serve::LocalizationService svc(cfg);
  for (std::uint64_t c = 0; c < 3; ++c) {
    ASSERT_EQ(svc.submit(clean_request(c, 0), {}),
              serve::SubmitStatus::kAccepted);
  }
  EXPECT_TRUE(svc.pump());
  EXPECT_TRUE(svc.pump());
  EXPECT_FALSE(svc.pump());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_size_hist[1], 1u);  // one batch of 2
  EXPECT_EQ(stats.batch_size_hist[0], 1u);  // one batch of 1
}

TEST(ServeDeadline, ExpiredRequestsAreDroppedWithCallback) {
  serve::ServeConfig cfg = small_config(0);
  cfg.deadline_ticks = 5;
  serve::LocalizationService svc(cfg);
  std::vector<serve::Response> got;
  ASSERT_EQ(svc.submit(clean_request(42, 0),
                       [&](const serve::Response& r) { got.push_back(r); }),
            serve::SubmitStatus::kAccepted);
  svc.advance_time(6);  // past 0 + 5
  EXPECT_TRUE(svc.pump());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, serve::ResponseStatus::kDeadlineExpired);
  EXPECT_EQ(got[0].client_id, 42u);
  EXPECT_TRUE(got[0].ap_estimates.empty());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.deadline_dropped, 1u);
  EXPECT_EQ(stats.completed_ok, 0u);
  EXPECT_TRUE(stats.latency_ticks.empty());
  EXPECT_EQ(stats.batches, 0u);  // nothing was estimated
}

TEST(ServeDeadline, RequestProcessedAtExactDeadlineTickCompletesOk) {
  // Pins the documented boundary: a request expires STRICTLY after
  // submit_tick + deadline_ticks, so one processed at exactly that tick
  // is estimated normally.
  serve::ServeConfig cfg = small_config(0);
  cfg.deadline_ticks = 5;
  serve::LocalizationService svc(cfg);
  serve::Response resp;
  ASSERT_EQ(svc.submit(clean_request(3, 10),
                       [&](const serve::Response& r) { resp = r; }),
            serve::SubmitStatus::kAccepted);
  svc.advance_time(15);  // exactly submit (10) + deadline (5)
  EXPECT_TRUE(svc.pump());
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.deadline_dropped, 0u);
  EXPECT_EQ(stats.completed_ok, 1u);
  ASSERT_EQ(stats.latency_ticks.size(), 1u);
  EXPECT_EQ(stats.latency_ticks[0], 5.0);
}

TEST(ServeDeadline, FreshRequestInSameQueueStillCompletes) {
  serve::ServeConfig cfg = small_config(0);
  cfg.deadline_ticks = 5;
  serve::LocalizationService svc(cfg);
  std::vector<serve::Response> got;
  auto keep = [&](const serve::Response& r) { got.push_back(r); };
  ASSERT_EQ(svc.submit(clean_request(1, 0), keep),
            serve::SubmitStatus::kAccepted);
  ASSERT_EQ(svc.submit(clean_request(2, 4), keep),
            serve::SubmitStatus::kAccepted);
  svc.advance_time(7);  // request 1 expired, request 2 still live
  EXPECT_TRUE(svc.pump());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].status, serve::ResponseStatus::kOk);
  EXPECT_EQ(got[0].client_id, 2u);
  EXPECT_EQ(got[1].status, serve::ResponseStatus::kDeadlineExpired);
  EXPECT_EQ(got[1].client_id, 1u);
}

TEST(ServeStats, LatencySamplesAreABoundedRing) {
  // latency_ticks must never outgrow latency_sample_cap no matter how
  // many requests complete (a soak run cannot inflate service memory);
  // latency_recorded keeps the true total, and the ring overwrites
  // oldest-first so the surviving samples are the most recent ones.
  serve::ServeConfig cfg = small_config(0);
  cfg.latency_sample_cap = 4;
  serve::LocalizationService svc(cfg);
  for (std::uint64_t c = 0; c < 10; ++c) {
    // Submit at tick c, complete at tick c + 1 + c: latency = 1 + c.
    ASSERT_EQ(svc.submit(clean_request(c, c), {}),
              serve::SubmitStatus::kAccepted);
    svc.advance_time(2 * c + 1);
    ASSERT_TRUE(svc.pump());
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed_ok, 10u);
  EXPECT_EQ(stats.latency_recorded, 10u);
  ASSERT_EQ(stats.latency_ticks.size(), 4u);
  // Samples 1..10 were taken; the ring (cap 4) holds the last four
  // {7,8,9,10} with the write cursor at latency_recorded % cap.
  EXPECT_EQ(stats.latency_ticks[0], 9.0);
  EXPECT_EQ(stats.latency_ticks[1], 10.0);
  EXPECT_EQ(stats.latency_ticks[2], 7.0);
  EXPECT_EQ(stats.latency_ticks[3], 8.0);
}

TEST(ServeResponses, ValidRequestLocalizesWithPerApEstimates) {
  serve::LocalizationService svc(small_config(0));
  serve::Response resp;
  bool called = false;
  ASSERT_EQ(svc.submit(clean_request(7, 3),
                       [&](const serve::Response& r) {
                         resp = r;
                         called = true;
                       }),
            serve::SubmitStatus::kAccepted);
  svc.drain();
  ASSERT_TRUE(called);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(resp.client_id, 7u);
  EXPECT_EQ(resp.submit_tick, 3u);
  EXPECT_TRUE(resp.location.valid);
  ASSERT_EQ(resp.ap_estimates.size(), 2u);
  for (const auto& ae : resp.ap_estimates) {
    EXPECT_TRUE(ae.valid);
    EXPECT_GT(ae.weight, 0.0);
    EXPECT_GE(ae.aoa_deg, 0.0);
    EXPECT_LE(ae.aoa_deg, 180.0);
  }
}

TEST(ServeResponses, AllZeroCsiYieldsNoObservations) {
  serve::LocalizationService svc(small_config(0));
  serve::Request req;
  req.client_id = 1;
  for (std::uint32_t ap = 0; ap < 2; ++ap) {
    serve::ApSubmission sub;
    sub.ap_id = ap;
    sub.packets.emplace_back(3, 30);  // zero matrix: nothing to estimate
    req.aps.push_back(std::move(sub));
  }
  serve::Response resp;
  ASSERT_EQ(svc.submit(std::move(req),
                       [&](const serve::Response& r) { resp = r; }),
            serve::SubmitStatus::kAccepted);
  svc.drain();
  EXPECT_EQ(resp.status, serve::ResponseStatus::kNoObservations);
  EXPECT_FALSE(resp.location.valid);
  EXPECT_EQ(svc.stats().completed_no_observations, 1u);
}

TEST(ServeReplay, TraceReplayMatchesOfflinePipelineBitExactly) {
  // Record a simulated round, replay it through the service, and check
  // the response equals estimate_batch + localize on the original data.
  sim::Testbed tb = sim::make_paper_testbed();
  tb.aps.resize(2);
  sim::ScenarioConfig scfg = sim::scenario_for_band(sim::SnrBand::kHigh);
  scfg.num_packets = 3;
  auto rng = make_rng(17);
  const auto clients = sim::sample_client_locations(1, tb.room, rng);
  const auto ms = sim::generate_measurements(tb, clients[0], scfg, rng);

  std::stringstream ss;
  io::TraceWriter writer(ss, scfg.array);
  (void)sim::record_round(writer, ms, 0, 0);

  serve::ServeConfig cfg = small_config(0);
  cfg.estimator.solver.max_iterations = 60;
  cfg.array = scfg.array;
  cfg.ap_poses.assign(tb.aps.begin(), tb.aps.end());
  cfg.localize.room = tb.room;

  // Offline pipeline on the live measurements.
  std::vector<core::CsiBurst> bursts;
  for (const auto& m : ms) bursts.push_back(m.burst.csi);
  const auto offline =
      core::roarray_estimate_batch(bursts, cfg.estimator, cfg.array, {});
  std::vector<loc::ApObservation> obs;
  for (std::size_t a = 0; a < ms.size(); ++a) {
    if (!offline[a].valid) continue;
    obs.push_back({ms[a].pose, offline[a].direct.aoa_deg, ms[a].rssi_weight});
  }
  const loc::LocalizeResult direct_fix = loc::localize(obs, cfg.localize);

  // Replay through the service.
  ss.seekg(0);
  io::TraceReader reader(ss);
  const auto rounds = io::read_client_rounds(reader);
  ASSERT_EQ(rounds.size(), 1u);
  serve::LocalizationService svc(cfg);
  serve::Request req;
  req.client_id = rounds[0].client_id;
  for (std::size_t a = 0; a < rounds[0].ap_ids.size(); ++a) {
    req.aps.push_back({rounds[0].ap_ids[a], rounds[0].bursts[a]});
  }
  serve::Response resp;
  ASSERT_EQ(svc.submit(std::move(req),
                       [&](const serve::Response& r) { resp = r; }),
            serve::SubmitStatus::kAccepted);
  svc.drain();

  ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
  ASSERT_EQ(resp.ap_estimates.size(), ms.size());
  for (std::size_t a = 0; a < ms.size(); ++a) {
    EXPECT_EQ(resp.ap_estimates[a].valid, offline[a].valid);
    if (offline[a].valid) {
      EXPECT_EQ(resp.ap_estimates[a].aoa_deg, offline[a].direct.aoa_deg);
      EXPECT_EQ(resp.ap_estimates[a].toa_s, offline[a].direct.toa_s);
    }
    // The service recomputes the fusion weight from the replayed
    // packets; it must equal the simulator's measurement weight bit
    // for bit (both call channel::burst_rssi_weight).
    EXPECT_EQ(resp.ap_estimates[a].weight, ms[a].rssi_weight);
  }
  EXPECT_EQ(resp.location.position.x, direct_fix.position.x);
  EXPECT_EQ(resp.location.position.y, direct_fix.position.y);
  EXPECT_EQ(resp.location.cost, direct_fix.cost);
}

TEST(ServeCallbacks, ThrowingCallbackDoesNotWedgeOrRobSiblings) {
  // Regression: a throwing on_done used to escape process_batch between
  // the in_flight_ decrement's siblings — the remaining callbacks of
  // the batch were skipped and (in dispatcher mode) the exception would
  // std::terminate the thread. The service must swallow it, count it,
  // invoke every sibling, and still reach quiescence in drain().
  serve::ServeConfig cfg = small_config(0);
  cfg.max_batch = 2;
  serve::LocalizationService svc(cfg);
  bool second_called = false;
  ASSERT_EQ(svc.submit(clean_request(1, 0),
                       [](const serve::Response&) {
                         throw std::runtime_error("client bug");
                       }),
            serve::SubmitStatus::kAccepted);
  ASSERT_EQ(svc.submit(clean_request(2, 0),
                       [&](const serve::Response&) { second_called = true; }),
            serve::SubmitStatus::kAccepted);
  EXPECT_NO_THROW(svc.drain());  // must not propagate and must not hang
  EXPECT_TRUE(second_called);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.callback_exceptions, 1u);
  EXPECT_EQ(stats.completed_ok, 2u);
  // The service stays fully usable afterwards.
  bool third_called = false;
  ASSERT_EQ(svc.submit(clean_request(3, 1),
                       [&](const serve::Response&) { third_called = true; }),
            serve::SubmitStatus::kAccepted);
  svc.drain();
  EXPECT_TRUE(third_called);
}

// --- concurrent paths (runtime label; TSan/ASan instrument these) ---

TEST(ServeConcurrency, ContendedSubmitCompletesEveryAcceptedRequest) {
  serve::ServeConfig cfg = small_config(2);
  cfg.queue_capacity = 256;
  runtime::OperatorCache cache;
  runtime::ThreadPool pool(2);
  serve::LocalizationService svc(cfg, {&cache, &pool});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> callbacks{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto st = svc.submit(
            clean_request(static_cast<std::uint64_t>(t * kPerThread + i),
                          static_cast<serve::Tick>(i)),
            [&](const serve::Response&) {
              callbacks.fetch_add(1, std::memory_order_relaxed);
            });
        if (st == serve::SubmitStatus::kAccepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  svc.stop();
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);
  EXPECT_EQ(callbacks.load(), accepted.load());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(stats.completed_ok + stats.completed_no_observations,
            static_cast<std::uint64_t>(callbacks.load()));
}

TEST(ServeConcurrency, QueueFullUnderContentionNeverLosesRequests) {
  serve::ServeConfig cfg = small_config(1);
  cfg.queue_capacity = 2;
  serve::LocalizationService svc(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4;
  std::atomic<int> callbacks{0};
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto st = svc.submit(clean_request(1, 0), [&](const serve::Response&) {
          callbacks.fetch_add(1, std::memory_order_relaxed);
        });
        if (st == serve::SubmitStatus::kAccepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(st, serve::SubmitStatus::kQueueFull);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  svc.stop();
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(callbacks.load(), accepted.load());
}

TEST(ServeConcurrency, StopDrainsInFlightRequests) {
  serve::ServeConfig cfg = small_config(2);
  cfg.queue_capacity = 64;
  serve::LocalizationService svc(cfg);
  std::atomic<int> callbacks{0};
  int accepted = 0;
  for (std::uint64_t c = 0; c < 6; ++c) {
    if (svc.submit(clean_request(c, c), [&](const serve::Response&) {
          callbacks.fetch_add(1, std::memory_order_relaxed);
        }) == serve::SubmitStatus::kAccepted) {
      ++accepted;
    }
  }
  // Stop immediately: everything accepted must still complete.
  svc.stop();
  EXPECT_EQ(callbacks.load(), accepted);
  // And stop is idempotent.
  svc.stop();
  EXPECT_EQ(svc.submit(clean_request(99, 0), {}),
            serve::SubmitStatus::kStopped);
}

TEST(ServeConcurrency, DestructorActsAsGracefulStop) {
  std::atomic<int> callbacks{0};
  {
    serve::LocalizationService svc(small_config(1));
    for (std::uint64_t c = 0; c < 3; ++c) {
      ASSERT_EQ(svc.submit(clean_request(c, 0),
                           [&](const serve::Response&) {
                             callbacks.fetch_add(1, std::memory_order_relaxed);
                           }),
                serve::SubmitStatus::kAccepted);
    }
  }
  EXPECT_EQ(callbacks.load(), 3);
}

}  // namespace
}  // namespace roarray
