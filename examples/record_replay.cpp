// Record/replay quickstart: capture a simulated measurement campaign to
// a CSI trace file, replay it through the streaming LocalizationService,
// and verify the replayed position fixes are bit-identical to running
// the offline pipeline (roarray_estimate_batch + loc::localize) on the
// live measurements.
//
//   sim      -> simulate rounds, record them with sim::record_round
//   io       -> TraceWriter / TraceReader round-trip (CRC-checked)
//   serve    -> submit replayed rounds to LocalizationService
//   compare  -> replay must reproduce the closed-loop run exactly
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "core/roarray.hpp"
#include "io/trace_reader.hpp"
#include "io/trace_writer.hpp"
#include "loc/localize.hpp"
#include "runtime/operator_cache.hpp"
#include "serve/service.hpp"
#include "sim/recorder.hpp"
#include "sim/scenario.hpp"
#include "sim/testbed.hpp"

int main(int argc, char** argv) {
  using namespace roarray;
  // Arguments are checked before anything is written, so a mistyped
  // option can never become the name of the trace file.
  const char* usage = "usage: record_replay [TRACE_PATH]\n"
                      "  records a small campaign to TRACE_PATH (default "
                      "record_replay_trace.bin) and replays it\n";
  const char* trace_path = "record_replay_trace.bin";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-h") == 0 ||
        std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", usage);
      return 0;
    }
    if (argv[i][0] == '-' || i > 1) {
      std::fprintf(stderr, "record_replay: unexpected argument %s\n%s",
                   argv[i], usage);
      return 2;
    }
    trace_path = argv[i];
  }

  // A small campaign: 2 clients heard by the first 3 paper-testbed APs.
  sim::Testbed testbed = sim::make_paper_testbed();
  testbed.aps.resize(3);
  sim::ScenarioConfig scfg = sim::scenario_for_band(sim::SnrBand::kHigh);
  scfg.num_packets = 5;
  std::mt19937_64 rng(11);
  const auto clients = sim::sample_client_locations(2, testbed.room, rng);

  std::vector<std::vector<sim::ApMeasurement>> rounds_live;
  {
    io::TraceWriter writer(trace_path, scfg.array);
    std::uint64_t tick = 0;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      rounds_live.push_back(
          sim::generate_measurements(testbed, clients[c], scfg, rng));
      tick = sim::record_round(writer, rounds_live.back(),
                               static_cast<std::uint64_t>(c), tick);
    }
    writer.flush();
    std::printf("recorded %llu records to %s\n",
                static_cast<unsigned long long>(writer.records_written()),
                trace_path);
  }

  core::RoArrayConfig estimator;
  estimator.solver.max_iterations = 150;
  loc::LocalizeConfig lcfg;
  lcfg.room = testbed.room;
  runtime::OperatorCache cache;
  const runtime::EstimateContext ctx{&cache, nullptr};

  // Closed loop: the offline pipeline straight on the live measurements.
  std::vector<loc::LocalizeResult> closed;
  for (const auto& ms : rounds_live) {
    std::vector<core::CsiBurst> bursts;
    for (const auto& m : ms) bursts.push_back(m.burst.csi);
    const auto results =
        core::roarray_estimate_batch(bursts, estimator, scfg.array, ctx);
    std::vector<loc::ApObservation> obs;
    for (std::size_t a = 0; a < ms.size(); ++a) {
      if (!results[a].valid) continue;
      obs.push_back({ms[a].pose, results[a].direct.aoa_deg,
                     ms[a].rssi_weight});
    }
    closed.push_back(loc::localize(obs, lcfg));
  }

  // Replay: read the trace back and push it through the service in
  // deterministic manual-pump mode.
  io::TraceReader reader(trace_path);
  const auto rounds = io::read_client_rounds(reader);

  serve::ServeConfig cfg;
  cfg.estimator = estimator;
  cfg.array = reader.array_config();
  cfg.localize = lcfg;
  cfg.ap_poses.assign(testbed.aps.begin(), testbed.aps.end());
  cfg.dispatchers = 0;  // manual pump: fully deterministic replay
  serve::LocalizationService service(cfg, ctx);

  std::vector<serve::Response> replies(rounds.size());
  for (const auto& round : rounds) {
    serve::Request req;
    req.client_id = round.client_id;
    req.submit_tick = round.first_tick;
    for (std::size_t a = 0; a < round.ap_ids.size(); ++a) {
      req.aps.push_back({round.ap_ids[a], round.bursts[a]});
    }
    const auto st = service.submit(
        std::move(req), [&replies](const serve::Response& r) {
          replies[static_cast<std::size_t>(r.client_id)] = r;
        });
    if (st != serve::SubmitStatus::kAccepted) {
      std::printf("submit failed: %s\n", serve::submit_status_name(st));
      return 1;
    }
  }
  service.drain();

  // The replayed fixes must match the closed-loop run bit for bit: the
  // trace stores CSI as IEEE-754 bit patterns and the service computes
  // the same RSSI weights (channel::burst_rssi_weight) the simulator
  // attached, so nothing is allowed to drift.
  bool all_exact = true;
  for (std::size_t c = 0; c < rounds.size(); ++c) {
    const auto& replayed = replies[c].location;
    const bool exact = replies[c].status == serve::ResponseStatus::kOk &&
                       replayed.position.x == closed[c].position.x &&
                       replayed.position.y == closed[c].position.y &&
                       replayed.cost == closed[c].cost;
    all_exact = all_exact && exact;
    const double err = std::hypot(replayed.position.x - clients[c].x,
                                  replayed.position.y - clients[c].y);
    std::printf(
        "client %zu: truth (%5.2f, %5.2f)  replayed fix (%5.2f, %5.2f)  "
        "error %.2f m  replay %s closed loop\n",
        c, clients[c].x, clients[c].y, replayed.position.x,
        replayed.position.y, err, exact ? "==" : "!=");
  }
  std::printf(all_exact ? "replay is bit-identical to the closed-loop run\n"
                        : "REPLAY DIVERGED from the closed-loop run\n");
  return all_exact ? 0 : 1;
}
