#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>

#include "channel/csi.hpp"
#include "io/trace_writer.hpp"
#include "sim/recorder.hpp"
#include "sim/testbed.hpp"

namespace perfbench {

namespace core = roarray::core;
namespace sim = roarray::sim;
namespace loc = roarray::loc;
namespace serve = roarray::serve;
namespace {

// Why each workload exists is recorded in README.md; the sizes are set
// so every run covers its whole distinct set and takes >= 100 timed
// requests inside the run length BENCHMARK.json fixes.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec full;
    full.name = "offline_fullgrid";
    full.packets = 15;
    full.distinct = 96;
    full.warmup = 2;
    full.traced_min = 8;
    w.push_back(full);

    WorkloadSpec cf;
    cf.name = "offline_cf_nlos";
    cf.packets = 1;
    cf.blocked_aps = 1;
    cf.coarse_fine = true;
    cf.distinct = 384;
    cf.warmup = 32;
    cf.traced_min = 96;
    w.push_back(cf);

    WorkloadSpec sv;
    sv.name = "serve_open";
    sv.serve = true;
    sv.mixed_bands = true;
    sv.packets = 4;
    sv.coarse_fine = true;
    sv.min_aps = 3;
    sv.max_aps = 6;
    sv.distinct = 256;
    sv.warmup = 32;
    sv.traced_min = 256;
    sv.rate_rps = 20.0;
    w.push_back(sv);
    return w;
  }();
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : workloads()) out.push_back(w.name);
  return out;
}

PipelineConfig make_pipeline_config(const WorkloadSpec& spec) {
  const sim::Testbed tb = sim::make_paper_testbed();
  PipelineConfig cfg;
  cfg.estimator.coarse_fine.enabled = spec.coarse_fine;
  cfg.array = sim::ScenarioConfig{}.array;
  cfg.localize.room = tb.room;
  cfg.ap_poses = tb.aps;
  return cfg;
}

void fill_cache(roarray::runtime::OperatorCache& cache, const PipelineConfig& cfg) {
  const core::RoArrayConfig& ec = cfg.estimator;
  (void)cache.get(ec.aoa_grid, ec.toa_grid, cfg.array);
  if (ec.coarse_fine.enabled) {
    (void)cache.get_coarse(ec.aoa_grid, ec.toa_grid, cfg.array, ec.coarse_fine);
  }
}

std::vector<Round> make_rounds(const WorkloadSpec& spec, std::uint64_t seed) {
  const sim::Testbed tb = sim::make_paper_testbed();
  // Each workload draws from its own stream of the seed.
  Fingerprint salt;
  for (const char c : spec.name) salt.add(static_cast<std::uint64_t>(c));
  salt.add(seed);
  std::mt19937_64 rng(salt.value());

  // Stratified client positions over the floor the paper samples from
  // (1.5 m wall margin): a grid of at least `distinct` cells, visited in
  // a seeded order, one jittered client per cell.
  constexpr double kMargin = 1.5;
  const double w = tb.room.width_m - 2.0 * kMargin;
  const double h = tb.room.height_m - 2.0 * kMargin;
  const auto n = static_cast<std::size_t>(spec.distinct);
  const auto ny = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n) * h / w)));
  const std::size_t nx = (n + ny - 1) / ny;
  std::vector<std::size_t> cells(nx * ny);
  std::iota(cells.begin(), cells.end(), std::size_t{0});
  std::shuffle(cells.begin(), cells.end(), rng);
  cells.resize(n);

  // The heard-AP count and the SNR band are stratified the same way:
  // every value occurs equally often (up to rounding) and the seed
  // decides which round gets which, so the request mix, and with it the
  // service-time distribution, is the same for every seed.
  auto balanced = [&](int values) {
    std::vector<int> v(n);
    for (std::size_t r = 0; r < n; ++r) v[r] = static_cast<int>(r % static_cast<std::size_t>(values));
    std::shuffle(v.begin(), v.end(), rng);
    return v;
  };
  const std::vector<int> band_of = balanced(3);
  const std::vector<int> extra_aps_of = balanced(spec.max_aps - spec.min_aps + 1);

  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Round> rounds(n);
  for (std::size_t r = 0; r < n; ++r) {
    Round& round = rounds[r];
    round.client_id = r;
    const double cx = static_cast<double>(cells[r] % nx) + unit(rng);
    const double cy = static_cast<double>(cells[r] / nx) + unit(rng);
    round.client = {kMargin + cx * w / static_cast<double>(nx),
                    kMargin + cy * h / static_cast<double>(ny)};

    const sim::SnrBand band =
        spec.mixed_bands ? static_cast<sim::SnrBand>(band_of[r]) : sim::SnrBand::kMedium;
    sim::ScenarioConfig scfg = sim::scenario_for_band(band);
    scfg.num_packets = spec.packets;
    scfg.adversarial.num_blocked_aps = spec.blocked_aps;
    std::vector<sim::ApMeasurement> ms =
        sim::generate_measurements(tb, round.client, scfg, rng);

    std::vector<std::uint32_t> ids(ms.size());
    std::iota(ids.begin(), ids.end(), 0u);
    const auto heard = static_cast<std::size_t>(spec.min_aps + extra_aps_of[r]);
    if (heard < ids.size()) {
      std::shuffle(ids.begin(), ids.end(), rng);
      ids.resize(heard);
      std::sort(ids.begin(), ids.end());
    }
    for (const std::uint32_t id : ids) {
      sim::ApMeasurement& m = ms[id];
      round.ap_ids.push_back(id);
      round.bursts.push_back(std::move(m.burst.csi));
      round.snr_db.push_back(m.snr_db);
      round.true_aoa_deg.push_back(m.true_direct_aoa_deg);
    }
  }
  return rounds;
}

std::string encode_trace(const std::vector<Round>& rounds,
                         const roarray::dsp::ArrayConfig& array) {
  std::ostringstream os(std::ios::binary);
  roarray::io::TraceWriter writer(os, array);
  std::uint64_t tick = 0;
  for (const Round& round : rounds) {
    for (std::size_t a = 0; a < round.ap_ids.size(); ++a) {
      roarray::channel::PacketBurst burst;
      burst.csi = round.bursts[a];
      tick = sim::record_burst(writer, burst, round.ap_ids[a], round.client_id,
                               round.snr_db[a], tick);
    }
  }
  writer.flush();
  return os.str();
}

std::vector<double> rssi_weights(const Round& round) {
  std::vector<double> w;
  w.reserve(round.bursts.size());
  for (const core::CsiBurst& burst : round.bursts) {
    w.push_back(roarray::channel::burst_rssi_weight(burst));
  }
  return w;
}

std::vector<loc::ApObservation> observations_of(
    const Round& round, const std::vector<core::RoArrayResult>& est,
    const std::vector<double>& weights, const PipelineConfig& cfg) {
  std::vector<loc::ApObservation> obs;
  for (std::size_t j = 0; j < est.size(); ++j) {
    if (!est[j].valid) continue;
    loc::ApObservation o;
    o.pose = cfg.ap_poses[round.ap_ids[j]];
    o.aoa_deg = est[j].direct.aoa_deg;
    o.weight = weights[j];
    o.toa_s = est[j].direct.toa_s;
    o.has_toa = true;
    obs.push_back(o);
  }
  return obs;
}

// Mirrors LocalizationService::process_batch for one request; the
// serve workload checks every response against this bit for bit.
serve::Response assemble_response(const Round& round,
                                  const std::vector<core::RoArrayResult>& est,
                                  const PipelineConfig& cfg,
                                  const roarray::runtime::ThreadPool* pool,
                                  double* localize_ms) {
  serve::Response r;
  r.client_id = round.client_id;
  const std::vector<double> weights = rssi_weights(round);
  r.ap_estimates.reserve(est.size());
  for (std::size_t j = 0; j < est.size(); ++j) {
    serve::ApEstimate ae;
    ae.ap_id = round.ap_ids[j];
    ae.valid = est[j].valid;
    ae.weight = weights[j];
    if (est[j].valid) {
      ae.aoa_deg = est[j].direct.aoa_deg;
      ae.toa_s = est[j].direct.toa_s;
      ae.power = est[j].direct.power;
    }
    r.ap_estimates.push_back(ae);
  }
  const std::vector<loc::ApObservation> observations =
      observations_of(round, est, weights, cfg);
  if (observations.empty()) {
    r.status = serve::ResponseStatus::kNoObservations;
    return r;
  }
  const Clock::time_point t0 = Clock::now();
  r.location = loc::localize(observations, cfg.localize, pool);
  if (localize_ms != nullptr) *localize_ms = ms_between(t0, Clock::now());
  r.status = r.location.valid ? serve::ResponseStatus::kOk
                              : serve::ResponseStatus::kNoObservations;
  if (r.location.used_fusion) {
    // Fusion diagnostics are indexed like the observations: the valid
    // APs in order.
    std::size_t k = 0;
    for (serve::ApEstimate& ae : r.ap_estimates) {
      if (!ae.valid) continue;
      const roarray::fusion::ApDiagnostics& d = r.location.fusion.per_ap[k++];
      ae.fused_inlier = d.inlier;
      ae.fused_residual_m = d.residual_m;
      ae.fused_toa_bias_s = d.toa_bias_s;
    }
  }
  return r;
}

std::uint64_t fingerprint(const serve::Response& r) {
  Fingerprint f;
  f.add(static_cast<std::uint64_t>(r.status));
  f.add(static_cast<std::uint64_t>(r.location.valid));
  f.add(r.location.position.x);
  f.add(r.location.position.y);
  f.add(r.location.cost);
  f.add(static_cast<std::uint64_t>(r.location.used_fusion));
  f.add(static_cast<std::uint64_t>(r.location.fusion.inliers));
  f.add(static_cast<std::uint64_t>(r.location.fusion.used_ransac));
  f.add(static_cast<std::uint64_t>(r.location.fusion.fallback));
  for (const serve::ApEstimate& ae : r.ap_estimates) {
    f.add(static_cast<std::uint64_t>(ae.ap_id));
    f.add(static_cast<std::uint64_t>(ae.valid));
    f.add(ae.aoa_deg);
    f.add(ae.toa_s);
    f.add(ae.power);
    f.add(ae.weight);
    f.add(static_cast<std::uint64_t>(ae.fused_inlier));
    f.add(ae.fused_residual_m);
    f.add(ae.fused_toa_bias_s);
  }
  return f.value();
}

}  // namespace perfbench
