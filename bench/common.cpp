#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>

#include "linalg/backend/backend.hpp"
#include "runtime/seed.hpp"

namespace roarray::bench {

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--locations") == 0) {
      opts.locations = std::atoll(need_value("--locations"));
    } else if (std::strcmp(argv[i], "--packets") == 0) {
      opts.packets = std::atoll(need_value("--packets"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opts.seed = static_cast<std::uint64_t>(std::atoll(need_value("--seed")));
    } else if (std::strcmp(argv[i], "--strict-baselines") == 0) {
      opts.strict_baselines = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = std::atoi(need_value("--threads"));
    } else if (std::strcmp(argv[i], "--coarse-fine") == 0) {
      opts.coarse_fine = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("options: --locations N --packets P --seed S "
                  "--strict-baselines --threads T --coarse-fine\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opts.locations < 1 || opts.packets < 1) {
    std::fprintf(stderr, "locations and packets must be >= 1\n");
    std::exit(2);
  }
  if (opts.threads < 0) {
    std::fprintf(stderr, "threads must be >= 0\n");
    std::exit(2);
  }
  return opts;
}

std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t index) {
  return runtime::derive_seed(seed, index);
}

const char* system_name(System s) {
  switch (s) {
    case System::kRoArray: return "ROArray";
    case System::kSpotfi: return "SpotFi";
    case System::kArrayTrack: return "ArrayTrack";
  }
  return "?";
}

bool estimate_direct_aoa(System system, const sim::ApMeasurement& m,
                         const dsp::ArrayConfig& array_cfg, double& aoa_deg,
                         bool strict, const runtime::EstimateContext& ctx,
                         bool coarse_fine, double* toa_s_out) {
  switch (system) {
    case System::kRoArray: {
      core::RoArrayConfig cfg;
      cfg.solver.max_iterations = 300;
      cfg.coarse_fine.enabled = coarse_fine;
      const core::RoArrayResult r =
          core::roarray_estimate(m.burst.csi, cfg, array_cfg, ctx);
      if (!r.valid) return false;
      aoa_deg = r.direct.aoa_deg;
      if (toa_s_out != nullptr) *toa_s_out = r.direct.toa_s;
      return true;
    }
    case System::kSpotfi: {
      music::SpotfiConfig cfg;
      if (strict) {
        cfg.num_paths = 5;           // footnote 8: K hardwired to 5
        cfg.adaptive_order = false;
        cfg.min_cluster_weight_ratio = 0.0;
        cfg.edge_exclusion_deg = 0.0;
      }
      const music::SpotfiResult r =
          music::spotfi_estimate(m.burst.csi, cfg, array_cfg);
      if (!r.valid) return false;
      aoa_deg = r.direct_aoa_deg;
      if (toa_s_out != nullptr) *toa_s_out = r.direct_toa_s;
      return true;
    }
    case System::kArrayTrack: {
      const music::ArrayTrackResult r =
          music::arraytrack_estimate(m.burst.csi, array_cfg);
      if (!r.valid) return false;
      aoa_deg = r.direct_aoa_deg;
      return true;
    }
  }
  return false;
}

std::vector<SystemErrors> run_band(const sim::Testbed& testbed,
                                   const std::vector<sim::Vec2>& clients,
                                   sim::SnrBand band,
                                   const std::vector<System>& systems,
                                   const BenchOptions& opts, BenchRuntime* rt) {
  const std::uint64_t band_seed =
      opts.seed ^ (static_cast<std::uint64_t>(band) << 32);

  loc::LocalizeConfig lcfg;
  lcfg.room = testbed.room;
  lcfg.grid_step_m = 0.1;

  sim::ScenarioConfig scfg = sim::scenario_for_band(band);
  scfg.num_packets = opts.packets;

  const runtime::EstimateContext ctx =
      rt != nullptr ? rt->context() : runtime::EstimateContext{};

  // One slot per location; slots are written independently and merged
  // in location order below, so the output does not depend on how the
  // locations were scheduled.
  std::vector<std::vector<SystemErrors>> per_loc(
      clients.size(), std::vector<SystemErrors>(systems.size()));
  auto run_location = [&](index_t li) {
    const auto l = static_cast<std::size_t>(li);
    std::mt19937_64 rng(trial_seed(band_seed, static_cast<std::uint64_t>(li)));
    const auto ms = sim::generate_measurements(testbed, clients[l], scfg, rng);
    for (std::size_t s = 0; s < systems.size(); ++s) {
      std::vector<loc::ApObservation> obs;
      for (const sim::ApMeasurement& m : ms) {
        double aoa = 0.0;
        double toa = std::numeric_limits<double>::quiet_NaN();
        if (!estimate_direct_aoa(systems[s], m, scfg.array, aoa,
                                 opts.strict_baselines, ctx,
                                 opts.coarse_fine, &toa)) {
          continue;
        }
        per_loc[l][s].aoa_deg.push_back(
            dsp::angle_diff_deg(aoa, m.true_direct_aoa_deg));
        obs.push_back({m.pose, aoa, m.rssi_weight, std::isfinite(toa) ? toa : 0.0,
                       std::isfinite(toa)});
      }
      const loc::LocalizeResult fix = loc::localize(obs, lcfg, ctx.pool);
      if (fix.valid) {
        per_loc[l][s].localization_m.push_back(
            channel::distance(fix.position, clients[l]));
      }
    }
  };

  const auto n = static_cast<index_t>(clients.size());
  if (ctx.pool != nullptr) {
    ctx.pool->parallel_for(n, run_location);
  } else {
    for (index_t li = 0; li < n; ++li) run_location(li);
  }

  std::vector<SystemErrors> out(systems.size());
  for (std::size_t l = 0; l < clients.size(); ++l) {
    for (std::size_t s = 0; s < systems.size(); ++s) {
      auto& dst = out[s];
      const auto& src = per_loc[l][s];
      dst.aoa_deg.insert(dst.aoa_deg.end(), src.aoa_deg.begin(),
                         src.aoa_deg.end());
      dst.localization_m.insert(dst.localization_m.end(),
                                src.localization_m.begin(),
                                src.localization_m.end());
    }
  }
  return out;
}

std::vector<double> cdf_fractions() {
  return {0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
}

void emit_machine_provenance(eval::JsonWriter& w, int pool_threads) {
  const auto d = linalg::backend::dispatch_info();
  w.key("machine").begin_object();
  w.key("hardware_threads")
      .value(runtime::ThreadPool::default_thread_count());
  w.key("pool_threads").value(pool_threads);
  w.key("pool_oversubscribed")
      .value(pool_threads > runtime::ThreadPool::default_thread_count());
  w.key("backend_requested").value(d.requested);
  w.key("backend_selected").value(d.selected->name);
  w.key("simd_compiled").value(d.simd_compiled);
  w.key("simd_supported").value(d.simd_supported);
  w.key("cpu_features").value(linalg::backend::cpu_features());
  w.end_object();
}

bool write_json_report(const std::string& path,
                       const std::function<void(eval::JsonWriter&)>& body) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  eval::JsonWriter w(f);
  body(w);
  f.flush();
  if (!f || !w.complete()) {
    std::fprintf(stderr, "writing %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace roarray::bench
