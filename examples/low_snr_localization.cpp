// Low-SNR localization: the paper's headline scenario. A client in the
// 18 m x 12 m testbed is heard by 6 APs at <= 2 dB SNR; ROArray, SpotFi
// and ArrayTrack each estimate per-AP direct-path AoAs, which are fused
// by the RSSI-weighted grid search (paper Eq. 19). ROArray's sparse
// recovery keeps working where the MUSIC-based baselines fall apart.
#include <cstdio>
#include <random>

#include "core/roarray.hpp"
#include "loc/localize.hpp"
#include "music/arraytrack.hpp"
#include "music/spotfi.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace roarray;

  const sim::Testbed testbed = sim::make_paper_testbed();
  const sim::Vec2 client{11.5, 4.5};

  // Low-SNR round: weak links, more blocked direct paths.
  sim::ScenarioConfig scenario = sim::scenario_for_band(sim::SnrBand::kLow);
  scenario.num_packets = 15;
  std::mt19937_64 rng(2026);
  const auto measurements =
      sim::generate_measurements(testbed, client, scenario, rng);

  loc::LocalizeConfig loc_cfg;
  loc_cfg.room = testbed.room;
  loc_cfg.grid_step_m = 0.1;  // the paper's 10 cm candidate grid

  std::printf("client ground truth: (%.1f, %.1f) m; per-AP SNRs:", client.x,
              client.y);
  for (const auto& m : measurements) std::printf(" %.1f", m.snr_db);
  std::printf(" dB\n\n");

  // --- ROArray ---
  {
    std::vector<loc::ApObservation> obs;
    for (const auto& m : measurements) {
      core::RoArrayConfig cfg;
      cfg.solver.max_iterations = 300;
      const auto r = core::roarray_estimate(m.burst.csi, cfg, scenario.array);
      if (r.valid) obs.push_back({m.pose, r.direct.aoa_deg, m.rssi_weight});
    }
    const auto fix = loc::localize(obs, loc_cfg);
    std::printf("ROArray:    fix (%5.1f, %5.1f) m, error %.2f m\n",
                fix.position.x, fix.position.y,
                channel::distance(fix.position, client));
  }

  // --- SpotFi ---
  {
    std::vector<loc::ApObservation> obs;
    for (const auto& m : measurements) {
      const auto r = music::spotfi_estimate(m.burst.csi, music::SpotfiConfig{},
                                            scenario.array);
      if (r.valid) obs.push_back({m.pose, r.direct_aoa_deg, m.rssi_weight});
    }
    const auto fix = loc::localize(obs, loc_cfg);
    std::printf("SpotFi:     fix (%5.1f, %5.1f) m, error %.2f m\n",
                fix.position.x, fix.position.y,
                channel::distance(fix.position, client));
  }

  // --- ArrayTrack ---
  {
    std::vector<loc::ApObservation> obs;
    for (const auto& m : measurements) {
      const auto r = music::arraytrack_estimate(m.burst.csi, scenario.array);
      if (r.valid) obs.push_back({m.pose, r.direct_aoa_deg, m.rssi_weight});
    }
    const auto fix = loc::localize(obs, loc_cfg);
    std::printf("ArrayTrack: fix (%5.1f, %5.1f) m, error %.2f m\n",
                fix.position.x, fix.position.y,
                channel::distance(fix.position, client));
  }
  return 0;
}
