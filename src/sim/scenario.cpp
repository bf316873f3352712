#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roarray::sim {

namespace {

/// Std-dev of the per-antenna receive-chain amplitude imbalance
/// (relative, drawn once per AP per round).
constexpr double kResidualGainNoise = 0.1;

/// Deterministic partial Fisher-Yates: the first `take` entries of the
/// returned index list are a uniform draw of AP indices from the round
/// rng (rng() modulo span — the tiny modulo bias is irrelevant for a
/// simulator and keeps the draw count fixed at one per slot).
std::vector<std::size_t> draw_ap_subset(std::size_t num_aps, std::size_t take,
                                        std::mt19937_64& rng) {
  std::vector<std::size_t> idx(num_aps);
  for (std::size_t i = 0; i < num_aps; ++i) idx[i] = i;
  take = std::min(take, num_aps);
  for (std::size_t k = 0; k < take; ++k) {
    const std::size_t pick = k + static_cast<std::size_t>(
        rng() % static_cast<std::uint64_t>(num_aps - k));
    std::swap(idx[k], idx[pick]);
  }
  idx.resize(take);
  return idx;
}

/// Index of the strongest non-direct path, or 0 when there is none.
std::size_t strongest_reflection(const std::vector<channel::Path>& paths) {
  std::size_t best = 0;
  double best_gain = -1.0;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    const double g = std::abs(paths[i].gain);
    if (g > best_gain) {
      best_gain = g;
      best = i;
    }
  }
  return best;
}

}  // namespace

const char* snr_band_name(SnrBand band) {
  switch (band) {
    case SnrBand::kHigh: return "high SNRs, >=15 dB";
    case SnrBand::kMedium: return "medium SNRs, (2,15) dB";
    case SnrBand::kLow: return "low SNRs, <=2 dB";
  }
  return "unknown";
}

double sample_snr_db(SnrBand band, std::mt19937_64& rng) {
  switch (band) {
    case SnrBand::kHigh: {
      std::uniform_real_distribution<double> d(15.0, 25.0);
      return d(rng);
    }
    case SnrBand::kMedium: {
      std::uniform_real_distribution<double> d(2.5, 14.5);
      return d(rng);
    }
    case SnrBand::kLow: {
      std::uniform_real_distribution<double> d(-3.0, 2.0);
      return d(rng);
    }
  }
  throw std::invalid_argument("sample_snr_db: unknown band");
}

ScenarioConfig scenario_for_band(SnrBand band) {
  ScenarioConfig cfg;
  cfg.snr_band = band;
  switch (band) {
    case SnrBand::kHigh:
      cfg.los_block_probability = 0.15;
      cfg.los_block_loss_db = 6.0;
      break;
    case SnrBand::kMedium:
      cfg.los_block_probability = 0.35;
      cfg.los_block_loss_db = 9.0;
      break;
    case SnrBand::kLow:
      cfg.los_block_probability = 0.6;
      cfg.los_block_loss_db = 12.0;
      break;
  }
  return cfg;
}

std::vector<ApMeasurement> generate_measurements(const Testbed& testbed,
                                                 const Vec2& client,
                                                 const ScenarioConfig& cfg,
                                                 std::mt19937_64& rng) {
  if (testbed.aps.empty()) {
    throw std::invalid_argument("generate_measurements: testbed has no APs");
  }
  // Adversarial AP selection happens up front from the round rng —
  // blocked set first, then the ToA-bias set among the remaining APs —
  // so a fixed seed always corrupts the same APs. An inactive config
  // draws nothing, keeping pre-existing scenarios bit-identical.
  const AdversarialConfig& adv = cfg.adversarial;
  std::vector<char> blocked(testbed.aps.size(), 0);
  std::vector<char> toa_biased(testbed.aps.size(), 0);
  if (adv.num_blocked_aps > 0 || adv.num_toa_bias_aps > 0) {
    const auto chosen = draw_ap_subset(
        testbed.aps.size(),
        static_cast<std::size_t>(std::max(0, adv.num_blocked_aps)) +
            static_cast<std::size_t>(std::max(0, adv.num_toa_bias_aps)),
        rng);
    for (std::size_t k = 0; k < chosen.size(); ++k) {
      if (k < static_cast<std::size_t>(std::max(0, adv.num_blocked_aps))) {
        blocked[chosen[k]] = 1;
      } else {
        toa_biased[chosen[k]] = 1;
      }
    }
  }

  std::vector<ApMeasurement> out;
  out.reserve(testbed.aps.size());
  for (std::size_t ap_index = 0; ap_index < testbed.aps.size(); ++ap_index) {
    const ApPose& ap = testbed.aps[ap_index];
    ApMeasurement m;
    m.pose = ap;
    m.paths = channel::trace_paths(testbed.room, ap, client, cfg.multipath,
                                   cfg.array, testbed.scatterers);
    if (cfg.los_block_probability > 0.0) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (u(rng) < cfg.los_block_probability) {
        // Obstructed direct path: attenuated but still first in ToA.
        m.paths.front().gain *=
            std::pow(10.0, -cfg.los_block_loss_db / 20.0);
      }
    }
    m.true_direct_aoa_deg = m.paths.front().aoa_deg;  // sorted by ToA
    m.true_direct_toa_s = m.paths.front().toa_s;

    // Adversarial corruption, after truth capture: truth stays the
    // pristine geometric direct path.
    if (blocked[ap_index]) {
      m.adversarial_blocked = true;
      // The obstruction shadows a cone around the LoS: the direct path
      // and every path arriving within kBlockedShadowDeg of it go.
      const double direct_aoa = m.paths.front().aoa_deg;
      std::vector<channel::Path> survivors;
      for (std::size_t p = 1; p < m.paths.size(); ++p) {
        if (std::abs(m.paths[p].aoa_deg - direct_aoa) > kBlockedShadowDeg) {
          survivors.push_back(m.paths[p]);
        }
      }
      if (!survivors.empty()) {
        // Hard NLoS keeps the total power: renormalize the surviving
        // reflections so the AP reports its wrong AoA at full weight
        // instead of flagging itself through a collapsed RSSI.
        double pre = 0.0, post = 0.0;
        for (const channel::Path& p : m.paths) pre += std::norm(p.gain);
        for (const channel::Path& p : survivors) post += std::norm(p.gain);
        if (post > 0.0) {
          const double s = std::sqrt(pre / post);
          for (channel::Path& p : survivors) p.gain *= s;
        }
        m.paths = std::move(survivors);  // ToA order is preserved.
      } else {
        // Everything arrives through the shadow: -40 dB across the
        // board (the single-path corner case and the fully-shadowed
        // geometry collapse to the same outcome).
        for (channel::Path& p : m.paths) p.gain *= 1e-2;
      }
    } else if (toa_biased[ap_index] && adv.toa_bias_s > 0.0) {
      m.adversarial_toa_bias = true;
      // Delay ONLY the direct path: an all-path shift is a common delay
      // that CSI sanitization removes wholesale; a direct-only shift
      // partially survives it, which is the symptom the fusion layer's
      // positive-bias model keys on.
      m.paths.front().toa_s += adv.toa_bias_s;
      m.paths.front().gain *= std::pow(10.0, -kToaBiasLossDb / 20.0);
      std::stable_sort(m.paths.begin(), m.paths.end(),
                       [](const channel::Path& a, const channel::Path& b) {
                         return a.toa_s < b.toa_s;
                       });
    }
    if (adv.wrong_peak_probability > 0.0 && !m.adversarial_blocked) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (u(rng) < adv.wrong_peak_probability && m.paths.size() > 1) {
        m.adversarial_wrong_peak = true;
        // Boost the strongest reflection until the direct path's
        // relative power falls below the estimator's direct-path gate,
        // so the peak picker locks onto the reflection.
        const std::size_t r = strongest_reflection(m.paths);
        const double direct = std::abs(m.paths.front().gain);
        const double refl = std::abs(m.paths[r].gain);
        if (refl > 0.0 && direct > 0.0) {
          const double target = kWrongPeakBoost * direct;
          if (refl < target) m.paths[r].gain *= target / refl;
        }
      }
    }

    m.snr_db = sample_snr_db(cfg.snr_band, rng);

    channel::BurstConfig bc;
    bc.num_packets = cfg.num_packets;
    bc.snr_db = m.snr_db;
    bc.max_detection_delay_s = cfg.max_detection_delay_s;
    bc.antenna_phase_offsets_rad = cfg.antenna_phase_offsets_rad;
    std::normal_distribution<double> gain(1.0, kResidualGainNoise);
    bc.antenna_gains.resize(static_cast<std::size_t>(cfg.array.num_antennas));
    for (auto& g : bc.antenna_gains) {
      g = linalg::cxd{std::max(0.2, gain(rng)), 0.0};
    }
    bc.polarization_scale = cfg.polarization_scale;
    bc.path_phase_jitter_rad = cfg.path_phase_jitter_rad;
    bc.polarization_deviation_rad = cfg.polarization_deviation_rad;
    m.burst = channel::generate_burst(m.paths, cfg.array, bc, rng);
    // Measured RSSI (signal + noise), as a real receiver would report —
    // at low SNR the noise floor flattens the weights.
    m.rssi_weight = channel::burst_rssi_weight(m.burst.csi);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace roarray::sim
