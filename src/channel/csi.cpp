#include "channel/csi.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/steering.hpp"
#include "linalg/backend/backend.hpp"

namespace roarray::channel {

using linalg::cxd;
using linalg::index_t;

namespace {

/// One draw of N(mean, sigma^2) for any sigma >= 0, from a unit normal.
/// std::normal_distribution requires sigma > 0 (libstdc++ asserts it
/// under _GLIBCXX_ASSERTIONS); libstdc++ computes its draws as
/// z * sigma + mean from the same unit draws, so with one `unit` per
/// former distribution object the values and the RNG stream are
/// unchanged bit for bit, and sigma == 0 yields the mean.
double normal_draw(std::normal_distribution<double>& unit,
                   std::mt19937_64& rng, double mean, double sigma) {
  return unit(rng) * sigma + mean;
}

}  // namespace

CMat synthesize_csi(const std::vector<Path>& paths, const dsp::ArrayConfig& cfg,
                    const CsiImpairments& imp) {
  cfg.validate();
  const index_t m = cfg.num_antennas;
  const index_t l = cfg.num_subcarriers;
  if (!imp.antenna_phase_offsets_rad.empty() &&
      static_cast<index_t>(imp.antenna_phase_offsets_rad.size()) != m) {
    throw std::invalid_argument("synthesize_csi: phase offset count != antennas");
  }
  if (imp.polarization_scale <= 0.0 || imp.polarization_scale > 1.0) {
    throw std::invalid_argument("synthesize_csi: polarization_scale must be in (0,1]");
  }

  CMat c(m, l);
  const auto& bk = linalg::backend::active();
  for (const Path& p : paths) {
    const cxd lam = dsp::lambda_aoa(p.aoa_deg, cfg.spacing_over_wavelength());
    const cxd gam = dsp::gamma_toa(p.toa_s + imp.detection_delay_s,
                                   cfg.subcarrier_spacing_hz);
    const cxd g = p.gain * imp.polarization_scale;
    cxd gl{1.0, 0.0};
    for (index_t sc = 0; sc < l; ++sc) {
      // Column sc accumulates (g gl) lam^ant over antennas: one backend
      // phase recurrence per (path, subcarrier) column.
      bk.phase_ramp_accum(g * gl, lam, m, c.data() + sc * m);
      gl *= gam;
    }
  }
  if (!imp.antenna_phase_offsets_rad.empty()) {
    for (index_t ant = 0; ant < m; ++ant) {
      const cxd rot = std::polar(1.0, imp.antenna_phase_offsets_rad[
          static_cast<std::size_t>(ant)]);
      for (index_t sc = 0; sc < l; ++sc) c(ant, sc) *= rot;
    }
  }
  if (!imp.antenna_gains.empty()) {
    if (static_cast<index_t>(imp.antenna_gains.size()) != m) {
      throw std::invalid_argument("synthesize_csi: antenna gain count != antennas");
    }
    for (index_t ant = 0; ant < m; ++ant) {
      const cxd g = imp.antenna_gains[static_cast<std::size_t>(ant)];
      for (index_t sc = 0; sc < l; ++sc) c(ant, sc) *= g;
    }
  }
  return c;
}

double mean_power(const CMat& csi) {
  if (csi.size() == 0) return 0.0;
  double acc = 0.0;
  for (index_t j = 0; j < csi.cols(); ++j)
    for (index_t i = 0; i < csi.rows(); ++i) acc += std::norm(csi(i, j));
  return acc / static_cast<double>(csi.size());
}

double burst_rssi_weight(std::span<const CMat> packets) {
  if (packets.empty()) return 0.0;
  double acc = 0.0;
  for (const CMat& csi : packets) acc += mean_power(csi);
  return acc / static_cast<double>(packets.size());
}

double add_noise(CMat& csi, double snr_db, std::mt19937_64& rng) {
  const double signal_power = mean_power(csi);
  const double noise_power = signal_power / std::pow(10.0, snr_db / 10.0);
  // Circularly symmetric: variance split evenly between re and im.
  const double sigma_component = std::sqrt(noise_power / 2.0);
  std::normal_distribution<double> n;
  for (index_t j = 0; j < csi.cols(); ++j) {
    for (index_t i = 0; i < csi.rows(); ++i) {
      const double re = normal_draw(n, rng, 0.0, sigma_component);
      const double im = normal_draw(n, rng, 0.0, sigma_component);
      csi(i, j) += cxd{re, im};
    }
  }
  return std::sqrt(noise_power);
}

PacketBurst generate_burst(const std::vector<Path>& paths,
                           const dsp::ArrayConfig& array_cfg,
                           const BurstConfig& cfg, std::mt19937_64& rng) {
  if (cfg.num_packets < 1) {
    throw std::invalid_argument("generate_burst: need at least one packet");
  }
  if (cfg.max_detection_delay_s < 0.0) {
    throw std::invalid_argument("generate_burst: negative detection delay bound");
  }
  std::uniform_real_distribution<double> delay(0.0, cfg.max_detection_delay_s);
  std::normal_distribution<double> jitter;

  // Polarization deviation: overall cos^2 power loss plus per-antenna
  // manifold distortion, fixed for the burst (the client does not move).
  std::vector<cxd> pol_gains;
  double pol_scale = 1.0;
  if (cfg.polarization_deviation_rad != 0.0) {
    const double dev = std::abs(cfg.polarization_deviation_rad);
    const double c = std::cos(dev);
    pol_scale = std::max(c * c, 0.05);
    const double distortion = std::sin(dev);
    std::normal_distribution<double> amp;
    std::normal_distribution<double> ph;
    pol_gains.resize(static_cast<std::size_t>(array_cfg.num_antennas));
    for (auto& g : pol_gains) {
      // Phase first: the order gcc evaluated the former one-expression
      // std::polar(amp, phase) call in (right to left), pinned here so
      // existing seeds keep their streams on every compiler.
      const double phase = normal_draw(ph, rng, 0.0, 1.2 * distortion);
      const double a = normal_draw(amp, rng, 0.0, 0.4 * distortion);
      g = std::polar(std::max(0.1, 1.0 + a), phase);
    }
  }

  PacketBurst out;
  out.csi.reserve(static_cast<std::size_t>(cfg.num_packets));
  out.detection_delays.reserve(static_cast<std::size_t>(cfg.num_packets));
  for (index_t p = 0; p < cfg.num_packets; ++p) {
    CsiImpairments imp;
    imp.detection_delay_s = cfg.max_detection_delay_s > 0.0 ? delay(rng) : 0.0;
    imp.antenna_phase_offsets_rad = cfg.antenna_phase_offsets_rad;
    imp.polarization_scale = cfg.polarization_scale * pol_scale;
    imp.antenna_gains = pol_gains;
    if (!cfg.antenna_gains.empty()) {
      if (imp.antenna_gains.empty()) {
        imp.antenna_gains = cfg.antenna_gains;
      } else {
        for (std::size_t a = 0; a < imp.antenna_gains.size(); ++a) {
          imp.antenna_gains[a] *= cfg.antenna_gains[a];
        }
      }
    }
    std::vector<Path> jittered = paths;
    if (cfg.path_phase_jitter_rad > 0.0) {
      for (Path& path : jittered) {
        path.gain *= std::polar(
            1.0, normal_draw(jitter, rng, 0.0, cfg.path_phase_jitter_rad));
      }
    }
    CMat c = synthesize_csi(jittered, array_cfg, imp);
    // snr_db targets the unattenuated channel: polarization losses eat
    // into the link budget instead of being silently compensated.
    const double total_scale = cfg.polarization_scale * pol_scale;
    const double effective_snr_db =
        cfg.snr_db + 20.0 * std::log10(std::max(total_scale, 1e-6));
    out.noise_sigma = add_noise(c, effective_snr_db, rng);
    out.csi.push_back(std::move(c));
    out.detection_delays.push_back(imp.detection_delay_s);
  }
  return out;
}

}  // namespace roarray::channel
