#include "music/spotfi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/sanitize.hpp"
#include "music/covariance.hpp"
#include "music/model_order.hpp"

namespace roarray::music {

namespace {

constexpr index_t kMaxPeaksPerPacket = 5;
/// Delay sanitize_csi adds back after detrending (as in roarray_estimate).
constexpr double kRebiasDelayS = 100e-9;

/// Direct-path likelihood weights over normalized cluster features
/// (AoA normalized by 180 deg, ToA by the grid span):
/// l = kWWeight*log(1+weight) - kWAoaVar*var_aoa - kWToaVar*var_toa
///     - kWToaMean*mean_toa.
constexpr double kWWeight = 0.2;
constexpr double kWAoaVar = 10.0;
constexpr double kWToaVar = 10.0;
constexpr double kWToaMean = 12.0;

}  // namespace

SpotfiResult spotfi_estimate(std::span<const CMat> packets,
                             const SpotfiConfig& cfg,
                             const dsp::ArrayConfig& array_cfg,
                             bool keep_spectrum) {
  if (packets.empty()) throw std::invalid_argument("spotfi_estimate: no packets");

  const dsp::Grid aoa_grid(0.0, 180.0, 91);
  const dsp::Grid toa_grid(0.0, 784e-9, 50);
  // SpotFi's window for the Intel 5300: 2 of 3 antennas, 15 of 30
  // subcarriers (the SmoothingConfig defaults).
  const SmoothingConfig smoothing;

  SpotfiResult out;
  const double toa_span = std::max(toa_grid.hi() - toa_grid.lo(), 1e-12);

  for (std::size_t p = 0; p < packets.size(); ++p) {
    CMat csi = packets[p];
    if (cfg.sanitize) {
      csi = dsp::sanitize_csi(csi, array_cfg, kRebiasDelayS).csi;
    }
    const CMat snapshots = smooth_csi(csi, smoothing);
    const CMat r = forward_backward_average(sample_covariance(snapshots));

    const index_t dim = r.rows();
    index_t k = std::clamp<index_t>(cfg.num_paths, 1, dim - 1);
    // One decomposition per packet serves the MDL pick and the noise
    // subspace.
    const linalg::EigResult eg = linalg::eig_hermitian(r);
    if (cfg.adaptive_order) {
      const index_t mdl = estimate_model_order(eg.eigenvalues, snapshots.cols());
      k = std::clamp<index_t>(mdl, 1, k);
    }
    const dsp::Spectrum2d spec = music_spectrum_joint(
        eg, k, aoa_grid, toa_grid, array_cfg, smoothing.sub_antennas,
        smoothing.sub_carriers);
    if (keep_spectrum && p == 0) out.first_packet_spectrum = spec;

    const auto peaks = spec.find_peaks(kMaxPeaksPerPacket,
                                       /*min_rel_height=*/0.1,
                                       /*min_sep_aoa=*/2, /*min_sep_toa=*/2);
    for (const dsp::Peak& pk : peaks) {
      if (pk.aoa_deg < cfg.edge_exclusion_deg ||
          pk.aoa_deg > 180.0 - cfg.edge_exclusion_deg) {
        continue;  // endfire artifact region
      }
      PathCandidate c;
      c.aoa_deg = pk.aoa_deg;
      c.toa_s = pk.toa_s;
      c.power = pk.value;
      c.packet = static_cast<index_t>(p);
      out.candidates.push_back(c);
    }
  }
  if (out.candidates.empty()) return out;

  // Cluster pooled candidates in normalized (AoA, ToA) space.
  std::vector<FeaturePoint> pts;
  pts.reserve(out.candidates.size());
  for (const PathCandidate& c : out.candidates) {
    FeaturePoint f;
    f.x = c.aoa_deg / 180.0;
    f.y = (c.toa_s - toa_grid.lo()) / toa_span;
    f.weight = c.power;
    pts.push_back(f);
  }
  out.clusters = kmeans(pts, cfg.num_paths);
  if (out.clusters.empty()) return out;

  // SpotFi's direct-path likelihood: heavy, stable, early clusters win.
  double max_weight = 0.0;
  for (const Cluster& cl : out.clusters) {
    max_weight = std::max(max_weight, cl.total_weight);
  }
  double best_score = 0.0;
  index_t best = -1;
  for (std::size_t c = 0; c < out.clusters.size(); ++c) {
    const Cluster& cl = out.clusters[c];
    if (cl.total_weight < cfg.min_cluster_weight_ratio * max_weight) continue;
    const double score = kWWeight * std::log1p(cl.total_weight) -
                         kWAoaVar * cl.var_x - kWToaVar * cl.var_y -
                         kWToaMean * cl.cy;
    if (best < 0 || score > best_score) {
      best_score = score;
      best = static_cast<index_t>(c);
    }
  }
  const Cluster& win = out.clusters[static_cast<std::size_t>(best)];
  out.direct_cluster = best;
  out.direct_aoa_deg = win.cx * 180.0;
  out.direct_toa_s = toa_grid.lo() + win.cy * toa_span;
  out.valid = true;
  return out;
}

}  // namespace roarray::music
