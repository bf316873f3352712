// CSI synthesis: turns multipath geometry into the complex M x L channel
// matrices an Intel-5300-like receiver would report (paper Eq. 4).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "channel/multipath.hpp"
#include "dsp/constants.hpp"
#include "linalg/matrix.hpp"

namespace roarray::channel {

using linalg::CMat;

/// Hardware / capture impairments applied to a synthesized CSI matrix.
struct CsiImpairments {
  /// Packet detection delay: an unknown per-packet time offset added to
  /// every path's ToA (the paper's Fig. 4 nuisance). Seconds.
  double detection_delay_s = 0.0;
  /// Per-antenna static phase offsets in radians (size M; empty = none).
  /// These are the offsets phase calibration must undo.
  std::vector<double> antenna_phase_offsets_rad;
  /// Amplitude scale from antenna polarization mismatch, in (0, 1].
  double polarization_scale = 1.0;
  /// Arbitrary per-antenna complex gains (size M; empty = unity).
  /// Models manifold distortion, e.g. the per-element polarization
  /// response mismatch of a tilted client antenna (paper Fig. 8c).
  std::vector<cxd> antenna_gains;
};

/// Noiseless CSI matrix (M x L) for the given paths:
/// C(m, l) = sum_k a_k * Lambda(theta_k)^m * Gamma(toa_k + delay)^l
///           * exp(j beta_m) * polarization_scale.
[[nodiscard]] CMat synthesize_csi(const std::vector<Path>& paths,
                                  const dsp::ArrayConfig& cfg,
                                  const CsiImpairments& imp = {});

/// Adds circularly-symmetric complex Gaussian noise so the resulting
/// per-element SNR equals snr_db (relative to the mean signal power of
/// `csi`). Returns the noise standard deviation that was used.
double add_noise(CMat& csi, double snr_db, std::mt19937_64& rng);

/// Mean per-element signal power of a CSI matrix.
[[nodiscard]] double mean_power(const CMat& csi);

/// Burst-level RSSI fusion weight: the mean of mean_power over the
/// packets, accumulated in packet order. This exact expression (same
/// order, same division) is shared by simulation and replay so the
/// localization weights are bit-identical either way; 0 for an empty
/// burst.
[[nodiscard]] double burst_rssi_weight(std::span<const CMat> packets);

/// A burst of CSI measurements from consecutive packets, each with its
/// own detection delay and noise realization but shared geometry.
struct PacketBurst {
  std::vector<CMat> csi;                 ///< one M x L matrix per packet.
  std::vector<double> detection_delays;  ///< ground-truth per-packet delays.
  double noise_sigma = 0.0;              ///< per-element noise std used.
};

/// Parameters for generating a burst of packets.
struct BurstConfig {
  linalg::index_t num_packets = 15;
  double snr_db = 20.0;
  /// Detection delays are drawn uniformly from [0, max_detection_delay_s].
  double max_detection_delay_s = 100e-9;
  std::vector<double> antenna_phase_offsets_rad;  ///< static per-AP offsets.
  /// Static per-antenna complex gains (empty = unity), e.g. receive-chain
  /// gain imbalance. Composed with any polarization-induced gains.
  std::vector<cxd> antenna_gains;
  double polarization_scale = 1.0;
  /// Std-dev of a per-packet, per-path Gaussian phase perturbation
  /// [rad]. Models the slow temporal decorrelation real channels show
  /// across packets (residual CFO/SFO, micro-mobility); 0 = a perfectly
  /// static, fully coherent channel.
  double path_phase_jitter_rad = 0.0;
  /// Client-antenna polarization deviation from the AP polarization
  /// plane [rad]. Nonzero deviation both attenuates the received power
  /// (cos^2 law) and perturbs the per-AP-antenna gains (drawn once per
  /// burst), distorting the 1-D array manifold — the failure mode the
  /// paper's Fig. 8c measures.
  double polarization_deviation_rad = 0.0;
};

/// Generates `cfg.num_packets` CSI measurements of the same multipath
/// channel with independent detection delays and noise.
[[nodiscard]] PacketBurst generate_burst(const std::vector<Path>& paths,
                                         const dsp::ArrayConfig& array_cfg,
                                         const BurstConfig& cfg,
                                         std::mt19937_64& rng);

}  // namespace roarray::channel
