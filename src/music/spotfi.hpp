// SpotFi baseline (Kotaru et al., SIGCOMM 2015): per-packet smoothed
// joint (AoA, ToA) MUSIC, peak extraction, and across-packet clustering
// with a likelihood-weighted direct-path pick. This is the non-coherent
// packet processing the paper contrasts with ROArray's fusion.
#pragma once

#include <span>
#include <vector>

#include "dsp/grid.hpp"
#include "dsp/spectrum.hpp"
#include "music/cluster.hpp"
#include "music/music.hpp"
#include "music/smoothing.hpp"

namespace roarray::music {

/// One (AoA, ToA) path candidate from a packet's MUSIC spectrum.
struct PathCandidate {
  double aoa_deg = 0.0;
  double toa_s = 0.0;
  double power = 0.0;   ///< normalized spectrum power of the peak.
  index_t packet = 0;   ///< which packet produced it.
};

/// The options a caller sets. The grids (91 AoA x 50 ToA points), the
/// 2 x 15 smoothing window, forward-backward averaging, the 100 ns
/// sanitize rebias, five peaks per packet and the direct-path
/// likelihood weights are fixed in spotfi.cpp.
struct SpotfiConfig {
  /// Maximum source count, clamped internally to the snapshot dimension
  /// minus one. SpotFi hardwires K = 5 (paper footnote 8); the default
  /// here is a little higher because under-modeling a rich channel
  /// (true paths > K) shifts and fabricates peaks — set 5 to reproduce
  /// the strict historical behavior.
  index_t num_paths = 8;
  /// When true (default), the per-packet K is estimated by MDL and
  /// capped at num_paths, which keeps the baseline as strong as its
  /// published high-SNR numbers. Set false to reproduce the strict
  /// fixed-K behavior the paper criticizes (footnote 8) — with too-large
  /// K the spectrum grows spurious peaks.
  bool adaptive_order = true;
  /// Peaks within this many degrees of endfire (0 / 180) are discarded:
  /// the ULA manifold degenerates there and MUSIC piles spurious energy
  /// onto the grid edges.
  double edge_exclusion_deg = 4.0;
  /// Sanitize (detrend detection delay) before smoothing, as SpotFi does.
  bool sanitize = true;
  /// Clusters lighter than this fraction of the heaviest cluster cannot
  /// be the direct path: spectrum sidelobes can form consistent (and
  /// hence low-variance, early-ToA) clusters, but they stay weak.
  double min_cluster_weight_ratio = 0.3;
};

struct SpotfiResult {
  double direct_aoa_deg = 0.0;
  double direct_toa_s = 0.0;
  bool valid = false;
  std::vector<PathCandidate> candidates;  ///< pooled per-packet peaks.
  std::vector<Cluster> clusters;          ///< in normalized feature space.
  index_t direct_cluster = -1;            ///< index into clusters.
  dsp::Spectrum2d first_packet_spectrum;  ///< kept when keep_spectrum.
};

/// Runs the full SpotFi pipeline on a burst of CSI packets.
/// Set keep_spectrum to retain the first packet's joint spectrum (used
/// by the figure benches; costs memory, not accuracy).
[[nodiscard]] SpotfiResult spotfi_estimate(std::span<const CMat> packets,
                                           const SpotfiConfig& cfg,
                                           const dsp::ArrayConfig& array_cfg,
                                           bool keep_spectrum = false);

}  // namespace roarray::music
