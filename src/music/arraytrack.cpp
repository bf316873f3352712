#include "music/arraytrack.hpp"

#include <algorithm>
#include <stdexcept>

#include "music/covariance.hpp"
#include "music/model_order.hpp"

namespace roarray::music {

using linalg::cxd;

namespace {

/// Maximum source count, clamped to M - 1: ArrayTrack's tiny aperture
/// resolves at most M - 1 = 2 paths. The per-packet count is estimated
/// by MDL and capped here — forcing K too high on an effectively rank-1
/// channel yields spurious dominant peaks.
constexpr index_t kNumPaths = 2;

/// ArrayTrack predates per-subcarrier CSI processing: it works on a
/// short run of preamble time samples, not on 30 independent subcarrier
/// snapshots (exploiting those is SpotFi's contribution). This is
/// modelled by coherently averaging consecutive subcarriers into this
/// many snapshots per packet.
constexpr index_t kSnapshotsPerPacket = 5;

}  // namespace

ArrayTrackResult arraytrack_estimate(std::span<const CMat> packets,
                                     const dsp::ArrayConfig& array_cfg) {
  if (packets.empty()) {
    throw std::invalid_argument("arraytrack_estimate: no packets");
  }
  const index_t m = array_cfg.num_antennas;
  const index_t l = array_cfg.num_subcarriers;
  const dsp::Grid aoa_grid(0.0, 180.0, 181);

  // ArrayTrack is a per-packet pipeline: each packet's subcarriers form
  // the snapshots of one M x M covariance, one MUSIC pseudo-spectrum is
  // computed per packet, and the per-packet spectra are averaged. (At
  // low SNR the per-packet subspace estimates individually degrade —
  // the behavior the paper measures — unlike a single covariance pooled
  // over the whole burst, which would average the noise away.)
  ArrayTrackResult out;
  out.spectrum.grid = aoa_grid;
  out.spectrum.values = linalg::RVec(aoa_grid.size());
  const index_t groups = std::clamp<index_t>(kSnapshotsPerPacket, 1, l);
  const index_t k_max = std::clamp<index_t>(kNumPaths, 1, m - 1);
  for (const CMat& csi : packets) {
    if (csi.rows() != m || csi.cols() != l) {
      throw std::invalid_argument("arraytrack_estimate: CSI shape mismatch");
    }
    // Coherently average consecutive subcarriers into `groups` snapshots
    // (preamble time-sample model; see kSnapshotsPerPacket).
    CMat snapshots(m, groups);
    for (index_t g = 0; g < groups; ++g) {
      const index_t lo = g * l / groups;
      const index_t hi = (g + 1) * l / groups;
      for (index_t a = 0; a < m; ++a) {
        cxd acc{};
        for (index_t s = lo; s < hi; ++s) acc += csi(a, s);
        snapshots(a, g) =
            acc / static_cast<double>(std::max<index_t>(1, hi - lo));
      }
    }
    const CMat r = forward_backward_average(sample_covariance(snapshots));

    const auto eg = linalg::eig_hermitian(r);
    const index_t mdl = estimate_model_order(eg.eigenvalues, groups);
    const index_t k = std::clamp<index_t>(mdl, 1, k_max);
    const dsp::Spectrum1d spec = music_spectrum_aoa(r, k, aoa_grid, array_cfg);
    for (index_t i = 0; i < aoa_grid.size(); ++i) {
      out.spectrum.values[i] += spec.values[i];
    }
  }
  out.spectrum.normalize();
  out.peaks = out.spectrum.find_peaks(/*max_peaks=*/kNumPaths + 1,
                                      /*min_rel_height=*/0.05,
                                      /*min_separation=*/2);
  if (!out.peaks.empty()) {
    // Strongest peak = direct path.
    out.direct_aoa_deg = out.peaks.front().aoa_deg;
    out.valid = true;
  }
  return out;
}

}  // namespace roarray::music
