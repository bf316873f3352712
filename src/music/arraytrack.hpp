// ArrayTrack baseline (Xiong & Jamieson, NSDI 2013): spatial-only MUSIC
// on the raw antenna array. Following the paper's comparison setup, it
// is implemented for the same 3-antenna hardware (Section IV-A: "we
// implement its algorithms using the aforementioned hardware settings").
// Without client/AP motion, the direct path is taken as the strongest
// spectrum peak — exactly the limitation the paper calls out.
#pragma once

#include <span>

#include "dsp/grid.hpp"
#include "dsp/spectrum.hpp"
#include "music/music.hpp"

namespace roarray::music {

struct ArrayTrackResult {
  dsp::Spectrum1d spectrum;       ///< packet-averaged AoA pseudo-spectrum.
  std::vector<dsp::Peak> peaks;   ///< detected AoA peaks, strongest first.
  double direct_aoa_deg = 0.0;    ///< strongest peak (ArrayTrack's pick).
  bool valid = false;             ///< false if no peak was found.
};

/// Runs ArrayTrack on a burst of CSI packets (each M x L): one MUSIC
/// pseudo-spectrum per packet on the 1-degree AoA grid, averaged over
/// the burst. The model (subcarrier-averaged snapshots, MDL-capped
/// source count, forward-backward averaging) is fixed in arraytrack.cpp.
[[nodiscard]] ArrayTrackResult arraytrack_estimate(std::span<const CMat> packets,
                                                   const dsp::ArrayConfig& array_cfg);

}  // namespace roarray::music
