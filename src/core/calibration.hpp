// Phase autocalibration (paper Section III-D "Phase calibration").
//
// Channel changes introduce a random static phase offset per receive
// chain; uncorrected, these offsets corrupt every AoA estimate. Like
// Phaser, calibration searches per-antenna offsets that maximize the
// concentration of an AoA spectrum at a known calibration direction (a
// transmitter at a surveyed spot — offsets alone are gauge-ambiguous: a
// linear phase ramp (0, a, 2a) across a ULA only *shifts* every AoA, so
// some reference direction is required to pin the gauge). The paper's
// Fig. 8b ablation is about *which* spectrum drives the search:
// ROArray's sparse spectrum is sharper than MUSIC's, so the objective is
// better conditioned and the offsets are identified more precisely.
#pragma once

#include <span>
#include <vector>

#include "dsp/constants.hpp"
#include "linalg/matrix.hpp"

namespace roarray::core {

/// Which AoA spectrum drives the sharpness objective.
enum class CalibrationMethod {
  kRoArray,  ///< sparse-recovery spectrum (this paper).
  kMusic,    ///< MUSIC spectrum (Phaser's original choice).
};

/// The search grid, refinement depth, solver budget and packet count
/// are fixed (calibration.cpp); only the driving spectrum is chosen.
struct CalibrationConfig {
  CalibrationMethod method = CalibrationMethod::kRoArray;
};

struct CalibrationResult {
  /// Estimated per-antenna offsets in radians; offsets_rad[0] == 0
  /// (the first chain is the phase reference).
  std::vector<double> offsets_rad;
  double sharpness = 0.0;  ///< objective value at the optimum.
};

/// Removes known/estimated offsets: antenna m is rotated by
/// exp(-j offsets[m]). Inverse of the impairment model.
[[nodiscard]] linalg::CMat apply_phase_correction(
    const linalg::CMat& csi, std::span<const double> offsets_rad);

/// Estimates per-antenna phase offsets from calibration packets whose
/// direct path arrives from the known direction `known_aoa_deg`, by grid
/// search + refinement on the objective P(known_aoa) / mean(P). Throws
/// std::invalid_argument when there are no packets or the array has more
/// than 4 antennas (the search is exponential in antennas; the paper's
/// hardware has 3).
[[nodiscard]] CalibrationResult estimate_phase_offsets(
    std::span<const linalg::CMat> packets, double known_aoa_deg,
    const dsp::ArrayConfig& array_cfg, const CalibrationConfig& cfg = {});

}  // namespace roarray::core
