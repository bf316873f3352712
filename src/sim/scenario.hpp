// Scenario generation: produces the per-AP CSI measurement sets the
// figure benches and integration tests consume, with controlled SNR
// bands and ground truth attached.
#pragma once

#include <random>
#include <vector>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "dsp/constants.hpp"
#include "sim/testbed.hpp"

namespace roarray::sim {

/// The paper's three SNR regimes (Section IV-B).
enum class SnrBand {
  kHigh,    ///< >= 15 dB.
  kMedium,  ///< (2, 15) dB.
  kLow,     ///< <= 2 dB.
};

/// Human-readable band name ("high SNRs, >=15 dB", ...).
[[nodiscard]] const char* snr_band_name(SnrBand band);

/// Draws a per-AP SNR uniformly from the band's range
/// (high: [15, 25], medium: (2, 15), low: [-3, 2] dB).
[[nodiscard]] double sample_snr_db(SnrBand band, std::mt19937_64& rng);

/// The fixed shape of the adversarial corruptions below.
///
/// Angular half-width of the shadow a blocking obstruction casts: a
/// cabinet occludes a cone around the LoS, not just the geometric ray,
/// so every path within this many degrees of the direct AoA is erased
/// with it. This keeps the surviving strongest path — the AoA the
/// estimator locks onto — confidently wrong instead of letting a
/// scatterer sitting near the LoS line stand in for the direct path.
inline constexpr double kBlockedShadowDeg = 20.0;
/// Amplitude ratio (reflection : direct) the wrong-peak boost enforces.
/// 2.5 puts the direct's relative power at 0.16 — well under the
/// estimator's default 0.4 min_direct_rel_power gate.
inline constexpr double kWrongPeakBoost = 2.5;
/// Attenuation of a late (through-wall) direct path [dB].
inline constexpr double kToaBiasLossDb = 3.0;

/// Adversarial corruption injected on top of a scenario: the NLoS
/// failure modes the robust fusion layer (src/fusion/) defends against.
/// All modes default off; an inactive config draws nothing from the
/// round rng, so existing scenarios stay bit-identical. Which APs lie is
/// drawn deterministically from the round rng (blocked set first, then
/// the ToA-bias set among the remaining APs, then per-AP wrong-peak
/// coin flips), so a fixed seed always corrupts the same APs.
struct AdversarialConfig {
  /// APs whose direct path is erased outright (hard NLoS: a cabinet or
  /// wall fully shadows the LoS), together with every path inside the
  /// kBlockedShadowDeg cone around it. The AP still reports — through
  /// its reflections — so its AoA is confidently wrong, not merely
  /// noisy. Hard NLoS rarely costs much *total* power — the energy
  /// still arrives, just via reflections instead of the LoS — so the
  /// surviving reflections are renormalized to the pre-block total
  /// power: the blocked AP's wrong AoA keeps its full RSSI weight
  /// instead of flagging itself.
  int num_blocked_aps = 0;
  /// Per-AP probability that the strongest reflection is boosted to
  /// kWrongPeakBoost times the direct path's amplitude, so the direct's
  /// relative power falls below the estimator's min_direct_rel_power
  /// gate and the peak picker locks onto the reflection.
  double wrong_peak_probability = 0.0;
  /// APs whose direct path arrives late (through-wall propagation):
  /// only the direct path is delayed by toa_bias_s — an all-path shift
  /// would be removed wholesale by CSI sanitization — and attenuated by
  /// kToaBiasLossDb.
  int num_toa_bias_aps = 0;
  double toa_bias_s = 80e-9;

  [[nodiscard]] bool active() const {
    return num_blocked_aps > 0 || wrong_peak_probability > 0.0 ||
           num_toa_bias_aps > 0;
  }
};

/// Everything needed to simulate one client's measurement round.
struct ScenarioConfig {
  /// Defaults give a realistic indoor channel — up to second-order
  /// bounces plus scatterers — pruned so the *dominant* path count per
  /// link stays around the ~5 the paper observes (Section I). Without
  /// pruning, dozens of micro-paths survive, which no K <= 5 subspace
  /// model can represent.
  channel::MultipathConfig multipath{.max_reflections = 2,
                                     .reflection_loss = 0.55,
                                     .min_rel_amplitude = 0.14,
                                     .scatter_coeff = 0.4};
  dsp::ArrayConfig array;
  linalg::index_t num_packets = 15;
  /// Probability that a given (AP, client) direct path is obstructed by
  /// furniture/people, attenuating it by los_block_loss_db. A blocked
  /// direct path is often *not* the strongest anymore — the situation
  /// that separates smallest-ToA pickers from strongest-peak pickers.
  double los_block_probability = 0.25;
  double los_block_loss_db = 9.0;
  SnrBand snr_band = SnrBand::kHigh;
  double max_detection_delay_s = 100e-9;
  /// Per-antenna phase offsets applied at every AP (empty = calibrated).
  std::vector<double> antenna_phase_offsets_rad;
  double polarization_scale = 1.0;
  /// Per-packet path-phase decorrelation (see BurstConfig). The default
  /// mirrors the mild temporal variation of a real indoor deployment.
  double path_phase_jitter_rad = 0.3;
  /// Client-antenna polarization deviation (see BurstConfig).
  double polarization_deviation_rad = 0.0;
  /// Adversarial NLoS corruption (default: all modes off).
  AdversarialConfig adversarial;
};

/// CSI measurements from one AP for one client position, with ground
/// truth for evaluation.
struct ApMeasurement {
  ApPose pose;
  channel::PacketBurst burst;
  double snr_db = 0.0;            ///< SNR the burst was generated at.
  double rssi_weight = 0.0;       ///< linear received power (Eq. 19 weight).
  double true_direct_aoa_deg = 0.0;
  double true_direct_toa_s = 0.0;
  std::vector<channel::Path> paths;  ///< full ground-truth multipath.
  /// Which adversarial corruption (if any) hit this AP; truth above is
  /// always the *pristine* geometric direct path, so evaluation measures
  /// error against reality, not against the corruption.
  bool adversarial_blocked = false;
  bool adversarial_wrong_peak = false;
  bool adversarial_toa_bias = false;
};

/// Simulates one measurement round: every AP in the testbed hears the
/// client through its own multipath channel at a band-sampled SNR.
[[nodiscard]] std::vector<ApMeasurement> generate_measurements(
    const Testbed& testbed, const Vec2& client, const ScenarioConfig& cfg,
    std::mt19937_64& rng);

/// Scenario preset for an SNR band. In a real deployment low SNR is not
/// an independent knob — links are weak *because* they are blocked or
/// far — so the preset couples the band with matching LoS-blockage
/// severity (high: 0.15/6 dB, medium: 0.35/9 dB, low: 0.6/12 dB).
[[nodiscard]] ScenarioConfig scenario_for_band(SnrBand band);

}  // namespace roarray::sim
