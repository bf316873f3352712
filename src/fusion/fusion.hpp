// Robust NLoS-aware multi-AP fusion: turns per-AP (AoA, ToA, RSSI
// weight) observations into one position fix that degrades gracefully
// when some APs lie (blocked direct path, wrong spectral peak picked,
// positively biased ToA) instead of cliffing the way a plain
// RSSI-weighted average does.
//
// Model. Against a position hypothesis x each AP i contributes a
// geometric consistency residual, measured in *angle*:
//
//     r_i(x) = hypot( phi_i(x) - phi_hat_i,                      [AoA, deg]
//                     (w_toa * c * max(0, dtoa_i - slack)) / d_i )  [ToA]
//
// where d_i is the AP-to-x distance, phi_i(x) the AoA the AP would see
// for a target at x, and dtoa_i the AP's reported direct-path ToA
// excess over the round median. Angle is the natural residual domain:
// the estimator's AoA noise is (to first order) constant per AP in
// angle, so degree-denominated loss scales and inlier thresholds treat
// near and far APs alike — a meter-scale (arc-length) residual would
// grow with d_i and systematically over-reject distant honest APs.
// The Gauss-Newton rows are still formed on the arc-length residual
// d_i * dphi (finite at endfire, where the pure angular gradient blows
// up) with a 1/d_i^2 maximum-likelihood weight, which minimizes exactly
// the weighted angular objective. The ToA term is the explicit NLoS
// positive-bias model: the estimator's sanitization step removes
// absolute range information from the reported ToA (DESIGN.md §13), so
// a late ToA cannot place the client — but it is a strong one-sided
// symptom of a wrong peak / blocked path, and it downweights an AP even
// when its (wrong) AoA happens to look consistent. The slack-thresholded
// excess is reported per AP as the estimated bias.
//
// Solver. IRLS with a Huber loss over r_i: each iteration takes one
// Gauss-Newton step on the robust-weighted AoA residuals (the ToA term
// is independent of x and only shapes the weights). When the converged
// solution explains too few APs (inlier fraction below
// kMinInlierFraction) a RANSAC-style hypothesis stage runs:
// bearing-ray intersections of minimal AP pairs (both ULA mirror folds)
// are scored by consensus, and the best hypothesis is IRLS-polished;
// the candidate explaining more APs (ties: lower robust cost) wins.
//
// Determinism contract. Every quantity is a pure function of the
// observation list: fixed loss scales (no data-driven sigma), fixed
// iteration caps, exhaustive pair enumeration up to
// kMaxHypothesisPairs and a seeded shuffle beyond it. With every
// residual inside the Huber band the weights are exactly 1.0, so the
// solve is bit-identical to plain weighted Gauss-Newton on the same
// data.
#pragma once

#include <span>
#include <vector>

#include "channel/geometry.hpp"

namespace roarray::fusion {

using channel::ApPose;
using channel::Room;
using channel::Vec2;

/// One AP's contribution to the fusion problem.
struct Observation {
  ApPose pose;
  double aoa_deg = 0.0;  ///< estimated direct-path AoA, [0, 180].
  /// Estimated direct-path ToA. Only the excess over the round median
  /// is used (see the file comment); has_toa gates the term entirely
  /// (AoA-only estimators like ArrayTrack feed has_toa = false).
  double toa_s = 0.0;
  bool has_toa = false;
  double weight = 1.0;  ///< RSSI-derived weight (linear power, relative).
};

/// The fusion layer's fixed settings. The IRLS loop, the ToA bias
/// model and the RANSAC trigger are the same for every caller.
///
/// Huber band half-width [deg]: residuals inside it get IRLS weight
/// exactly 1.0.
inline constexpr double kHuberDeltaDeg = 4.0;
/// ToA positive-bias model: excess over the round-median ToA beyond
/// this slack counts as estimated NLoS bias (the slack absorbs the
/// per-AP channel-delay-spread variation sanitization leaves behind).
inline constexpr double kToaSlackS = 40e-9;
/// Scale on the ToA excess inside the combined residual.
inline constexpr double kToaExcessWeight = 0.5;
/// The excess needs this many APs reporting ToA (a median over fewer
/// is meaningless).
inline constexpr int kToaMinObservations = 3;
/// IRLS / Gauss-Newton loop: iteration cap, step-norm early exit [m]
/// and per-iteration step clamp [m].
inline constexpr int kIrlsMaxIterations = 30;
inline constexpr double kIrlsToleranceM = 1e-6;
inline constexpr double kIrlsMaxStepM = 3.0;
/// An AP is an inlier when its combined angular residual is at most
/// this many degrees.
inline constexpr double kInlierResidualDeg = 10.0;
/// IRLS solutions explaining a smaller inlier fraction than this
/// trigger the RANSAC hypothesis stage.
inline constexpr double kMinInlierFraction = 0.6;

/// The fusion layer has no settings (see the constants above). The
/// empty type keeps fuse_robust's signature, and LocalizeConfig's
/// `fusion` member, stable for existing callers.
struct FusionConfig {};

/// Why the robust path did (or did not) deliver a refined fix.
enum class FusionFallback {
  kNone,             ///< IRLS from the caller's initial fix was kept.
  kRansac,           ///< low inlier fraction; a RANSAC hypothesis won.
  kRansacNoGain,     ///< RANSAC ran but no hypothesis beat the IRLS fix.
  kDegenerate,       ///< Gauss-Newton had no usable geometry; initial
                     ///< fix returned unrefined.
};

[[nodiscard]] const char* fusion_fallback_name(FusionFallback f) noexcept;

/// Per-observation diagnostics, index-aligned with the input span.
struct ApDiagnostics {
  bool inlier = false;          ///< residual_deg <= kInlierResidualDeg.
  double residual_deg = 0.0;    ///< combined angular residual at the fix.
  double residual_m = 0.0;      ///< same misfit as arc length at d_i [m].
  double aoa_residual_deg = 0.0;  ///< signed AoA misfit at the final fix.
  /// Estimated NLoS positive ToA bias (slack-thresholded excess over
  /// the round median); 0 when has_toa is false or fewer than
  /// kToaMinObservations APs report ToA.
  double toa_bias_s = 0.0;
  double robust_weight = 0.0;   ///< final IRLS (Huber) weight, in [0, 1].
};

struct FusionReport {
  Vec2 position;
  double cost = 0.0;        ///< total robust cost at `position`.
  bool converged = false;   ///< IRLS step norm fell below kIrlsToleranceM.
  int iterations = 0;       ///< IRLS iterations of the winning solve.
  bool used_ransac = false; ///< the hypothesis stage was entered.
  FusionFallback fallback = FusionFallback::kNone;
  int inliers = 0;          ///< observations flagged inlier.
  std::vector<ApDiagnostics> per_ap;  ///< one per input observation.
};

/// Robust fusion entry point. `initial` seeds the IRLS loop (callers
/// pass the naive weighted grid fix); the result is clamped to `room`.
/// Requires at least 2 observations with finite AoA and positive finite
/// weight (throws std::invalid_argument otherwise — loc::localize
/// screens its inputs before calling). Deterministic: see the file
/// comment. Never called with a lock held (lock_order.txt entrypoint).
[[nodiscard]] FusionReport fuse_robust(std::span<const Observation> observations,
                                       const Room& room, const Vec2& initial,
                                       const FusionConfig& cfg);

}  // namespace roarray::fusion
