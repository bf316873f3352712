#include "fusion/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dsp/angles.hpp"
#include "dsp/constants.hpp"
#include "fusion/loss.hpp"
#include "fusion/ransac.hpp"

namespace roarray::fusion {

namespace {

/// Observations closer than this to the hypothesis are geometrically
/// degenerate (AoA undefined on top of an AP) and skipped.
constexpr double kMinApDistanceM = 1e-6;

/// Per-observation residual decomposition at one position hypothesis.
struct Residual {
  bool usable = false;        ///< false when x sits on the AP.
  double aoa_m = 0.0;         ///< signed arc-length AoA misfit [m].
  double aoa_deg = 0.0;       ///< signed angular misfit [deg].
  double combined_m = 0.0;    ///< hypot(aoa_m, toa term) [m], for reports.
  double combined_deg = 0.0;  ///< angular combined residual [deg] — the
                              ///< quantity the loss and inlier gate see.
  double dist_m = 0.0;        ///< AP-to-hypothesis distance.
  Vec2 grad;                  ///< d(aoa_m)/dx (Gauss-Newton row).
};

/// Slack-thresholded ToA excess over the round median, in seconds, one
/// entry per observation (0 for an AP without a finite ToA, and for
/// every AP when fewer than kToaMinObservations report one). This is
/// the NLoS positive-bias estimate: independent of the position
/// hypothesis, it only shapes the robust weights and the report.
std::vector<double> toa_bias_estimates(std::span<const Observation> obs) {
  std::vector<double> bias(obs.size(), 0.0);
  std::vector<double> toas;
  toas.reserve(obs.size());
  for (const Observation& o : obs) {
    if (o.has_toa && std::isfinite(o.toa_s)) toas.push_back(o.toa_s);
  }
  if (static_cast<int>(toas.size()) < kToaMinObservations) return bias;
  // Median by partial sort; lower median for even counts keeps the
  // reference pessimistic (an early reference can only increase the
  // one-sided excess of late reporters, never hide one).
  const std::size_t mid = (toas.size() - 1) / 2;
  std::nth_element(toas.begin(), toas.begin() + static_cast<std::ptrdiff_t>(mid),
                   toas.end());
  const double median = toas[mid];
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (!obs[i].has_toa || !std::isfinite(obs[i].toa_s)) continue;
    bias[i] = std::max(0.0, obs[i].toa_s - median - kToaSlackS);
  }
  return bias;
}

/// Evaluates one observation's residual and its Gauss-Newton row at x.
/// `toa_excess_m` is the (x-independent) meters-scaled ToA excess term.
Residual eval_residual(const Observation& o, const Vec2& x,
                       double toa_excess_m) {
  Residual r;
  const Vec2 rel = x - o.pose.position;
  const double d = rel.norm();
  if (d < kMinApDistanceM) return r;
  r.usable = true;
  r.dist_m = d;
  const Vec2 u = rel * (1.0 / d);
  const Vec2 axis = o.pose.axis_unit();
  const double c = std::clamp(u.dot(axis), -1.0, 1.0);
  const double phi_deg = dsp::rad_to_deg(std::acos(c));
  // Both angles live in [0, 180], so the plain difference is already
  // the signed misfit; no wrap needed.
  r.aoa_deg = phi_deg - o.aoa_deg;
  const double dphi_rad = dsp::deg_to_rad(r.aoa_deg);
  r.aoa_m = d * dphi_rad;
  r.combined_m = std::hypot(r.aoa_m, toa_excess_m);
  // The ToA excess folds in as the angle it would subtend at this AP's
  // distance, so the combined residual lives entirely in degrees.
  r.combined_deg = std::hypot(r.aoa_deg, dsp::rad_to_deg(toa_excess_m / d));
  // grad(d * dphi) = u * dphi + d * grad(phi), with
  // grad(phi) = -(axis - c u) / (d sqrt(1 - c^2)). Near endfire the
  // angular gradient blows up; the range-direction term alone still
  // gives a finite, correct descent row there.
  const double s2 = 1.0 - c * c;
  Vec2 g = u * dphi_rad;
  if (s2 > 1e-12) {
    const double inv_s = 1.0 / std::sqrt(s2);
    g = g - (axis - u * c) * inv_s;
  }
  r.grad = g;
  return r;
}

/// A scored position. Candidates are ranked by consensus size first and
/// *truncated* robust cost second (each residual capped at the inlier
/// threshold before rho, MSAC-style): an outlier contributes the same
/// saturated amount to every candidate, so fitting the inliers tighter
/// always ranks better — ranking by the full robust cost would let a
/// far outlier's unbounded Huber tail veto an exact inlier fit. The
/// full robust cost is still carried for reporting.
struct Scored {
  Vec2 x;
  int inliers = 0;
  double cost = 0.0;       ///< full robust cost (FusionReport::cost).
  double trunc_cost = 0.0; ///< ranking cost, residuals saturated.
};

[[nodiscard]] bool strictly_better(const Scored& a, const Scored& b) noexcept {
  if (a.inliers != b.inliers) return a.inliers > b.inliers;
  return a.trunc_cost < b.trunc_cost;
}

class Problem {
 public:
  Problem(std::span<const Observation> obs, const Room& room)
      : obs_(obs), room_(room), toa_bias_(toa_bias_estimates(obs)) {}

  [[nodiscard]] double toa_excess_m(std::size_t i) const {
    return kToaExcessWeight * dsp::kSpeedOfLight * toa_bias_[i];
  }

  [[nodiscard]] const std::vector<double>& toa_bias() const { return toa_bias_; }

  /// Gauss-Newton statistical weight of observation i: the caller's
  /// RSSI weight scaled by 1/d^2. AoA noise is (to first order) constant
  /// per AP in *angle*, so the meter-scale arc residual d*dphi the GN
  /// rows are built on has variance growing with d^2 — the ML weight
  /// makes the quadratic objective exactly the weighted *angular* misfit
  /// sum, matching the degree-denominated robust loss and the naive
  /// grid's objective.
  [[nodiscard]] static double stat_weight(const Observation& o,
                                          const Residual& r) {
    return o.weight / (r.dist_m * r.dist_m);
  }

  /// Robust consensus score of a position over every observation. Cost
  /// units are RSSI-weighted deg^2-ish (rho of the angular residual):
  /// in the quadratic band this is the naive grid objective.
  [[nodiscard]] Scored score(const Vec2& x) const {
    Scored s;
    s.x = x;
    for (std::size_t i = 0; i < obs_.size(); ++i) {
      const Residual r = eval_residual(obs_[i], x, toa_excess_m(i));
      if (!r.usable) continue;
      const double w = obs_[i].weight;
      s.cost += w * huber_rho(r.combined_deg, kHuberDeltaDeg);
      s.trunc_cost +=
          w * huber_rho(std::min(r.combined_deg, kInlierResidualDeg),
                        kHuberDeltaDeg);
      if (r.combined_deg <= kInlierResidualDeg) ++s.inliers;
    }
    return s;
  }

  /// Inlier mask at `x` (1 = angular residual within the threshold).
  [[nodiscard]] std::vector<char> inlier_mask(const Vec2& x) const {
    std::vector<char> mask(obs_.size(), 0);
    for (std::size_t i = 0; i < obs_.size(); ++i) {
      const Residual r = eval_residual(obs_[i], x, toa_excess_m(i));
      mask[i] = r.usable && r.combined_deg <= kInlierResidualDeg ? 1 : 0;
    }
    return mask;
  }

  struct IrlsResult {
    Vec2 x;
    int iterations = 0;
    bool converged = false;
    bool degenerate = false;  ///< no usable Gauss-Newton system at all.
  };

  /// IRLS from `start` over the observations whose index passes
  /// `active` (nullptr = all). Deterministic: fixed caps and scales.
  [[nodiscard]] IrlsResult irls(const Vec2& start,
                                const std::vector<char>* active) const {
    IrlsResult out;
    out.x = clamp_to_room(start);
    bool ever_solved = false;
    for (int it = 0; it < kIrlsMaxIterations; ++it) {
      double sxx = 0.0, sxy = 0.0, syy = 0.0, bx = 0.0, by = 0.0;
      for (std::size_t i = 0; i < obs_.size(); ++i) {
        if (active != nullptr && (*active)[i] == 0) continue;
        const Residual r = eval_residual(obs_[i], out.x, toa_excess_m(i));
        if (!r.usable) continue;
        const double w = stat_weight(obs_[i], r) *
                         huber_weight(r.combined_deg, kHuberDeltaDeg);
        sxx += w * r.grad.x * r.grad.x;
        sxy += w * r.grad.x * r.grad.y;
        syy += w * r.grad.y * r.grad.y;
        bx -= w * r.aoa_m * r.grad.x;
        by -= w * r.aoa_m * r.grad.y;
      }
      const double det = sxx * syy - sxy * sxy;
      const double scale = std::max(1.0, sxx + syy);
      if (!(det > 1e-12 * scale * scale)) break;  // singular geometry.
      ever_solved = true;
      Vec2 step{(syy * bx - sxy * by) / det, (sxx * by - sxy * bx) / det};
      const double norm = step.norm();
      if (norm > kIrlsMaxStepM) step = step * (kIrlsMaxStepM / norm);
      out.x = clamp_to_room(out.x + step);
      out.iterations = it + 1;
      if (step.norm() < kIrlsToleranceM) {
        out.converged = true;
        break;
      }
    }
    out.degenerate = !ever_solved;
    return out;
  }

  [[nodiscard]] Vec2 clamp_to_room(const Vec2& x) const {
    return {std::clamp(x.x, 0.0, room_.width_m),
            std::clamp(x.y, 0.0, room_.height_m)};
  }

  /// Index-aligned diagnostics at the final position.
  [[nodiscard]] std::vector<ApDiagnostics> diagnostics(const Vec2& x) const {
    std::vector<ApDiagnostics> out(obs_.size());
    for (std::size_t i = 0; i < obs_.size(); ++i) {
      const Residual r = eval_residual(obs_[i], x, toa_excess_m(i));
      ApDiagnostics& d = out[i];
      d.toa_bias_s = toa_bias_[i];
      if (!r.usable) continue;
      d.residual_deg = r.combined_deg;
      d.residual_m = r.combined_m;
      d.aoa_residual_deg = r.aoa_deg;
      d.inlier = r.combined_deg <= kInlierResidualDeg;
      d.robust_weight = huber_weight(r.combined_deg, kHuberDeltaDeg);
    }
    return out;
  }

 private:
  std::span<const Observation> obs_;
  const Room& room_;
  std::vector<double> toa_bias_;
};

}  // namespace

const char* fusion_fallback_name(FusionFallback f) noexcept {
  switch (f) {
    case FusionFallback::kNone: return "none";
    case FusionFallback::kRansac: return "ransac";
    case FusionFallback::kRansacNoGain: return "ransac-no-gain";
    case FusionFallback::kDegenerate: return "degenerate";
  }
  return "unknown";
}

FusionReport fuse_robust(std::span<const Observation> observations,
                         const Room& room, const Vec2& initial,
                         const FusionConfig& /*unused*/) {
  room.validate();
  if (observations.size() < 2) {
    throw std::invalid_argument("fuse_robust: need at least 2 observations");
  }
  for (const Observation& o : observations) {
    if (!std::isfinite(o.aoa_deg) || !std::isfinite(o.weight) || o.weight <= 0.0) {
      throw std::invalid_argument(
          "fuse_robust: observations need finite AoA and positive weight");
    }
  }

  const Problem problem(observations, room);
  FusionReport report;

  // Stage 1: IRLS from the caller's initial fix.
  const Problem::IrlsResult base = problem.irls(initial, nullptr);
  Scored best = problem.score(base.x);
  report.iterations = base.iterations;
  report.converged = base.converged;
  if (base.degenerate) {
    // No usable Gauss-Newton geometry (e.g. every AP collinear with the
    // hypothesis): hand the initial fix back unrefined but scored.
    best = problem.score(problem.clamp_to_room(initial));
    report.fallback = FusionFallback::kDegenerate;
  }

  // Stage 1b: inlier refit. The robust loss bounds an outlier's pull
  // but does not zero it (Huber stays linear), so when the converged
  // fix still sees outliers, refit on its inlier consensus alone and
  // keep the result if it ranks better. Clean data (every observation
  // an inlier) skips this entirely, preserving the bit-compatibility
  // contract with the plain weighted solve.
  const auto n_obs = static_cast<int>(observations.size());
  if (report.fallback != FusionFallback::kDegenerate && best.inliers >= 2 &&
      best.inliers < n_obs) {
    const std::vector<char> active = problem.inlier_mask(best.x);
    const Problem::IrlsResult refit = problem.irls(best.x, &active);
    const Scored s = problem.score(refit.x);
    if (strictly_better(s, best)) {
      best = s;
      report.iterations = refit.iterations;
      report.converged = refit.converged;
    }
  }

  // Stage 2: RANSAC hypothesis stage when the refined fix still
  // explains too few APs. Hypotheses are scored raw; the best consensus
  // set is IRLS-polished and the winner is whichever candidate explains
  // more observations (ties: lower truncated cost, then the earlier
  // candidate).
  const double inlier_fraction =
      static_cast<double>(best.inliers) / static_cast<double>(n_obs);
  if (report.fallback != FusionFallback::kDegenerate &&
      inlier_fraction < kMinInlierFraction && observations.size() >= 3) {
    report.used_ransac = true;
    const auto hypotheses = bearing_pair_hypotheses(observations, room);
    Scored best_hyp;
    best_hyp.inliers = -1;
    for (const Hypothesis& h : hypotheses) {
      const Scored s = problem.score(h.position);
      if (best_hyp.inliers < 0 || strictly_better(s, best_hyp)) best_hyp = s;
    }
    if (best_hyp.inliers >= 2) {
      // Consensus set of the winning hypothesis, then polish on it.
      const std::vector<char> active = problem.inlier_mask(best_hyp.x);
      const Problem::IrlsResult polished = problem.irls(best_hyp.x, &active);
      const Scored s = problem.score(polished.x);
      if (strictly_better(s, best)) {
        best = s;
        report.iterations = polished.iterations;
        report.converged = polished.converged;
        report.fallback = FusionFallback::kRansac;
      } else {
        report.fallback = FusionFallback::kRansacNoGain;
      }
    } else {
      report.fallback = FusionFallback::kRansacNoGain;
    }
  }

  report.position = best.x;
  report.cost = best.cost;
  report.inliers = best.inliers;
  report.per_ap = problem.diagnostics(best.x);
  return report;
}

}  // namespace roarray::fusion
