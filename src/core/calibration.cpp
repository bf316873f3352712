#include "core/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/roarray.hpp"
#include "dsp/grid.hpp"
#include "music/covariance.hpp"
#include "music/music.hpp"
#include "sparse/fista.hpp"

namespace roarray::core {

using linalg::CMat;
using linalg::cxd;
using linalg::index_t;

CMat apply_phase_correction(const CMat& csi, std::span<const double> offsets_rad) {
  if (static_cast<index_t>(offsets_rad.size()) != csi.rows()) {
    throw std::invalid_argument("apply_phase_correction: offset count mismatch");
  }
  CMat out = csi;
  for (index_t a = 0; a < csi.rows(); ++a) {
    const cxd rot = std::polar(1.0, -offsets_rad[static_cast<std::size_t>(a)]);
    for (index_t s = 0; s < csi.cols(); ++s) out(a, s) *= rot;
  }
  return out;
}

namespace {

/// Coarse search steps per offset dimension over [0, 2 pi).
constexpr int kCoarseSteps = 12;
/// Refinement levels; each shrinks the step 3x around the incumbent.
constexpr int kRefineLevels = 3;
/// Cheap solver settings for the many candidate evaluations.
constexpr sparse::SolveConfig kSolver{.max_iterations = 60, .tolerance = 1e-4};
/// How many packets the sharpness objective averages over.
constexpr index_t kMaxPackets = 3;

/// AoA grid of the calibration spectra.
dsp::Grid calibration_aoa_grid() { return dsp::Grid(0.0, 180.0, 91); }

/// Spectrum concentration at the known calibration direction: the value
/// of the (peak-normalized) spectrum near known_aoa divided by the
/// spectrum mean. Correct offsets re-align the antenna phases, moving
/// the dominant peak onto the known direction and sharpening it.
double concentration_at(const dsp::Spectrum1d& spec, index_t target_idx) {
  double mean = 0.0;
  for (index_t i = 0; i < spec.values.size(); ++i) mean += spec.values[i];
  mean /= std::max<double>(1.0, static_cast<double>(spec.values.size()));
  if (mean <= 0.0) return 0.0;
  // Neighbor cells count at reduced weight: tolerates an off-grid truth
  // without flattening the objective around the optimum.
  double v = spec.values[target_idx];
  double nb = 0.0;
  if (target_idx > 0) nb = std::max(nb, spec.values[target_idx - 1]);
  if (target_idx + 1 < spec.values.size()) {
    nb = std::max(nb, spec.values[target_idx + 1]);
  }
  v = std::max(v, 0.6 * nb);
  return v / mean;
}

/// Objective: average concentration over the calibration packets, after
/// correcting with the candidate offsets.
class Objective {
 public:
  Objective(std::span<const CMat> packets, double known_aoa_deg,
            const dsp::ArrayConfig& array_cfg, const CalibrationConfig& cfg)
      : packets_(packets),
        aoa_grid_(calibration_aoa_grid()),
        target_idx_(aoa_grid_.nearest_index(known_aoa_deg)),
        array_cfg_(array_cfg),
        method_(cfg.method) {}

  [[nodiscard]] double evaluate(const std::vector<double>& offsets) const {
    const index_t n =
        std::min<index_t>(kMaxPackets, static_cast<index_t>(packets_.size()));
    double acc = 0.0;
    for (index_t p = 0; p < n; ++p) {
      const CMat corrected = apply_phase_correction(
          packets_[static_cast<std::size_t>(p)], offsets);
      if (method_ == CalibrationMethod::kRoArray) {
        const dsp::Spectrum1d spec =
            roarray_aoa_spectrum(corrected, aoa_grid_, array_cfg_, kSolver);
        acc += concentration_at(spec, target_idx_);
      } else {
        // No forward-backward averaging here: FB assumes a
        // centro-Hermitian (already calibrated) manifold, and applying
        // it under a wrong offset hypothesis creates spurious optima.
        const CMat r = music::sample_covariance(corrected);
        const index_t k =
            std::min<index_t>(2, array_cfg_.num_antennas - 1);
        const dsp::Spectrum1d spec =
            music::music_spectrum_aoa(r, k, aoa_grid_, array_cfg_);
        acc += concentration_at(spec, target_idx_);
      }
    }
    return acc / static_cast<double>(n);
  }

 private:
  std::span<const CMat> packets_;
  dsp::Grid aoa_grid_;
  index_t target_idx_;
  const dsp::ArrayConfig& array_cfg_;
  CalibrationMethod method_;
};

/// A scored offset hypothesis.
struct Candidate {
  double score = -1.0;
  std::vector<double> offsets;
};

/// Recursive grid sweep over the free offsets (antennas 1..M-1),
/// keeping the `keep` best-scoring hypotheses.
void sweep(const Objective& obj, std::vector<double>& offsets, std::size_t dim,
           const std::vector<double>& center, double lo_delta, double hi_delta,
           int steps, std::size_t keep, std::vector<Candidate>& best) {
  if (dim == offsets.size()) {
    const double score = obj.evaluate(offsets);
    if (best.size() < keep || score > best.back().score) {
      best.push_back({score, offsets});
      std::sort(best.begin(), best.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.score > b.score;
                });
      if (best.size() > keep) best.pop_back();
    }
    return;
  }
  if (dim == 0) {
    // First antenna is the phase reference.
    offsets[0] = 0.0;
    sweep(obj, offsets, 1, center, lo_delta, hi_delta, steps, keep, best);
    return;
  }
  for (int s = 0; s < steps; ++s) {
    const double frac = steps > 1 ? static_cast<double>(s) /
                                        static_cast<double>(steps - 1)
                                  : 0.5;
    offsets[dim] = center[dim] + lo_delta + frac * (hi_delta - lo_delta);
    sweep(obj, offsets, dim + 1, center, lo_delta, hi_delta, steps, keep, best);
  }
}

}  // namespace

CalibrationResult estimate_phase_offsets(std::span<const CMat> packets,
                                         double known_aoa_deg,
                                         const dsp::ArrayConfig& array_cfg,
                                         const CalibrationConfig& cfg) {
  if (packets.empty()) {
    throw std::invalid_argument("estimate_phase_offsets: no packets");
  }
  if (array_cfg.num_antennas > 4) {
    throw std::invalid_argument(
        "estimate_phase_offsets: search is exponential; supports <= 4 antennas");
  }
  if (known_aoa_deg < 0.0 || known_aoa_deg > 180.0) {
    throw std::invalid_argument(
        "estimate_phase_offsets: known AoA must be in [0, 180]");
  }

  const auto m = static_cast<std::size_t>(array_cfg.num_antennas);
  const Objective obj(packets, known_aoa_deg, array_cfg, cfg);

  std::vector<double> offsets(m, 0.0);

  // Coarse pass over [0, 2 pi) per free dimension, keeping the 3 best
  // hypotheses (the objective can have near-tied local basins).
  std::vector<Candidate> coarse;
  sweep(obj, offsets, 0, std::vector<double>(m, 0.0), 0.0,
        2.0 * dsp::kPi * (1.0 - 1.0 / kCoarseSteps), kCoarseSteps,
        /*keep=*/3, coarse);

  // Refine each coarse candidate: shrink a +/- window 3x per level.
  Candidate winner;
  for (const Candidate& start : coarse) {
    std::vector<Candidate> local = {start};
    double window = 2.0 * dsp::kPi / kCoarseSteps;
    for (int level = 0; level < kRefineLevels; ++level) {
      const std::vector<double> center = local.front().offsets;
      sweep(obj, offsets, 0, center, -window, window, 5, /*keep=*/1, local);
      window /= 3.0;
    }
    if (local.front().score > winner.score) winner = local.front();
  }

  CalibrationResult out;
  out.offsets_rad = std::move(winner.offsets);
  // Report offsets wrapped into [0, 2 pi).
  for (double& o : out.offsets_rad) {
    o = std::fmod(o, 2.0 * dsp::kPi);
    if (o < 0.0) o += 2.0 * dsp::kPi;
  }
  out.sharpness = winner.score;
  return out;
}

}  // namespace roarray::core
