#include "sparse/coarse_fine.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>

#include "sparse/omp.hpp"

namespace roarray::sparse {

namespace {

/// Number of points in the decimated companion of an n-point grid.
index_t decimated_size(index_t n, index_t decimation) {
  return (n - 1) / decimation + 1;
}

/// The fine-grid tail past the last coarse sample (when the decimation
/// does not divide the point count evenly) is at most decimation - 1
/// cells long, so a radius that reaches that far keeps it inside the
/// last coarse atom's window.
static_assert(kAoaRefineRadius >= kCoarseAoaDecimation - 1);
static_assert(kToaRefineRadius >= kCoarseToaDecimation - 1);

/// Unions [center - radius, center + radius] (clamped to [0, n)) into
/// the per-cell mask.
void mark_window(std::vector<char>& mask, index_t center, index_t radius) {
  const auto n = static_cast<index_t>(mask.size());
  const index_t lo = std::max<index_t>(0, center - radius);
  const index_t hi = std::min<index_t>(n - 1, center + radius);
  for (index_t i = lo; i <= hi; ++i) mask[static_cast<std::size_t>(i)] = 1;
}

std::vector<index_t> mask_to_indices(const std::vector<char>& mask) {
  std::vector<index_t> out;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) out.push_back(static_cast<index_t>(i));
  }
  return out;
}

}  // namespace

void CoarseFineConfig::validate() const {
  if (refine_tolerance >= 1.0) {
    throw std::invalid_argument(
        "CoarseFineConfig: refine_tolerance must be < 1");
  }
}

dsp::Grid decimate_grid(const dsp::Grid& fine, index_t decimation) {
  if (decimation < 1) {
    throw std::invalid_argument("decimate_grid: decimation must be >= 1");
  }
  const index_t nc = decimated_size(fine.size(), decimation);
  if (nc == fine.size()) return fine;
  // Coarse points are fine points: same lo, every decimation-th sample.
  return dsp::Grid(fine.lo(),
                   fine.lo() + static_cast<double>((nc - 1) * decimation) *
                                   fine.step(),
                   nc);
}

FactoredSupport select_factored_support(const KroneckerOperator& coarse_op,
                                        const CMat& snapshots,
                                        index_t fine_aoa_n, index_t fine_toa_n,
                                        const CoarseFineConfig& /*unused*/) {
  if (fine_aoa_n < 1 || fine_toa_n < 1) {
    throw std::invalid_argument(
        "select_factored_support: fine grid sizes must be >= 1");
  }
  const index_t nc_aoa = decimated_size(fine_aoa_n, kCoarseAoaDecimation);
  const index_t nc_toa = decimated_size(fine_toa_n, kCoarseToaDecimation);
  if (coarse_op.left().cols() != nc_aoa || coarse_op.right().cols() != nc_toa) {
    throw std::invalid_argument(
        "select_factored_support: coarse operator columns (" +
        std::to_string(coarse_op.left().cols()) + " x " +
        std::to_string(coarse_op.right().cols()) +
        ") do not match the decimated fine grids (" + std::to_string(nc_aoa) +
        " x " + std::to_string(nc_toa) + ")");
  }
  if (snapshots.rows() != coarse_op.rows()) {
    throw std::invalid_argument(
        "select_factored_support: snapshot rows do not match the operator");
  }

  std::vector<char> aoa_mask(static_cast<std::size_t>(fine_aoa_n), 0);
  std::vector<char> toa_mask(static_cast<std::size_t>(fine_toa_n), 0);

  OmpConfig omp;
  omp.max_atoms = kCoarseMaxCandidates;
  omp.residual_tolerance = kCoarseResidualTolerance;

  CVec y(snapshots.rows());
  for (index_t k = 0; k < snapshots.cols(); ++k) {
    for (index_t r = 0; r < snapshots.rows(); ++r) y[r] = snapshots(r, k);
    const OmpResult picked = solve_omp(coarse_op, y, omp);
    double strongest = 0.0;
    for (const index_t atom : picked.support) {
      strongest = std::max(strongest, std::abs(picked.x[atom]));
    }
    const double gain_floor = kCoarseMinRelGain * strongest;
    for (const index_t atom : picked.support) {
      if (std::abs(picked.x[atom]) < gain_floor) continue;  // noise pick
      const index_t ci = atom % nc_aoa;  // coarse AoA index (AoA-fastest)
      const index_t cj = atom / nc_aoa;  // coarse ToA index
      mark_window(aoa_mask, ci * kCoarseAoaDecimation, kAoaRefineRadius);
      mark_window(toa_mask, cj * kCoarseToaDecimation, kToaRefineRadius);
    }
  }

  FactoredSupport support;
  support.aoa = mask_to_indices(aoa_mask);
  support.toa = mask_to_indices(toa_mask);
  return support;
}

}  // namespace roarray::sparse
