#include "core/roarray.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "dsp/angles.hpp"
#include "dsp/sanitize.hpp"
#include "dsp/steering.hpp"
#include "music/model_order.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/coarse_fine.hpp"
#include "sparse/l1svd.hpp"
#include "sparse/operator.hpp"
#include "sparse/power.hpp"

namespace roarray::core {

using linalg::cxd;
using linalg::RMat;

CVec stack_csi(const CMat& csi) {
  const index_t m = csi.rows();
  const index_t l = csi.cols();
  CVec y(m * l);
  for (index_t s = 0; s < l; ++s) {
    for (index_t a = 0; a < m; ++a) y[s * m + a] = csi(a, s);
  }
  return y;
}

dsp::Spectrum2d coefficients_to_spectrum(const CVec& coeffs,
                                         const dsp::Grid& aoa_grid,
                                         const dsp::Grid& toa_grid) {
  CMat column(coeffs.size(), 1);
  column.set_col(0, coeffs);
  return coefficients_to_spectrum(column, aoa_grid, toa_grid);
}

namespace {

/// The one spectrum routine: cell `cell(r)` (AoA-fastest, j * Nth + i)
/// gets the norm of coefficient row r, and a cell that no row maps to
/// keeps the +0 of sqrt(+0), the value an all-zero row gives it.
template <class CellOf>
dsp::Spectrum2d rows_to_spectrum(const CMat& coeffs, const CellOf& cell,
                                 const dsp::Grid& aoa_grid,
                                 const dsp::Grid& toa_grid) {
  const index_t nth = aoa_grid.size();
  dsp::Spectrum2d out;
  out.aoa_grid = aoa_grid;
  out.toa_grid = toa_grid;
  out.values = RMat(nth, toa_grid.size());
  for (index_t r = 0; r < coeffs.rows(); ++r) {
    double row_sq = 0.0;
    for (index_t k = 0; k < coeffs.cols(); ++k) {
      row_sq += std::norm(coeffs(r, k));
    }
    const index_t c = cell(r);
    out.values(c % nth, c / nth) = std::sqrt(row_sq);
  }
  out.normalize();
  return out;
}

}  // namespace

dsp::Spectrum2d coefficients_to_spectrum(const CMat& coeffs,
                                         const dsp::Grid& aoa_grid,
                                         const dsp::Grid& toa_grid) {
  if (coeffs.rows() != aoa_grid.size() * toa_grid.size()) {
    throw std::invalid_argument("coefficients_to_spectrum: size mismatch");
  }
  return rows_to_spectrum(
      coeffs, [](index_t r) { return r; }, aoa_grid, toa_grid);
}

namespace {

/// Extracts paths from the spectrum and fills the result's path fields.
/// aoa_wrap_period > 0 marks the AoA axis circular (the full [0, 180]
/// grid at half-wavelength spacing aliases its endpoints — see
/// dsp::aoa_wrap_period), so the peak min-separation window wraps.
void extract_paths(RoArrayResult& out, const RoArrayConfig& cfg,
                   index_t aoa_wrap_period) {
  const auto peaks = out.spectrum.find_peaks(cfg.max_paths,
                                             cfg.min_peak_rel_height,
                                             cfg.min_peak_sep_aoa,
                                             cfg.min_peak_sep_toa,
                                             aoa_wrap_period);
  for (const dsp::Peak& p : peaks) {
    PathEstimate e;
    e.aoa_deg = p.aoa_deg;
    e.toa_s = p.toa_s;
    e.power = p.value;
    out.paths.push_back(e);
  }
  std::sort(out.paths.begin(), out.paths.end(),
            [](const PathEstimate& a, const PathEstimate& b) {
              return a.toa_s < b.toa_s;
            });
  if (!out.paths.empty()) {
    // Direct path = smallest ToA (paper Section III-B), restricted to
    // peaks strong enough to be real paths rather than residual spikes.
    double max_power = 0.0;
    for (const PathEstimate& p : out.paths) max_power = std::max(max_power, p.power);
    const double floor_power = cfg.min_direct_rel_power * max_power;
    out.direct = out.paths.front();
    for (const PathEstimate& p : out.paths) {
      if (p.power >= floor_power) {
        out.direct = p;
        break;  // paths sorted by ToA: first strong one is the direct
      }
    }
    out.valid = true;
  }
}

/// The l1-SVD fusion of a multi-packet burst: the dominant-subspace
/// columns of the snapshot matrix, trimmed to the MDL signal rank when
/// the config leaves the rank to the estimator.
CMat fused_columns(const CMat& snapshots, const RoArrayConfig& cfg) {
  sparse::SvdReduction red =
      sparse::reduce_snapshots(snapshots, cfg.fusion_rank);
  if (cfg.fusion_rank > 0) return std::move(red.reduced);
  // The simple threshold rule over-keeps noise directions at low SNR
  // (smooth singular-value decay). Re-estimate the signal rank with MDL
  // over the singular-value profile, capped at max_paths.
  const index_t p = snapshots.cols();
  const index_t r = red.singular_values.size();
  linalg::RVec lam(r);  // ascending eigenvalues of (1/p) Y Y^H
  for (index_t i = 0; i < r; ++i) {
    const double s = red.singular_values[r - 1 - i];
    lam[i] = s * s / static_cast<double>(p);
  }
  const index_t mdl = music::estimate_model_order(lam, p);
  const index_t rank =
      std::clamp<index_t>(mdl, 1, std::min(cfg.max_paths, red.reduced.cols()));
  if (rank == red.reduced.cols()) return std::move(red.reduced);
  CMat trimmed(red.reduced.rows(), rank);
  for (index_t j = 0; j < rank; ++j) trimmed.set_col(j, red.reduced.col_vec(j));
  return trimmed;
}

/// The operator entry for (grids, array): the cache's when the context
/// has one, else a fresh one built the way the cache builds a miss.
std::shared_ptr<const runtime::CachedOperator> operator_entry(
    const runtime::EstimateContext& ctx, const dsp::Grid& aoa_grid,
    const dsp::Grid& toa_grid, const dsp::ArrayConfig& array_cfg) {
  return ctx.cache != nullptr
             ? ctx.cache->get(aoa_grid, toa_grid, array_cfg)
             : runtime::build_cached_operator(aoa_grid, toa_grid, array_cfg);
}

/// The coarse-to-fine operator pick: greedy candidate selection on the
/// decimated-grid operator, then the restriction of `op` to the refined
/// factored support (see sparse/coarse_fine.hpp and DESIGN.md
/// "Coarse-to-fine factored dictionary"), emplaced into `sub`, with its
/// own Lipschitz hint and the refine caps applied to `solver`. Leaves
/// `sub` empty when no cell is selected (an all-zero measurement, whose
/// full solve is all zeros too).
void select_support_operator(const sparse::KroneckerOperator& op,
                             const CMat& y, const RoArrayConfig& cfg,
                             const dsp::ArrayConfig& array_cfg,
                             const runtime::EstimateContext& ctx,
                             std::optional<sparse::SupportOperator>& sub,
                             sparse::SolveConfig& solver) {
  const sparse::CoarseFineConfig& cf = cfg.coarse_fine;
  cf.validate();
  const auto coarse = operator_entry(
      ctx, sparse::decimate_grid(cfg.aoa_grid, sparse::kCoarseAoaDecimation),
      sparse::decimate_grid(cfg.toa_grid, sparse::kCoarseToaDecimation),
      array_cfg);

  const sparse::FactoredSupport support = sparse::select_factored_support(
      coarse->op, y, cfg.aoa_grid.size(), cfg.toa_grid.size(), cf);
  if (support.empty()) return;

  sub.emplace(op, support.aoa, support.toa);
  // Cached / caller Lipschitz hints describe the FULL operator; the
  // restricted one needs its own (tighter) constant. The restriction is
  // itself a Kronecker product of the gathered factors, so
  // operator_norm_sq takes it from the two gathered factor matrices,
  // identical cached vs uncached.
  solver.lipschitz_hint = sparse::operator_norm_sq(*sub);
  if (cf.max_refine_iterations > 0) {
    solver.max_iterations =
        std::min(solver.max_iterations, cf.max_refine_iterations);
  }
  if (cf.refine_tolerance > 0.0) {
    solver.tolerance = std::max(solver.tolerance, cf.refine_tolerance);
  }
}

}  // namespace

RoArrayResult roarray_estimate(std::span<const CMat> packets,
                               const RoArrayConfig& cfg,
                               const dsp::ArrayConfig& array_cfg,
                               const sparse::IterationCallback& callback) {
  return roarray_estimate(packets, cfg, array_cfg, runtime::EstimateContext{},
                          callback);
}

RoArrayResult roarray_estimate(std::span<const CMat> packets,
                               const RoArrayConfig& cfg,
                               const dsp::ArrayConfig& array_cfg,
                               const runtime::EstimateContext& ctx,
                               const sparse::IterationCallback& callback) {
  if (packets.empty()) throw std::invalid_argument("roarray_estimate: no packets");
  if (cfg.max_paths < 1) {
    throw std::invalid_argument("roarray_estimate: max_paths must be >= 1");
  }
  array_cfg.validate();

  // The steering factors and the Lipschitz constant (factored, see
  // sparse/power.hpp) depend only on (grids, array); reuse them through
  // the cache when one is supplied. The entry's constant equals the
  // per-call operator_norm_sq exactly, so the solve is bit-identical
  // either way.
  const auto entry = operator_entry(ctx, cfg.aoa_grid, cfg.toa_grid, array_cfg);
  sparse::SolveConfig solver = cfg.solver;
  if (solver.lipschitz_hint <= 0.0) solver.lipschitz_hint = entry->norm_sq;
  const sparse::KroneckerOperator& op = entry->op;

  // Gather (optionally sanitized) stacked measurements.
  CMat snapshots(array_cfg.num_antennas * array_cfg.num_subcarriers,
                 static_cast<index_t>(packets.size()));
  for (std::size_t p = 0; p < packets.size(); ++p) {
    CMat csi = packets[p];
    if (csi.rows() != array_cfg.num_antennas ||
        csi.cols() != array_cfg.num_subcarriers) {
      throw std::invalid_argument("roarray_estimate: CSI shape mismatch");
    }
    if (cfg.sanitize) {
      csi = dsp::sanitize_csi(csi, array_cfg, cfg.rebias_delay_s).csi;
    }
    snapshots.set_col(static_cast<index_t>(p), stack_csi(csi));
  }

  // Y: the stacked snapshot of a single packet (Eq. 18 is the one-column
  // case of the l2,1 problem), or the l1-SVD fusion of a burst.
  const CMat y = packets.size() == 1 ? std::move(snapshots)
                                      : fused_columns(snapshots, cfg);

  // The operator: the full grid, or its coarse-to-fine restriction.
  std::optional<sparse::SupportOperator> sub;
  if (cfg.coarse_fine.enabled) {
    select_support_operator(op, y, cfg, array_cfg, ctx, sub, solver);
  }

  RoArrayResult out;
  if (cfg.coarse_fine.enabled && !sub) {
    out.solver_converged = true;
    out.spectrum = coefficients_to_spectrum(CMat(op.cols(), y.cols()),
                                            cfg.aoa_grid, cfg.toa_grid);
  } else {
    const sparse::KroneckerOperator& solve_op = sub ? *sub : op;
    // Observers see iterates in full-grid coordinates.
    sparse::IterationCallback cb = callback;
    if (sub && callback) {
      cb = [&callback, &sub](int it, const CMat& x) {
        callback(it, sub->scatter(x));
      };
    }
    sparse::GroupSolveResult sol =
        sparse::solve_group_l1(solve_op, y, solver, cb);
    out.solver_iterations = sol.iterations;
    out.solver_converged = sol.converged;
    // A restricted solve writes its support cells only: the other
    // cells' rows would be all zero.
    out.spectrum =
        sub ? rows_to_spectrum(
                  sol.x, [&sub](index_t r) { return sub->full_index(r); },
                  cfg.aoa_grid, cfg.toa_grid)
            : coefficients_to_spectrum(sol.x, cfg.aoa_grid, cfg.toa_grid);
  }
  extract_paths(out, cfg, dsp::aoa_wrap_period(cfg.aoa_grid, array_cfg));
  return out;
}

std::vector<RoArrayResult> roarray_estimate_batch(
    std::span<const CsiBurst> bursts, const RoArrayConfig& cfg,
    const dsp::ArrayConfig& array_cfg, const runtime::EstimateContext& ctx) {
  std::vector<RoArrayResult> results(bursts.size());
  if (bursts.empty()) return results;
  // Warm the cache before fanning out so workers share one entry
  // instead of stalling on the first-touch build.
  if (ctx.cache != nullptr) {
    (void)ctx.cache->get(cfg.aoa_grid, cfg.toa_grid, array_cfg);
    if (cfg.coarse_fine.enabled) {
      (void)ctx.cache->get_coarse(cfg.aoa_grid, cfg.toa_grid, array_cfg,
                                  cfg.coarse_fine);
    }
  }
  // Per-burst estimation is independent; slot i receives burst i's
  // result, so any thread count yields the serial output exactly. This
  // is the library's one level of parallelism: each burst's solve runs
  // serially on the lane that took it.
  auto run_one = [&](index_t i) {
    results[static_cast<std::size_t>(i)] =
        roarray_estimate(bursts[static_cast<std::size_t>(i)], cfg, array_cfg, ctx);
  };
  if (ctx.pool != nullptr) {
    ctx.pool->parallel_for(static_cast<index_t>(bursts.size()), run_one);
  } else {
    for (index_t i = 0; i < static_cast<index_t>(bursts.size()); ++i) run_one(i);
  }
  return results;
}

dsp::Spectrum1d roarray_aoa_spectrum(const CMat& csi, const dsp::Grid& aoa_grid,
                                     const dsp::ArrayConfig& array_cfg,
                                     const sparse::SolveConfig& solver) {
  if (csi.rows() != array_cfg.num_antennas) {
    throw std::invalid_argument("roarray_aoa_spectrum: CSI rows != antennas");
  }
  // The 1-D AoA dictionary, as A_theta (x) [1]. Every subcarrier is one
  // spatial snapshot; the row-sparse solution's row norms are the AoA
  // spectrum.
  const sparse::KroneckerOperator op(
      dsp::steering_matrix_aoa(aoa_grid, array_cfg));
  const sparse::GroupSolveResult sol = sparse::solve_group_l1(op, csi, solver);

  dsp::Spectrum1d out;
  out.grid = aoa_grid;
  out.values = linalg::RVec(aoa_grid.size());
  for (index_t i = 0; i < aoa_grid.size(); ++i) {
    double row_sq = 0.0;
    for (index_t k = 0; k < sol.x.cols(); ++k) row_sq += std::norm(sol.x(i, k));
    out.values[i] = std::sqrt(row_sq);
  }
  out.normalize();
  return out;
}

}  // namespace roarray::core
