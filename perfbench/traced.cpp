#include "traced.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>

#include "dsp/angles.hpp"
#include "dsp/sanitize.hpp"
#include "fusion/fusion.hpp"
#include "music/model_order.hpp"
#include "sparse/coarse_fine.hpp"
#include "sparse/l1svd.hpp"
#include "sparse/power.hpp"

namespace perfbench {

namespace core = roarray::core;
namespace sparse = roarray::sparse;
namespace loc = roarray::loc;
namespace serve = roarray::serve;
using roarray::linalg::CMat;

namespace {

/// Complex MACs of one forward + one adjoint application of a Kronecker
/// operator (left M x Na, right L x Nt) on k columns: each direction is
/// two GEMMs, k * M * Nt * Na + k * M * Nt * L.
double kron_pair_cmacs(index_t m, index_t na, index_t l, index_t nt, index_t k) {
  return 2.0 * static_cast<double>(k) * static_cast<double>(m) *
         static_cast<double>(nt) * static_cast<double>(na + l);
}

/// Peak picking and direct-path selection exactly as roarray_estimate
/// performs them on its spectrum.
void extract_paths(core::RoArrayResult& out, const PipelineConfig& cfg) {
  const core::RoArrayConfig& ec = cfg.estimator;
  const auto peaks = out.spectrum.find_peaks(
      ec.max_paths, ec.min_peak_rel_height, ec.min_peak_sep_aoa,
      ec.min_peak_sep_toa, roarray::dsp::aoa_wrap_period(ec.aoa_grid, cfg.array));
  for (const roarray::dsp::Peak& p : peaks) {
    out.paths.push_back({p.aoa_deg, p.toa_s, p.value});
  }
  std::sort(out.paths.begin(), out.paths.end(),
            [](const core::PathEstimate& a, const core::PathEstimate& b) {
              return a.toa_s < b.toa_s;
            });
  if (out.paths.empty()) return;
  double max_power = 0.0;
  for (const core::PathEstimate& p : out.paths) max_power = std::max(max_power, p.power);
  const double floor_power = ec.min_direct_rel_power * max_power;
  out.direct = out.paths.front();
  for (const core::PathEstimate& p : out.paths) {
    if (p.power >= floor_power) {
      out.direct = p;
      break;
    }
  }
  out.valid = true;
}

}  // namespace

TracedEstimate traced_estimate(const core::CsiBurst& burst,
                               const PipelineConfig& cfg,
                               roarray::runtime::OperatorCache& cache,
                               SpanRecorder& rec, std::uint32_t parent,
                               std::uint64_t request) {
  const core::RoArrayConfig& ec = cfg.estimator;
  const roarray::dsp::ArrayConfig& array = cfg.array;
  TracedEstimate out;
  core::RoArrayResult& res = out.result;

  std::shared_ptr<const roarray::runtime::CachedOperator> cached;
  sparse::SolveConfig solver = ec.solver;
  {
    ScopedSpan s(rec, "runtime.cache_lookup", parent, request);
    array.validate();
    cached = cache.get(ec.aoa_grid, ec.toa_grid, array);
    if (solver.lipschitz_hint <= 0.0) solver.lipschitz_hint = cached->norm_sq;
  }
  const sparse::KroneckerOperator& op = cached->op;

  CMat snapshots(array.num_antennas * array.num_subcarriers,
                 static_cast<index_t>(burst.size()));
  for (std::size_t p = 0; p < burst.size(); ++p) {
    CMat csi = burst[p];
    {
      ScopedSpan s(rec, "dsp.sanitize", parent, request);
      csi = roarray::dsp::sanitize_csi(csi, array, ec.rebias_delay_s).csi;
    }
    ScopedSpan s(rec, "core.stack", parent, request);
    snapshots.set_col(static_cast<index_t>(p), core::stack_csi(csi));
  }

  CMat y = std::move(snapshots);
  if (burst.size() > 1) {
    sparse::SvdReduction red;
    {
      ScopedSpan s(rec, "sparse.l1svd", parent, request);
      red = sparse::reduce_snapshots(y, ec.fusion_rank);
    }
    if (ec.fusion_rank <= 0) {
      ScopedSpan s(rec, "music.mdl", parent, request);
      const index_t p = y.cols();
      const index_t r = red.singular_values.size();
      roarray::linalg::RVec lam(r);
      for (index_t i = 0; i < r; ++i) {
        const double sv = red.singular_values[r - 1 - i];
        lam[i] = sv * sv / static_cast<double>(p);
      }
      const index_t mdl = roarray::music::estimate_model_order(lam, p);
      const index_t rank =
          std::clamp<index_t>(mdl, 1, std::min(ec.max_paths, red.reduced.cols()));
      if (rank < red.reduced.cols()) {
        CMat trimmed(red.reduced.rows(), rank);
        for (index_t j = 0; j < rank; ++j) trimmed.set_col(j, red.reduced.col_vec(j));
        red.reduced = std::move(trimmed);
      }
    }
    y = std::move(red.reduced);
  }

  const index_t m = array.num_antennas;
  const index_t l = array.num_subcarriers;
  CMat coeffs;
  if (ec.coarse_fine.enabled) {
    const sparse::CoarseFineConfig& cf = ec.coarse_fine;
    std::shared_ptr<const roarray::runtime::CachedOperator> coarse;
    {
      ScopedSpan s(rec, "runtime.cache_lookup", parent, request);
      coarse = cache.get_coarse(ec.aoa_grid, ec.toa_grid, array, cf);
    }
    sparse::FactoredSupport support;
    {
      ScopedSpan s(rec, "sparse.coarse_select", parent, request);
      support = sparse::select_factored_support(coarse->op, y, ec.aoa_grid.size(),
                                                ec.toa_grid.size(), cf);
    }
    if (support.empty()) {
      coeffs = CMat(op.cols(), y.cols());
    } else {
      std::optional<sparse::SupportOperator> sub;
      {
        ScopedSpan s(rec, "sparse.support_setup", parent, request);
        sub.emplace(op, support.aoa, support.toa);
        solver.lipschitz_hint =
            sparse::operator_norm_sq(sparse::DenseOperator(sub->sub().left())) *
            sparse::operator_norm_sq(sparse::DenseOperator(sub->sub().right()));
        if (cf.max_refine_iterations > 0) {
          solver.max_iterations = std::min(solver.max_iterations, cf.max_refine_iterations);
        }
        if (cf.refine_tolerance > 0.0) {
          solver.tolerance = std::max(solver.tolerance, cf.refine_tolerance);
        }
      }
      const auto na = static_cast<index_t>(support.aoa.size());
      const auto nt = static_cast<index_t>(support.toa.size());
      out.support_cells = static_cast<double>(na * nt);
      ScopedSpan s(rec, "sparse.solve", parent, request);
      if (y.cols() == 1) {
        const sparse::SolveResult sol = sparse::solve_l1(*sub, y.col_vec(0), solver);
        res.solver_iterations = sol.iterations;
        res.solver_converged = sol.converged;
        coeffs = CMat(op.cols(), 1);
        coeffs.set_col(0, sub->scatter(sol.x));
      } else {
        const sparse::GroupSolveResult sol = sparse::solve_group_l1(*sub, y, solver);
        res.solver_iterations = sol.iterations;
        res.solver_converged = sol.converged;
        coeffs = sub->scatter(sol.x);
      }
      out.apply_cmacs = kron_pair_cmacs(m, na, l, nt, y.cols()) * res.solver_iterations;
    }
  } else {
    out.support_cells = static_cast<double>(op.cols());
    ScopedSpan s(rec, "sparse.solve", parent, request);
    // Unlike the coarse-to-fine path, the full-grid path picks the
    // solver by packet count: a burst reduced to rank 1 still takes
    // the group solve.
    if (burst.size() == 1) {
      sparse::SolveResult sol = sparse::solve_l1(op, y.col_vec(0), solver);
      res.solver_iterations = sol.iterations;
      res.solver_converged = sol.converged;
      coeffs = CMat(op.cols(), 1);
      coeffs.set_col(0, sol.x);
    } else {
      sparse::GroupSolveResult sol = sparse::solve_group_l1(op, y, solver);
      res.solver_iterations = sol.iterations;
      res.solver_converged = sol.converged;
      coeffs = std::move(sol.x);
    }
    out.apply_cmacs = kron_pair_cmacs(m, ec.aoa_grid.size(), l, ec.toa_grid.size(),
                                      y.cols()) * res.solver_iterations;
  }

  ScopedSpan s(rec, "dsp.spectrum_peaks", parent, request);
  // The library reshapes a single-snapshot solve from its coefficient
  // vector and a fused one from its row norms; the two overloads differ
  // in rounding (|c| vs sqrt(|c|^2)), so pick the one it picks.
  res.spectrum = burst.size() == 1
                     ? core::coefficients_to_spectrum(coeffs.col_vec(0), ec.aoa_grid,
                                                      ec.toa_grid)
                     : core::coefficients_to_spectrum(coeffs, ec.aoa_grid, ec.toa_grid);
  extract_paths(res, cfg);
  return out;
}

roarray::channel::Vec2 traced_localize(const std::vector<loc::ApObservation>& obs,
                                       const PipelineConfig& cfg, SpanRecorder& rec,
                                       std::uint32_t parent, std::uint64_t request) {
  ScopedSpan top(rec, "loc.localize", parent, request);
  loc::LocalizeConfig grid_cfg = cfg.localize;
  grid_cfg.robust = false;
  loc::LocalizeResult grid;
  {
    ScopedSpan s(rec, "loc.grid", top.id(), request);
    grid = loc::localize(obs, grid_cfg);
  }
  // loc::localize's screening: finite AoA, positive finite weight.
  std::vector<roarray::fusion::Observation> fobs;
  for (const loc::ApObservation& o : obs) {
    if (!std::isfinite(o.aoa_deg) || !std::isfinite(o.weight) || o.weight <= 0.0) {
      continue;
    }
    roarray::fusion::Observation f;
    f.pose = o.pose;
    f.aoa_deg = o.aoa_deg;
    f.weight = o.weight;
    f.toa_s = o.toa_s;
    f.has_toa = o.has_toa && std::isfinite(o.toa_s);
    fobs.push_back(f);
  }
  if (!grid.valid || !cfg.localize.robust ||
      static_cast<int>(fobs.size()) < cfg.localize.robust_min_aps) {
    return grid.position;
  }
  ScopedSpan s(rec, "fusion.fuse", top.id(), request);
  return roarray::fusion::fuse_robust(fobs, cfg.localize.room, grid.position,
                                      cfg.localize.fusion)
      .position;
}


namespace {

/// Stage spans under each core.estimate span; their self times are the
/// per-layer stage metrics (name + "_ms") and their sum over the
/// library call's time is trace.stage_coverage.
constexpr const char* kStages[] = {
    "runtime.cache_lookup", "dsp.sanitize",          "core.stack",
    "sparse.l1svd",         "music.mdl",             "sparse.coarse_select",
    "sparse.support_setup", "sparse.solve",          "dsp.spectrum_peaks",
};

bool same_position(const roarray::channel::Vec2& a, const roarray::channel::Vec2& b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

}  // namespace

void run_traced(const std::vector<Round>& rounds, const PipelineConfig& cfg,
                roarray::runtime::OperatorCache& cache, double seconds,
                std::size_t min_rounds, RunResult& res) {
  auto rec = std::make_shared<SpanRecorder>(1u << 16);
  std::vector<double> traced_ms, library_ms, support_cells, cmacs;
  double library_estimate_ms = 0.0;
  std::size_t mismatches = 0;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_rounds && ms_between(start, Clock::now()) >= seconds * 1e3) break;
    const Round& round = rounds[i % rounds.size()];

    std::vector<core::RoArrayResult> traced(round.bursts.size());
    roarray::channel::Vec2 traced_pos;
    auto run_traced_request = [&] {
      const std::uint32_t root = rec->open("request", Span::kNoParent, i);
      for (std::size_t j = 0; j < round.bursts.size(); ++j) {
        const std::uint32_t est = rec->open("core.estimate", root, i);
        TracedEstimate te = traced_estimate(round.bursts[j], cfg, cache, *rec, est, i);
        rec->close(est);
        if (i < min_rounds) {
          support_cells.push_back(te.support_cells);
          cmacs.push_back(te.apply_cmacs);
        }
        traced[j] = std::move(te.result);
      }
      const std::vector<loc::ApObservation> obs =
          observations_of(round, traced, rssi_weights(round), cfg);
      if (!obs.empty()) traced_pos = traced_localize(obs, cfg, *rec, root, i);
      rec->close(root);
      traced_ms.push_back(rec->duration_ms(root));
    };

    std::vector<core::RoArrayResult> library(round.bursts.size());
    serve::Response response;
    auto run_library_request = [&] {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t j = 0; j < round.bursts.size(); ++j) {
        const Clock::time_point tj = Clock::now();
        library[j] = core::roarray_estimate(round.bursts[j], cfg.estimator, cfg.array,
                                            {&cache, nullptr});
        library_estimate_ms += ms_between(tj, Clock::now());
      }
      response = assemble_response(round, library, cfg, nullptr);
      library_ms.push_back(ms_between(t0, Clock::now()));
    };

    // Alternate the order so neither side always runs on warm data.
    if (i % 2 == 0) {
      run_traced_request();
      run_library_request();
    } else {
      run_library_request();
      run_traced_request();
    }

    std::string diff;
    for (std::size_t j = 0; j < round.bursts.size() && diff.empty(); ++j) {
      if (!same_result(traced[j], library[j])) {
        diff = "estimate of AP " + std::to_string(round.ap_ids[j]);
      }
    }
    if (diff.empty() && response.status == serve::ResponseStatus::kOk &&
        !same_position(traced_pos, response.location.position)) {
      diff = "position";
    }
    if (!diff.empty() && mismatches++ == 0) {
      res.fail("traced decomposition differs from the library call on round " +
               std::to_string(i % rounds.size()) + ": " + diff);
    }
  }

  const double estimates = static_cast<double>(rec->count("core.estimate"));
  double stage_ms = 0.0;
  for (const char* stage : kStages) {
    const double ms = rec->self_ms(stage);
    stage_ms += ms;
    res.set(std::string(stage) + "_ms", ms / estimates);
  }
  auto per_call = [&](const char* name) {
    const std::size_t n = rec->count(name);
    return n == 0 ? 0.0 : rec->self_ms(name) / static_cast<double>(n);
  };
  res.set("loc.grid_ms", per_call("loc.grid"));
  res.set("fusion.fuse_ms", per_call("fusion.fuse"));
  res.set("sparse.support_cells_mean", mean(support_cells));
  res.set("linalg.apply_cmacs_per_estimate", mean(cmacs));
  res.set("trace.overhead_frac", median(traced_ms) / median(library_ms) - 1.0);
  res.set("trace.stage_coverage", stage_ms / library_estimate_ms);
  res.spans = std::move(rec);
}

}  // namespace perfbench
