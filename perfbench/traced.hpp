// The traced run: each request re-executed stage by stage through the
// public functions core::roarray_estimate and loc::localize call, one
// span per call, and checked bit for bit against the library calls.
// The shadow goes away once the library records its own stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "pipeline.hpp"
#include "runtime/operator_cache.hpp"

namespace perfbench {

/// Per-burst figures the traced re-execution counts.
struct TracedEstimate {
  roarray::core::RoArrayResult result;
  double support_cells = 0.0;  ///< solve columns (4550 on the full grid).
  double apply_cmacs = 0.0;    ///< computed complex MACs of the solve.
};

/// Re-executes core::roarray_estimate (cached context, no pool) through
/// its public stage functions in the library's order, recording one
/// span per stage under `parent`. The result must equal the library
/// call bit for bit; the caller checks.
[[nodiscard]] TracedEstimate traced_estimate(
    const roarray::core::CsiBurst& burst, const PipelineConfig& cfg,
    roarray::runtime::OperatorCache& cache, SpanRecorder& rec,
    std::uint32_t parent, std::uint64_t request);

/// Re-executes loc::localize as grid argmin (robust = false) then
/// fusion::fuse_robust seeded by the grid fix, with one span each, and
/// returns the final position.
[[nodiscard]] roarray::channel::Vec2 traced_localize(
    const std::vector<roarray::loc::ApObservation>& obs,
    const PipelineConfig& cfg, SpanRecorder& rec, std::uint32_t parent,
    std::uint64_t request);


/// Runs the traced phase: cycles `rounds` from the first for at least
/// `seconds` and at least `min_rounds` rounds. Every round runs once
/// traced and once through the library (alternating which goes first);
/// any difference fails `res`. Sets the traced per-layer metrics,
/// trace.overhead_frac and trace.stage_coverage, and hands the spans to
/// res.spans.
void run_traced(const std::vector<Round>& rounds, const PipelineConfig& cfg,
                roarray::runtime::OperatorCache& cache, double seconds,
                std::size_t min_rounds, RunResult& res);

}  // namespace perfbench
