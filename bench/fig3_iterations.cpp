// Figure 3: progress of the sparse-recovery solve across iterations —
// the AoA spectrum sharpens from diffuse to two crisp peaks, one at the
// ground-truth angle. The paper shows snapshots at 3/6/9/14 iterations
// of its SOC solver; we trace FISTA iterations of the same objective.
#include <cstdio>
#include <iostream>
#include <random>

#include "channel/csi.hpp"
#include "core/roarray.hpp"
#include "eval/report.hpp"
#include "common.hpp"

namespace {

using namespace roarray;
using linalg::cxd;
using linalg::index_t;

std::vector<channel::Path> two_path_channel() {
  channel::Path direct;
  direct.aoa_deg = 120.0;
  direct.toa_s = 50e-9;
  direct.gain = cxd{1.0, 0.0};
  channel::Path refl;
  refl.aoa_deg = 58.0;
  refl.toa_s = 240e-9;
  refl.gain = cxd{0.55, 0.3};
  return {direct, refl};
}

/// Number of grid cells holding non-negligible energy — the sharpness
/// proxy: it shrinks as the iterations enforce sparsity.
index_t active_cells(const dsp::Spectrum1d& spec, double level = 0.05) {
  index_t n = 0;
  for (index_t i = 0; i < spec.values.size(); ++i) {
    if (spec.values[i] >= level) ++n;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const dsp::ArrayConfig arr;
  const auto paths = two_path_channel();

  std::mt19937_64 rng(opts.seed);
  channel::BurstConfig bc;
  bc.num_packets = 1;
  bc.snr_db = 18.0;
  const auto burst = channel::generate_burst(paths, arr, bc, rng);

  core::RoArrayConfig cfg;
  cfg.solver.max_iterations = 64;
  cfg.solver.tolerance = 0.0;  // run to the end so snapshots exist

  std::printf("Figure 3 reproduction: AoA spectrum vs solver iteration\n");
  std::printf("true AoAs: direct 120 deg, reflection 58 deg\n\n");

  const std::vector<int> snapshots = {3, 6, 9, 14, 30, 64};
  std::vector<std::pair<int, dsp::Spectrum1d>> traces;
  const core::RoArrayResult final_result = core::roarray_estimate(
      burst.csi, cfg, arr, [&](int it, const linalg::CMat& x) {
        for (int snap : snapshots) {
          if (it == snap) {
            const auto spec =
                core::coefficients_to_spectrum(x, cfg.aoa_grid, cfg.toa_grid);
            traces.emplace_back(it, spec.aoa_marginal());
          }
        }
      });

  for (auto& [it, spec] : traces) {
    spec.normalize();
    const auto peaks = spec.find_peaks(2, 0.1, 3);
    std::printf("== iteration %d ==\n", it);
    std::printf("  active cells (>=5%% of peak): %lld of %lld\n",
                static_cast<long long>(active_cells(spec)),
                static_cast<long long>(spec.values.size()));
    std::printf("  top peaks:");
    for (const auto& p : peaks) std::printf(" %.0f deg (%.2f)", p.aoa_deg, p.value);
    std::printf("\n");
    std::vector<double> xs, ys;
    for (index_t i = 0; i < spec.values.size(); ++i) {
      xs.push_back(spec.grid[i]);
      ys.push_back(spec.values[i]);
    }
    eval::print_spectrum_sketch(std::cout, xs, ys, 5);
    std::printf("\n");
  }

  std::printf("final estimate after %d iterations: direct %.0f deg "
              "(truth 120), %zu paths\n",
              final_result.solver_iterations, final_result.direct.aoa_deg,
              final_result.paths.size());
  std::printf("paper shape: spectrum sharpens monotonically with iterations, "
              "ending at two crisp peaks, one on the ground truth.\n");
  return 0;
}
