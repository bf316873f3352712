// Invariant properties over fuzzed inputs: structural guarantees that
// must hold for EVERY input in the domain, checked end-to-end through
// sim -> channel -> core::roarray_estimate -> loc and at the solver /
// operator layer.
//
//   * trace_paths returns ToA-sorted paths with the direct path first;
//   * roarray_estimate keeps paths ToA-sorted, its spectrum in [0, 1],
//     and picks the smallest-ToA qualifying peak as the direct path;
//   * localize on the estimate stays inside the room;
//   * <S x, y> == <x, S^H y> for random Kronecker and dense operators,
//     with the batched _mat paths matching per-column applies;
//   * FISTA's recorded objective sequence is non-increasing (the
//     monotone-restart guarantee), as is ISTA's;
//   * the l1 / l2,1 proximal operators are firmly nonexpansive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "core/roarray.hpp"
#include "generators.hpp"
#include "loc/localize.hpp"
#include "proptest.hpp"
#include "sparse/fista.hpp"
#include "sparse/operator.hpp"
#include "sparse/prox.hpp"

namespace pt = roarray::proptest;
using roarray::linalg::CMat;
using roarray::linalg::CVec;
using roarray::linalg::cxd;
using roarray::linalg::index_t;

namespace {

/// Reduced search grids keeping the end-to-end solve fast enough for
/// dozens of fuzz cases on one core; resolution stays fine enough that
/// the structural invariants (ordering, direct pick) are meaningful.
roarray::core::RoArrayConfig fast_estimator_config() {
  roarray::core::RoArrayConfig cfg;
  cfg.aoa_grid = roarray::dsp::Grid(0.0, 180.0, 41);
  cfg.toa_grid = roarray::dsp::Grid(0.0, 784e-9, 25);
  cfg.solver.max_iterations = 120;
  return cfg;
}

TEST(ProptestInvariants, EndToEndPipelineInvariants) {
  pt::CheckConfig cfg;
  cfg.cases = 8;
  pt::check<pt::FuzzScenario>(
      "sim->channel->estimate->loc structural invariants",
      pt::gen_fuzz_scenario,
      [](const pt::FuzzScenario& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        const auto paths = roarray::channel::trace_paths(
            s.room(), s.ap, s.client, s.multipath(), array, s.scatterers);
        if (paths.empty()) return "trace_paths returned no paths";
        // Channel invariants: ToA-sorted, direct first and LoS-consistent.
        for (std::size_t i = 1; i < paths.size(); ++i) {
          if (paths[i].toa_s < paths[i - 1].toa_s) {
            return "trace_paths output not sorted by ToA";
          }
        }
        if (paths.front().reflections != 0) {
          return "first traced path is not the direct path";
        }
        const double los_aoa = s.ap.aoa_of_point(s.client);
        if (std::abs(paths.front().aoa_deg - los_aoa) > 1e-9) {
          return "direct path AoA disagrees with LoS geometry";
        }

        pt::Rng rng(s.burst_seed);
        const auto burst =
            roarray::channel::generate_burst(paths, array, s.burst_config(), rng);
        auto est_cfg = fast_estimator_config();
        const auto r = roarray::core::roarray_estimate(
            burst.csi, est_cfg, array, roarray::runtime::EstimateContext{});

        // Spectrum invariants: normalized power in [0, 1].
        const auto& sp = r.spectrum.values;
        double sp_max = 0.0;
        for (index_t j = 0; j < sp.cols(); ++j) {
          for (index_t i = 0; i < sp.rows(); ++i) {
            const double v = sp(i, j);
            if (!(v >= 0.0)) return "spectrum has a negative or NaN sample";
            sp_max = std::max(sp_max, v);
          }
        }
        if (sp_max > 1.0 + 1e-12) return "spectrum exceeds 1 after normalization";

        if (!r.valid) return std::nullopt;  // no peak found: nothing to pick.

        // Estimate invariants: sorted paths, direct = smallest qualifying ToA.
        double peak_power = 0.0;
        for (std::size_t i = 0; i < r.paths.size(); ++i) {
          if (i > 0 && r.paths[i].toa_s < r.paths[i - 1].toa_s) {
            return "estimated paths not sorted by ToA";
          }
          peak_power = std::max(peak_power, r.paths[i].power);
        }
        const double power_floor = est_cfg.min_direct_rel_power * peak_power;
        double expected_toa = std::numeric_limits<double>::infinity();
        for (const auto& p : r.paths) {
          if (p.power >= power_floor) expected_toa = std::min(expected_toa, p.toa_s);
        }
        if (r.direct.toa_s != expected_toa) {
          std::ostringstream os;
          os << "direct pick is not the smallest qualifying ToA (picked "
             << r.direct.toa_s * 1e9 << " ns, expected " << expected_toa * 1e9
             << " ns)";
          return os.str();
        }
        if (r.direct.power < power_floor) {
          return "direct pick below the relative power floor";
        }

        // Localization invariant: a valid fix inside the room.
        roarray::loc::LocalizeConfig lcfg;
        lcfg.room = s.room();
        lcfg.grid_step_m = 0.5;
        const roarray::loc::ApObservation obs{s.ap, r.direct.aoa_deg, 1.0};
        const auto fix = roarray::loc::localize({&obs, 1}, lcfg);
        if (!fix.valid) return "localize returned invalid with one observation";
        if (!lcfg.room.contains(fix.position)) {
          return "localize fix escaped the room";
        }
        return std::nullopt;
      },
      pt::shrink_fuzz_scenario(), pt::show_fuzz_scenario, cfg);
}

TEST(ProptestInvariants, AdjointConsistencyKroneckerAndDense) {
  pt::CheckConfig cfg;
  cfg.cases = 40;
  pt::check<pt::KronCase>(
      "<Sx,y> == <x,S^H y> and batched applies match per-column",
      pt::gen_kron_case,
      [](const pt::KronCase& c) -> std::optional<std::string> {
        const roarray::sparse::KroneckerOperator kron(c.left(), c.right());
        const roarray::sparse::DenseOperator dense(kron.to_dense());
        const CVec x = c.x();
        const CVec y = c.y();

        // Scale for relative comparisons.
        const double scale =
            std::max(1.0, roarray::linalg::norm2(x) * roarray::linalg::norm2(y));
        for (const roarray::sparse::LinearOperator* op :
             {static_cast<const roarray::sparse::LinearOperator*>(&kron),
              static_cast<const roarray::sparse::LinearOperator*>(&dense)}) {
          const cxd lhs = roarray::linalg::dot(op->apply(x), y);
          const cxd rhs = roarray::linalg::dot(x, op->apply_adjoint(y));
          if (std::abs(lhs - rhs) > 1e-10 * scale) {
            std::ostringstream os;
            os << "adjoint identity violated: <Sx,y>=" << lhs
               << " vs <x,S^H y>=" << rhs;
            return os.str();
          }
        }

        // Batched multi-snapshot paths match per-column single applies.
        const CMat xm = c.x_mat();
        const CMat ym_in = c.y_mat();
        const CMat ym = kron.apply_mat(xm);
        const CMat xm_adj = kron.apply_adjoint_mat(ym_in);
        for (index_t j = 0; j < xm.cols(); ++j) {
          const CVec per_col = kron.apply(xm.col_vec(j));
          for (index_t i = 0; i < per_col.size(); ++i) {
            if (std::abs(per_col[i] - ym(i, j)) > 1e-10 * scale) {
              return "apply_mat disagrees with per-column apply";
            }
          }
          const CVec per_col_adj = kron.apply_adjoint(ym_in.col_vec(j));
          for (index_t i = 0; i < per_col_adj.size(); ++i) {
            if (std::abs(per_col_adj[i] - xm_adj(i, j)) > 1e-10 * scale) {
              return "apply_adjoint_mat disagrees with per-column adjoint";
            }
          }
        }
        return std::nullopt;
      },
      pt::shrink_kron_case(), pt::show_kron_case, cfg);
}

TEST(ProptestInvariants, SolverObjectiveMonotone) {
  pt::CheckConfig cfg;
  cfg.cases = 15;
  pt::check<pt::KronCase>(
      "FISTA (monotone restart) objective never increases",
      pt::gen_kron_case,
      [](const pt::KronCase& c) -> std::optional<std::string> {
        const roarray::sparse::KroneckerOperator op(c.left(), c.right());
        const CVec y = c.y();
        roarray::sparse::SolveConfig scfg;
        scfg.max_iterations = 60;
        const auto r = roarray::sparse::solve_l1(op, y, scfg);
        for (std::size_t i = 1; i < r.objective.size(); ++i) {
          const double slack =
              1e-10 * std::max(1.0, std::abs(r.objective[i - 1]));
          if (r.objective[i] > r.objective[i - 1] + slack) {
            std::ostringstream os;
            os << "objective increased at iteration " << i << ": "
               << r.objective[i - 1] << " -> " << r.objective[i];
            return os.str();
          }
        }
        return std::nullopt;
      },
      pt::shrink_kron_case(), pt::show_kron_case, cfg);
}

/// A pair of same-length complex vectors plus a threshold, regenerated
/// from a stored seed like KronCase so it shrinks cleanly.
struct ProxCase {
  index_t n = 1;
  index_t k = 1;  ///< snapshot columns for the group prox.
  double t = 0.5;
  std::uint64_t data_seed = 0;
};

pt::Gen<ProxCase> gen_prox_case() {
  return [](pt::Rng& rng) {
    ProxCase c;
    c.n = std::uniform_int_distribution<index_t>(1, 32)(rng);
    c.k = std::uniform_int_distribution<index_t>(1, 4)(rng);
    c.t = std::uniform_real_distribution<double>(0.0, 2.0)(rng);
    c.data_seed = rng();
    return c;
  };
}

TEST(ProptestInvariants, ProxOperatorsFirmlyNonexpansive) {
  pt::CheckConfig cfg;
  cfg.cases = 60;
  pt::check<ProxCase>(
      "soft-threshold and row-group prox satisfy "
      "||P(x)-P(y)||^2 <= Re<P(x)-P(y), x-y>",
      gen_prox_case(),
      [](const ProxCase& c) -> std::optional<std::string> {
        pt::Rng rng(c.data_seed);
        // l1 prox on vectors.
        CVec x = pt::gen_cvec(c.n, rng);
        CVec y = pt::gen_cvec(c.n, rng);
        CVec px = x;
        CVec py = y;
        roarray::sparse::soft_threshold_inplace(px, c.t);
        roarray::sparse::soft_threshold_inplace(py, c.t);
        double lhs = 0.0;
        double rhs = 0.0;
        for (index_t i = 0; i < c.n; ++i) {
          const cxd dp = px[i] - py[i];
          lhs += std::norm(dp);
          rhs += std::real(std::conj(dp) * (x[i] - y[i]));
        }
        if (lhs > rhs + 1e-10 * std::max(1.0, lhs)) {
          std::ostringstream os;
          os << "l1 prox not firmly nonexpansive: ||dP||^2=" << lhs
             << " > Re<dP, dx>=" << rhs;
          return os.str();
        }
        // l2,1 prox on row groups.
        CMat xm = pt::gen_cmat(c.n, c.k, rng);
        CMat ym = pt::gen_cmat(c.n, c.k, rng);
        CMat pxm = xm;
        CMat pym = ym;
        roarray::sparse::group_soft_threshold_rows_inplace(pxm, c.t);
        roarray::sparse::group_soft_threshold_rows_inplace(pym, c.t);
        lhs = 0.0;
        rhs = 0.0;
        for (index_t j = 0; j < c.k; ++j) {
          for (index_t i = 0; i < c.n; ++i) {
            const cxd dp = pxm(i, j) - pym(i, j);
            lhs += std::norm(dp);
            rhs += std::real(std::conj(dp) * (xm(i, j) - ym(i, j)));
          }
        }
        if (lhs > rhs + 1e-10 * std::max(1.0, lhs)) {
          std::ostringstream os;
          os << "group prox not firmly nonexpansive: ||dP||_F^2=" << lhs
             << " > Re<dP, dX>=" << rhs;
          return os.str();
        }
        return std::nullopt;
      },
      /*shrink=*/{},
      [](const ProxCase& c) {
        std::ostringstream os;
        os << "n=" << c.n << " k=" << c.k << " t=" << c.t << " data_seed="
           << c.data_seed;
        return os.str();
      },
      cfg);
}

}  // namespace
