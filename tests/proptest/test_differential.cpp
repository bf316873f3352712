// Differential oracles and metamorphic relations over fuzzed inputs.
//
// Differential: two independent implementations must agree —
//   * FISTA and ADMM minimize the same l1 objective (compared by
//     objective value at a shared explicit kappa; the minimizer itself
//     need not be unique);
//   * the Kronecker operator matches its materialized dense matrix on
//     random non-square sizes;
//   * sparse recovery, MUSIC, and SpotFi agree on high-SNR scenes with
//     well-separated paths;
//   * localize's bound-and-prune grid argmin matches an exhaustive scan
//     bit for bit.
//
// Metamorphic: a known input transformation must produce a known output
// transformation —
//   * a global CSI phase shift leaves the AoA spectrum invariant;
//   * rotating the array axis rotates every path's AoA (folded to the
//     ULA range) and nothing else;
//   * a uniform detection-delay shift translates the ToA estimate;
//   * permuting the packets of a burst leaves the l1-SVD fusion fixed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "channel/csi.hpp"
#include "channel/multipath.hpp"
#include "core/roarray.hpp"
#include "dsp/angles.hpp"
#include "generators.hpp"
#include "loc/localize.hpp"
#include "music/covariance.hpp"
#include "music/music.hpp"
#include "music/spotfi.hpp"
#include "proptest.hpp"
#include "linalg/backend/backend.hpp"
#include "linalg/gemm.hpp"
#include "sparse/admm.hpp"
#include "sparse/fista.hpp"
#include "sparse/operator.hpp"
#include "sparse/prox.hpp"

namespace pt = roarray::proptest;
using roarray::channel::Path;
using roarray::linalg::CMat;
using roarray::linalg::CVec;
using roarray::linalg::cxd;
using roarray::linalg::index_t;

namespace {

// ---------------------------------------------------------------------------
// A controlled two-path scene: high SNR, well-separated AoA and ToA, so
// every estimator in the repo should find (at least) the direct path.

struct TwoPathScene {
  double aoa1_deg = 60.0;   ///< direct path.
  double aoa2_deg = 110.0;  ///< reflection, >= 30 deg away from aoa1.
  double toa1_ns = 60.0;
  double toa_gap_ns = 150.0;
  double rel_amp = 0.5;     ///< reflection amplitude relative to direct.
  double phase2 = 1.0;      ///< reflection phase [rad].
  int num_packets = 3;
  std::uint64_t noise_seed = 1;

  [[nodiscard]] std::vector<Path> paths() const {
    Path direct;
    direct.aoa_deg = aoa1_deg;
    direct.toa_s = toa1_ns * 1e-9;
    direct.gain = cxd{1.0, 0.0};
    direct.reflections = 0;
    Path bounce;
    bounce.aoa_deg = aoa2_deg;
    bounce.toa_s = (toa1_ns + toa_gap_ns) * 1e-9;
    bounce.gain = std::polar(rel_amp, phase2);
    bounce.reflections = 1;
    return {direct, bounce};
  }
};

pt::Gen<TwoPathScene> gen_two_path_scene() {
  return [](pt::Rng& rng) {
    TwoPathScene s;
    s.aoa1_deg = std::uniform_real_distribution<double>(25.0, 115.0)(rng);
    s.aoa2_deg =
        s.aoa1_deg + std::uniform_real_distribution<double>(30.0, 55.0)(rng);
    s.toa1_ns = std::uniform_real_distribution<double>(30.0, 120.0)(rng);
    s.toa_gap_ns = std::uniform_real_distribution<double>(120.0, 250.0)(rng);
    s.rel_amp = std::uniform_real_distribution<double>(0.3, 0.6)(rng);
    s.phase2 = std::uniform_real_distribution<double>(0.0, 6.28)(rng);
    s.num_packets = std::uniform_int_distribution<int>(2, 4)(rng);
    s.noise_seed = rng();
    return s;
  };
}

std::string show_two_path_scene(const TwoPathScene& s) {
  std::ostringstream os;
  os.precision(4);
  os << "aoa " << s.aoa1_deg << "/" << s.aoa2_deg << " deg, toa " << s.toa1_ns
     << "/+" << s.toa_gap_ns << " ns, rel_amp " << s.rel_amp << ", phase2 "
     << s.phase2 << ", pkts " << s.num_packets << ", noise_seed "
     << s.noise_seed;
  return os.str();
}

/// Reduced grids shared by the estimator-level differential checks.
const roarray::dsp::Grid kAoaGrid(0.0, 180.0, 61);
const roarray::dsp::Grid kToaGrid(0.0, 784e-9, 29);

roarray::channel::PacketBurst make_burst(const TwoPathScene& s,
                                         const roarray::dsp::ArrayConfig& array,
                                         double snr_db = 30.0,
                                         double max_delay_s = 0.0) {
  roarray::channel::BurstConfig bc;
  bc.num_packets = s.num_packets;
  bc.snr_db = snr_db;
  bc.max_detection_delay_s = max_delay_s;
  pt::Rng rng(s.noise_seed);
  return roarray::channel::generate_burst(s.paths(), array, bc, rng);
}

roarray::core::RoArrayConfig scene_estimator_config() {
  roarray::core::RoArrayConfig cfg;
  cfg.aoa_grid = kAoaGrid;
  cfg.toa_grid = kToaGrid;
  cfg.solver.max_iterations = 150;
  cfg.sanitize = false;  // scenes carry no detection delay unless stated.
  return cfg;
}

// ---------------------------------------------------------------------------
// Differential oracles.

TEST(ProptestDifferential, FistaAndAdmmReachTheSameObjective) {
  pt::CheckConfig cfg;
  cfg.cases = 12;
  pt::check<pt::KronCase>(
      "FISTA and ADMM objective values agree at a shared kappa",
      pt::gen_kron_case,
      [](const pt::KronCase& c) -> std::optional<std::string> {
        const roarray::sparse::KroneckerOperator op(c.left(), c.right());
        const CVec y = c.y();
        const double kappa = 0.3 * roarray::sparse::kappa_max(op, y);
        if (kappa <= 0.0) return std::nullopt;  // degenerate: x = 0 for all.

        roarray::sparse::SolveConfig fcfg;
        fcfg.kappa = kappa;
        fcfg.max_iterations = 800;
        fcfg.tolerance = 1e-10;
        const auto fr = roarray::sparse::solve_l1(op, y, fcfg);

        roarray::sparse::AdmmConfig acfg;
        acfg.kappa = kappa;
        acfg.max_iterations = 800;
        acfg.tolerance = 1e-10;
        // rho on the problem's scale: for a weak random operator the
        // default rho = 1 can sit orders of magnitude above ||S||^2,
        // which stalls the x-update (steps shrink like ||S||^2 / rho).
        // rho ~ kappa is the standard lasso scaling.
        acfg.rho = kappa;
        const auto ar = roarray::sparse::solve_l1_admm(op, y, acfg);

        const double fo = roarray::sparse::l1_objective(op, y, fr.x, kappa);
        const double ao = roarray::sparse::l1_objective(op, y, ar.x, kappa);
        // The oracle is directional: restarted FISTA at this iteration
        // budget is the tight reference for the shared convex optimum,
        // while ADMM's splitting can lag it by a fraction of a percent
        // on ill-conditioned draws. FISTA must never be meaningfully
        // worse (it carries its own ~1e-4 convergence slack on tiny
        // problems), and ADMM must approach the same optimum within 1%.
        const double scale = std::max(1.0, std::max(fo, ao));
        if (fo > ao + 1e-4 * scale) {
          std::ostringstream os;
          os << "FISTA objective " << fo << " worse than ADMM " << ao
             << " (kappa " << kappa << ")";
          return os.str();
        }
        if (ao - fo > 1e-2 * scale) {
          std::ostringstream os;
          os << "ADMM objective " << ao << " far above FISTA " << fo
             << " (kappa " << kappa << ")";
          return os.str();
        }
        return std::nullopt;
      },
      pt::shrink_kron_case(), pt::show_kron_case, cfg);
}

TEST(ProptestDifferential, KroneckerMatchesDenseOnRandomSizes) {
  pt::CheckConfig cfg;
  cfg.cases = 40;
  pt::check<pt::KronCase>(
      "Kronecker operator == materialized dense operator",
      pt::gen_kron_case,
      [](const pt::KronCase& c) -> std::optional<std::string> {
        const roarray::sparse::KroneckerOperator kron(c.left(), c.right());
        const roarray::sparse::DenseOperator dense(kron.to_dense());
        if (kron.rows() != dense.rows() || kron.cols() != dense.cols()) {
          return "shape mismatch between kron and to_dense";
        }
        const CVec x = c.x();
        const CVec y = c.y();
        const double xs = std::max(1.0, roarray::linalg::norm2(x));
        const double ys = std::max(1.0, roarray::linalg::norm2(y));

        const CVec kf = kron.apply(x);
        const CVec df = dense.apply(x);
        for (index_t i = 0; i < kf.size(); ++i) {
          if (std::abs(kf[i] - df[i]) > 1e-9 * xs) {
            return "forward apply differs from dense";
          }
        }
        const CVec ka = kron.apply_adjoint(y);
        const CVec da = dense.apply_adjoint(y);
        for (index_t i = 0; i < ka.size(); ++i) {
          if (std::abs(ka[i] - da[i]) > 1e-9 * ys) {
            return "adjoint apply differs from dense";
          }
        }
        const CMat xm = c.x_mat();
        const CMat km = kron.apply_mat(xm);
        const CMat dm = dense.apply_mat(xm);
        for (index_t j = 0; j < km.cols(); ++j) {
          for (index_t i = 0; i < km.rows(); ++i) {
            if (std::abs(km(i, j) - dm(i, j)) >
                1e-9 * std::max(1.0, roarray::linalg::norm_fro(xm))) {
              return "batched apply_mat differs from dense";
            }
          }
        }
        const CMat kg = kron.row_gram();
        const CMat dg = dense.row_gram();
        const double gs = std::max(1.0, roarray::linalg::norm_max(dg));
        for (index_t j = 0; j < kg.cols(); ++j) {
          for (index_t i = 0; i < kg.rows(); ++i) {
            if (std::abs(kg(i, j) - dg(i, j)) > 1e-9 * gs) {
              return "row_gram differs from dense";
            }
          }
        }
        return std::nullopt;
      },
      pt::shrink_kron_case(), pt::show_kron_case, cfg);
}

TEST(ProptestDifferential, SparseRecoveryAgreesWithMusicAndSpotfi) {
  pt::CheckConfig cfg;
  cfg.cases = 4;
  pt::check<TwoPathScene>(
      "ROArray, MUSIC, and SpotFi agree on high-SNR well-separated scenes",
      gen_two_path_scene(),
      [](const TwoPathScene& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        const auto burst = make_burst(s, array);

        // Sparse recovery.
        const auto rr = roarray::core::roarray_estimate(
            burst.csi, scene_estimator_config(), array,
            roarray::runtime::EstimateContext{});
        if (!rr.valid) return "roarray_estimate found no path";
        const double ro_err =
            roarray::dsp::angle_diff_deg(rr.direct.aoa_deg, s.aoa1_deg);
        if (ro_err > 6.0) {
          std::ostringstream os;
          os << "roarray direct AoA off by " << ro_err << " deg";
          return os.str();
        }

        // Spatial MUSIC: one of the top-2 peaks must sit on the direct
        // path. MUSIC's resolution guarantee only holds for
        // decorrelated sources — on a static channel the two paths are
        // fully coherent and the covariance is rank-1 (the failure
        // mode sparse recovery exists to fix) — so give MUSIC what its
        // model assumes: a burst with per-packet path-phase
        // decorrelation, covariances averaged across packets and
        // forward-backward averaged.
        roarray::channel::BurstConfig mbc;
        mbc.num_packets = 12;
        mbc.snr_db = 30.0;
        mbc.max_detection_delay_s = 0.0;
        mbc.path_phase_jitter_rad = 1.2;
        pt::Rng mrng(roarray::runtime::mix_seed(s.noise_seed));
        const auto mburst =
            roarray::channel::generate_burst(s.paths(), array, mbc, mrng);
        CMat cov = roarray::music::sample_covariance(mburst.csi.front());
        for (std::size_t p = 1; p < mburst.csi.size(); ++p) {
          const CMat rp = roarray::music::sample_covariance(mburst.csi[p]);
          for (index_t j = 0; j < cov.cols(); ++j) {
            for (index_t i = 0; i < cov.rows(); ++i) cov(i, j) += rp(i, j);
          }
        }
        for (index_t j = 0; j < cov.cols(); ++j) {
          for (index_t i = 0; i < cov.rows(); ++i) {
            cov(i, j) /= static_cast<double>(mburst.csi.size());
          }
        }
        cov = roarray::music::forward_backward_average(cov);
        // MUSIC nulls are razor sharp, so normalized peak height is
        // dominated by how far each true angle sits from the nearest
        // grid point: the peak of a path 0.25 deg off-grid can sit
        // four orders of magnitude below one 0.05 deg off-grid, which
        // makes any fixed peak-height floor brittle. The robust oracle
        // is CONTRAST: the pseudo-spectrum within 1.5 deg of the true
        // direct angle must stand at least 20 dB above the median
        // background level.
        const auto mus = roarray::music::music_spectrum_aoa(
            cov, 2, roarray::dsp::Grid(0.0, 180.0, 361), array);
        double near_direct = 0.0;
        std::vector<double> background;
        background.reserve(static_cast<std::size_t>(mus.grid.size()));
        for (index_t i = 0; i < mus.grid.size(); ++i) {
          if (roarray::dsp::angle_diff_deg(mus.grid[i], s.aoa1_deg) <= 1.5) {
            near_direct = std::max(near_direct, mus.values[i]);
          }
          background.push_back(mus.values[i]);
        }
        std::nth_element(background.begin(),
                         background.begin() + background.size() / 2,
                         background.end());
        const double median_bg = background[background.size() / 2];
        if (near_direct < 100.0 * median_bg) {
          std::ostringstream os;
          os << "MUSIC shows no direct-path response: spectrum near "
             << s.aoa1_deg << " deg is " << near_direct
             << " vs median background " << median_bg;
          return os.str();
        }

        // SpotFi end to end (on its default fine grids: SpotFi's
        // cluster features degrade on the reduced tier-1 grids). SpotFi
        // is the fragile baseline the paper criticizes: on coherent
        // two-path draws its smoothed MUSIC can collapse both paths
        // into one cluster, and its direct-pick heuristic can land on
        // the reflection or on a smeared mixture peak between the
        // paths. Those are expected behaviors, not bugs, so the
        // differential constraint is one-sided: SpotFi must produce a
        // valid estimate, and whenever its pick DOES land on the
        // direct path it must agree with ROArray's.
        roarray::music::SpotfiConfig scfg;
        scfg.sanitize = false;
        const auto sr = roarray::music::spotfi_estimate(burst.csi, scfg, array);
        if (!sr.valid) return "spotfi_estimate found no path";
        const double sf_pick_err =
            roarray::dsp::angle_diff_deg(sr.direct_aoa_deg, s.aoa1_deg);
        if (sf_pick_err <= 8.0 &&
            roarray::dsp::angle_diff_deg(rr.direct.aoa_deg, sr.direct_aoa_deg) >
                12.0) {
          return "roarray and SpotFi disagree on the direct path";
        }
        return std::nullopt;
      },
      /*shrink=*/{}, show_two_path_scene, cfg);
}

TEST(ProptestDifferential, CoarseToFineAgreesWithFullGridSolve) {
  pt::CheckConfig cfg;
  cfg.cases = 6;
  pt::check<TwoPathScene>(
      "coarse-to-fine factored solve agrees with the full-grid solve",
      gen_two_path_scene(),
      [](const TwoPathScene& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        const auto burst = make_burst(s, array);

        const auto full_cfg = scene_estimator_config();
        const auto full = roarray::core::roarray_estimate(
            burst.csi, full_cfg, array, roarray::runtime::EstimateContext{});

        auto cf_cfg = full_cfg;
        cf_cfg.coarse_fine.enabled = true;
        const auto fast = roarray::core::roarray_estimate(
            burst.csi, cf_cfg, array, roarray::runtime::EstimateContext{});

        if (full.valid != fast.valid) {
          return "coarse-to-fine flipped the validity of the estimate";
        }
        if (!full.valid) return std::nullopt;
        const double daoa = roarray::dsp::folded_aoa_separation_deg(
            fast.direct.aoa_deg, full.direct.aoa_deg);
        if (daoa > 2.0 * full_cfg.aoa_grid.step() + 1e-12) {
          std::ostringstream os;
          os << "direct AoA moved " << daoa << " deg (full "
             << full.direct.aoa_deg << ", coarse-fine " << fast.direct.aoa_deg
             << ")";
          return os.str();
        }
        const double dtoa = std::abs(fast.direct.toa_s - full.direct.toa_s);
        if (dtoa > 2.0 * full_cfg.toa_grid.step() + 1e-15) {
          std::ostringstream os;
          os << "direct ToA moved " << dtoa * 1e9 << " ns (full "
             << full.direct.toa_s * 1e9 << " ns, coarse-fine "
             << fast.direct.toa_s * 1e9 << " ns)";
          return os.str();
        }
        return std::nullopt;
      },
      /*shrink=*/{}, show_two_path_scene, cfg);
}

// ---------------------------------------------------------------------------
// Compute-backend differential: the SIMD kernel table must agree with
// the scalar table on random problems within the documented tolerances
// (backend.hpp). Runs vacuously on builds/machines without a SIMD
// table — the adversarial fixed-input suite lives in
// tests/linalg/test_backend.cpp and reports the skip visibly.

namespace {

struct BackendCase {
  roarray::linalg::index_t m = 24, n = 6, k = 80;
  std::uint64_t seed = 1;
  double t = 0.5;  ///< prox threshold
};

pt::Gen<BackendCase> gen_backend_case() {
  return [](pt::Rng& rng) {
    BackendCase c;
    c.m = std::uniform_int_distribution<roarray::linalg::index_t>(1, 140)(rng);
    c.n = std::uniform_int_distribution<roarray::linalg::index_t>(1, 36)(rng);
    c.k = std::uniform_int_distribution<roarray::linalg::index_t>(1, 300)(rng);
    c.seed = rng();
    c.t = std::uniform_real_distribution<double>(0.0, 2.0)(rng);
    return c;
  };
}

pt::Shrinker<BackendCase> shrink_backend_case() {
  return [](const BackendCase& c) {
    std::vector<BackendCase> out;
    for (auto dim : {&BackendCase::m, &BackendCase::n, &BackendCase::k}) {
      if (c.*dim > 1) {
        BackendCase s = c;
        s.*dim = std::max<roarray::linalg::index_t>(1, c.*dim / 2);
        out.push_back(s);
      }
    }
    return out;
  };
}

std::string show_backend_case(const BackendCase& c) {
  std::ostringstream os;
  os << "m=" << c.m << " n=" << c.n << " k=" << c.k << " seed=" << c.seed
     << " t=" << c.t;
  return os.str();
}

}  // namespace

TEST(ProptestDifferential, SimdBackendMatchesScalar) {
  namespace be = roarray::linalg::backend;
  pt::CheckConfig cfg;
  cfg.cases = 25;
  pt::check<BackendCase>(
      "SIMD backend kernels == scalar backend kernels (to rounding)",
      gen_backend_case(),
      [](const BackendCase& c) -> std::optional<std::string> {
        const be::Backend* simd = be::simd();
        if (simd == nullptr) return std::nullopt;  // nothing to compare
        pt::Rng mrng(c.seed);
        const CMat a = pt::gen_cmat(c.m, c.k, mrng);
        CMat b = pt::gen_cmat(c.k, c.n, mrng);
        for (index_t i = 0; i < c.k; i += 3) {  // row-sparse like iterates
          for (index_t j = 0; j < c.n; ++j) b(i, j) = cxd{0.0, 0.0};
        }
        const double eps = std::numeric_limits<double>::epsilon();
        double amax = 0.0, bsum = 0.0;
        for (index_t j = 0; j < c.k; ++j)
          for (index_t i = 0; i < c.m; ++i)
            amax = std::max(amax, std::abs(a(i, j)));
        for (index_t j = 0; j < c.n; ++j) {
          double s = 0.0;
          for (index_t i = 0; i < c.k; ++i) s += std::abs(b(i, j));
          bsum = std::max(bsum, s);
        }

        const CMat cs = roarray::linalg::matmul_blocked(a, b, nullptr,
                                                        &be::scalar());
        const CMat cv = roarray::linalg::matmul_blocked(a, b, nullptr, simd);
        // The backend.hpp gemm bound: gamma_k * max|A| * col-sum of |B|.
        const double gtol =
            8.0 * eps * static_cast<double>(c.k) * amax * bsum;
        for (index_t j = 0; j < c.n; ++j) {
          for (index_t i = 0; i < c.m; ++i) {
            if (std::abs(cv(i, j) - cs(i, j)) > 2.0 * gtol) {
              std::ostringstream os;
              os << "gemm differs at (" << i << "," << j << "): "
                 << cv(i, j) << " vs " << cs(i, j) << " tol " << gtol;
              return os.str();
            }
          }
        }

        // Group prox: row_sq_accumulate + row_scale against scalar.
        CMat ps = cs;
        CMat pv = cs;
        roarray::sparse::group_soft_threshold_rows_inplace(ps, c.t,
                                                           &be::scalar());
        roarray::sparse::group_soft_threshold_rows_inplace(pv, c.t, simd);
        for (index_t j = 0; j < c.n; ++j) {
          for (index_t i = 0; i < c.m; ++i) {
            const double tol = 32.0 * eps * (std::abs(ps(i, j)) + 1.0);
            if (std::abs(pv(i, j) - ps(i, j)) > tol) {
              std::ostringstream os;
              os << "group prox differs at (" << i << "," << j << ")";
              return os.str();
            }
          }
        }

        // Elementwise prox on a column (normal-range values only: the
        // underflow divergence is documented and tested separately).
        CVec xs(c.m), xv(c.m);
        for (index_t i = 0; i < c.m; ++i) xs[i] = pt::gen_cxd(mrng);
        xv = xs;
        roarray::sparse::soft_threshold_inplace(xs, c.t, &be::scalar());
        roarray::sparse::soft_threshold_inplace(xv, c.t, simd);
        for (index_t i = 0; i < c.m; ++i) {
          if (std::abs(xv[i] - xs[i]) > 8.0 * eps * (std::abs(xs[i]) + 1.0)) {
            std::ostringstream os;
            os << "soft_threshold differs at " << i;
            return os.str();
          }
        }
        return std::nullopt;
      },
      shrink_backend_case(), show_backend_case, cfg);
}

// ---------------------------------------------------------------------------
// Robust-fusion differential: on all-inlier data the robust path must
// land where the naive weighted grid argmin lands (it refines the same
// optimum off-grid, so agreement is within a grid cell), report every
// AP as an inlier, and never escalate to RANSAC.

namespace {

struct FusionCase {
  std::vector<roarray::channel::ApPose> aps;
  roarray::channel::Vec2 target;
  std::vector<double> weights;
};

pt::Gen<FusionCase> gen_fusion_case() {
  return [](pt::Rng& rng) {
    FusionCase c;
    const roarray::channel::Room room;
    std::uniform_real_distribution<double> ux(1.0, room.width_m - 1.0);
    std::uniform_real_distribution<double> uy(1.0, room.height_m - 1.0);
    std::uniform_real_distribution<double> uaxis(0.0, 360.0);
    std::uniform_real_distribution<double> uw(0.2, 3.0);
    c.target = {ux(rng), uy(rng)};
    const int n = std::uniform_int_distribution<int>(3, 6)(rng);
    while (static_cast<int>(c.aps.size()) < n) {
      roarray::channel::ApPose ap{{ux(rng), uy(rng)}, uaxis(rng)};
      // Keep APs off the client: AoA is undefined on top of it and the
      // arc-length residual scale collapses at point-blank range.
      if (roarray::channel::distance(ap.position, c.target) < 1.5) continue;
      c.aps.push_back(ap);
      c.weights.push_back(uw(rng));
    }
    return c;
  };
}

std::string show_fusion_case(const FusionCase& c) {
  std::ostringstream os;
  os.precision(4);
  os << "target (" << c.target.x << ", " << c.target.y << "), aps";
  for (const auto& ap : c.aps) {
    os << " (" << ap.position.x << "," << ap.position.y << ";" << ap.axis_deg
       << ")";
  }
  return os.str();
}

}  // namespace

TEST(ProptestDifferential, RobustFusionMatchesNaiveWhenAllInliers) {
  pt::CheckConfig cfg;
  cfg.cases = 25;
  pt::check<FusionCase>(
      "robust fusion == naive weighted argmin on all-inlier rounds",
      gen_fusion_case(),
      [](const FusionCase& c) -> std::optional<std::string> {
        std::vector<roarray::loc::ApObservation> obs;
        for (std::size_t i = 0; i < c.aps.size(); ++i) {
          roarray::loc::ApObservation o;
          o.pose = c.aps[i];
          o.aoa_deg = c.aps[i].aoa_of_point(c.target);
          o.weight = c.weights[i];
          obs.push_back(o);
        }
        roarray::loc::LocalizeConfig robust_cfg;  // robust on by default.
        roarray::loc::LocalizeConfig naive_cfg;
        naive_cfg.robust = false;

        const auto r = roarray::loc::localize(obs, robust_cfg);
        const auto n = roarray::loc::localize(obs, naive_cfg);
        if (!r.valid || !n.valid) return "localize flagged all-inlier round";
        if (!r.used_fusion) return "robust path did not engage";
        if (r.fusion.used_ransac) return "RANSAC engaged on clean data";
        // The robust solve polishes the same basin the grid argmin found,
        // so the two fixes sit within a grid cell of each other.
        const double tol = 2.0 * robust_cfg.grid_step_m;
        if (std::abs(r.position.x - n.position.x) > tol ||
            std::abs(r.position.y - n.position.y) > tol) {
          std::ostringstream os;
          os << "fixes diverged: robust (" << r.position.x << ", "
             << r.position.y << ") vs naive (" << n.position.x << ", "
             << n.position.y << ")";
          return os.str();
        }
        if (r.fusion.inliers != static_cast<int>(obs.size())) {
          std::ostringstream os;
          os << "only " << r.fusion.inliers << "/" << obs.size()
             << " APs flagged inlier on clean data";
          return os.str();
        }
        return std::nullopt;
      },
      /*shrink=*/{}, show_fusion_case, cfg);
}

// ---------------------------------------------------------------------------
// Grid-argmin differential: localize's bound-and-prune grid search must
// return exactly (bit for bit, position and cost) what an exhaustive
// row-major scan returns. The scan below is the oracle; it lives only
// here.

namespace {

struct GridArgminCase {
  roarray::channel::Room room;
  double step = 0.1;
  std::vector<roarray::loc::ApObservation> obs;
};

struct OracleFix {
  roarray::channel::Vec2 position;
  double cost = std::numeric_limits<double>::max();
};

/// Every candidate, iy outer and ix inner, strict-less update; candidates
/// within 1e-9 m of an AP are skipped.
OracleFix exhaustive_grid_argmin(const GridArgminCase& c) {
  const auto nx = static_cast<index_t>(std::floor(c.room.width_m / c.step)) + 1;
  const auto ny = static_cast<index_t>(std::floor(c.room.height_m / c.step)) + 1;
  OracleFix best;
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx; ++ix) {
      const roarray::channel::Vec2 cand{static_cast<double>(ix) * c.step,
                                        static_cast<double>(iy) * c.step};
      double cost = 0.0;
      bool degenerate = false;
      for (const roarray::loc::ApObservation& o : c.obs) {
        if (roarray::channel::distance(cand, o.pose.position) < 1e-9) {
          degenerate = true;
          break;
        }
        const double phi = o.pose.aoa_of_point(cand);
        const double d = roarray::dsp::angle_diff_deg(phi, o.aoa_deg);
        cost += o.weight * d * d;
      }
      if (degenerate) continue;
      if (cost < best.cost) {
        best.cost = cost;
        best.position = cand;
      }
    }
  }
  return best;
}

pt::Gen<GridArgminCase> gen_grid_argmin_case() {
  return [](pt::Rng& rng) {
    using U = std::uniform_real_distribution<double>;
    GridArgminCase c;
    c.room = {U(0.5, 20.0)(rng), U(0.5, 14.0)(rng)};
    // Steps that divide neither the room nor the 16-cell tile, floored so
    // the exhaustive oracle stays under ~40k candidates.
    c.step = pt::element_of<double>({0.1, 0.07, 0.13, 0.25, 0.3})(rng);
    if (U(0.0, 1.0)(rng) < 0.4) c.step = U(0.05, 0.6)(rng);
    c.step = std::max(c.step, std::sqrt(c.room.width_m * c.room.height_m / 40000.0));
    const auto nx = static_cast<int>(std::floor(c.room.width_m / c.step));
    const auto ny = static_cast<int>(std::floor(c.room.height_m / c.step));
    const roarray::channel::Vec2 target{U(0.0, c.room.width_m)(rng),
                                        U(0.0, c.room.height_m)(rng)};
    const int n = std::uniform_int_distribution<int>(1, 6)(rng);
    for (int i = 0; i < n; ++i) {
      roarray::loc::ApObservation o;
      const double where = U(0.0, 1.0)(rng);
      if (where < 0.3) {  // exactly on a grid candidate.
        o.pose.position = {
            static_cast<double>(std::uniform_int_distribution<int>(0, nx)(rng)) * c.step,
            static_cast<double>(std::uniform_int_distribution<int>(0, ny)(rng)) * c.step};
      } else if (where < 0.4) {  // outside the room.
        o.pose.position = {U(-3.0, c.room.width_m + 3.0)(rng),
                           U(-3.0, c.room.height_m + 3.0)(rng)};
      } else {
        o.pose.position = {U(0.0, c.room.width_m)(rng), U(0.0, c.room.height_m)(rng)};
      }
      o.pose.axis_deg = U(0.0, 1.0)(rng) < 0.3
                            ? pt::element_of<double>({0.0, 45.0, 90.0, 180.0, -90.0})(rng)
                            : U(-360.0, 720.0)(rng);
      const bool at_target = roarray::channel::distance(o.pose.position, target) < 1e-6;
      const double kind = U(0.0, 1.0)(rng);
      if (kind < 0.35 && !at_target) {
        o.aoa_deg = o.pose.aoa_of_point(target);
      } else if (kind < 0.55 && !at_target) {
        o.aoa_deg = o.pose.aoa_of_point(target) + std::normal_distribution<double>(0.0, 5.0)(rng);
      } else if (kind < 0.85) {
        o.aoa_deg = pt::element_of<double>({0.0, 180.0, 200.0, -30.0, 359.5, -180.0, 540.0})(rng);
      } else {
        o.aoa_deg = U(0.0, 180.0)(rng);
      }
      const double wk = U(0.0, 1.0)(rng);
      o.weight = wk < 0.15 ? 1e-9 * U(0.5, 2.0)(rng) : wk < 0.3 ? 1.0 : U(0.1, 10.0)(rng);
      c.obs.push_back(o);
    }
    return c;
  };
}

/// Drops one observation at a time (keeping at least one).
std::vector<GridArgminCase> shrink_grid_argmin_case(const GridArgminCase& c) {
  std::vector<GridArgminCase> out;
  for (std::size_t i = 0; c.obs.size() > 1 && i < c.obs.size(); ++i) {
    GridArgminCase s = c;
    s.obs.erase(s.obs.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(s));
  }
  return out;
}

std::string show_grid_argmin_case(const GridArgminCase& c) {
  std::ostringstream os;
  os.precision(17);
  os << "room " << c.room.width_m << " x " << c.room.height_m << ", step " << c.step
     << ", obs";
  for (const auto& o : c.obs) {
    os << " [(" << o.pose.position.x << "," << o.pose.position.y << ") axis "
       << o.pose.axis_deg << " aoa " << o.aoa_deg << " w " << o.weight << "]";
  }
  return os.str();
}

}  // namespace

TEST(ProptestDifferential, GridArgminMatchesExhaustiveScanBitForBit) {
  pt::CheckConfig cfg;
  cfg.cases = 150;
  pt::check<GridArgminCase>(
      "bound-and-prune grid argmin == exhaustive row-major scan, bit for bit",
      gen_grid_argmin_case(),
      [](const GridArgminCase& c) -> std::optional<std::string> {
        roarray::loc::LocalizeConfig lcfg;
        lcfg.room = c.room;
        lcfg.grid_step_m = c.step;
        lcfg.robust = false;
        const auto fix = roarray::loc::localize(c.obs, lcfg);
        const OracleFix want = exhaustive_grid_argmin(c);
        if (!fix.valid) return "localize returned an invalid fix";
        const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
        if (bits(fix.position.x) != bits(want.position.x) ||
            bits(fix.position.y) != bits(want.position.y) ||
            bits(fix.cost) != bits(want.cost)) {
          std::ostringstream os;
          os.precision(17);
          os << "localize (" << fix.position.x << ", " << fix.position.y << ") cost "
             << fix.cost << " vs scan (" << want.position.x << ", " << want.position.y
             << ") cost " << want.cost;
          return os.str();
        }
        return std::nullopt;
      },
      shrink_grid_argmin_case, show_grid_argmin_case, cfg);
}

// ---------------------------------------------------------------------------
// Metamorphic relations.

TEST(ProptestMetamorphic, GlobalPhaseShiftLeavesAoaSpectrumInvariant) {
  pt::CheckConfig cfg;
  cfg.cases = 5;
  pt::check<TwoPathScene>(
      "csi -> e^{j phi} csi leaves the AoA spectrum unchanged",
      gen_two_path_scene(),
      [](const TwoPathScene& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        const auto burst = make_burst(s, array);
        const CMat& csi = burst.csi.front();
        // Derive the phase from the scene so it is seed-reproducible.
        const double phi = s.phase2 + 0.7;
        CMat shifted = csi;
        const cxd rot = std::polar(1.0, phi);
        for (index_t j = 0; j < shifted.cols(); ++j) {
          for (index_t i = 0; i < shifted.rows(); ++i) shifted(i, j) *= rot;
        }
        const roarray::dsp::Grid grid(0.0, 180.0, 46);
        roarray::sparse::SolveConfig solver;
        solver.max_iterations = 100;
        const auto a = roarray::core::roarray_aoa_spectrum(csi, grid, array, solver);
        const auto b =
            roarray::core::roarray_aoa_spectrum(shifted, grid, array, solver);
        for (index_t i = 0; i < grid.size(); ++i) {
          if (std::abs(a.values[i] - b.values[i]) > 1e-6) {
            std::ostringstream os;
            os << "spectrum changed at " << grid[i] << " deg: " << a.values[i]
               << " -> " << b.values[i] << " (phi " << phi << ")";
            return os.str();
          }
        }
        return std::nullopt;
      },
      /*shrink=*/{}, show_two_path_scene, cfg);
}

TEST(ProptestMetamorphic, ArrayRotationRotatesAoaOnly) {
  pt::CheckConfig cfg;
  cfg.cases = 25;
  pt::check<pt::FuzzScenario>(
      "rotating the array axis rotates every path AoA, nothing else",
      pt::gen_fuzz_scenario,
      [](const pt::FuzzScenario& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        // Reuse the scene's jitter field as a deterministic rotation.
        const double delta = 17.0 + 40.0 * s.path_phase_jitter_rad;
        roarray::channel::ApPose rotated = s.ap;
        rotated.axis_deg = s.ap.axis_deg + delta;
        const auto base = roarray::channel::trace_paths(
            s.room(), s.ap, s.client, s.multipath(), array, s.scatterers);
        const auto rot = roarray::channel::trace_paths(
            s.room(), rotated, s.client, s.multipath(), array, s.scatterers);
        if (base.size() != rot.size()) {
          return "rotation changed the number of traced paths";
        }
        for (std::size_t i = 0; i < base.size(); ++i) {
          if (std::abs(base[i].toa_s - rot[i].toa_s) > 1e-15) {
            return "rotation changed a path ToA";
          }
          if (std::abs(std::abs(base[i].gain) - std::abs(rot[i].gain)) > 1e-12) {
            return "rotation changed a path amplitude";
          }
          // aoa0 = fold(bearing - axis) loses the side of the array, so
          // the rotated AoA is fold(aoa0 - delta) or fold(aoa0 + delta).
          const double cand1 =
              roarray::dsp::fold_to_ula_range(base[i].aoa_deg - delta);
          const double cand2 =
              roarray::dsp::fold_to_ula_range(base[i].aoa_deg + delta);
          const double got = rot[i].aoa_deg;
          if (std::abs(got - cand1) > 1e-9 && std::abs(got - cand2) > 1e-9) {
            std::ostringstream os;
            os << "path " << i << " AoA " << base[i].aoa_deg << " rotated to "
               << got << ", expected " << cand1 << " or " << cand2;
            return os.str();
          }
        }
        return std::nullopt;
      },
      pt::shrink_fuzz_scenario(), pt::show_fuzz_scenario, cfg);
}

TEST(ProptestMetamorphic, DetectionDelayShiftTranslatesToa) {
  pt::CheckConfig cfg;
  cfg.cases = 5;
  pt::check<TwoPathScene>(
      "adding a uniform detection delay translates the ToA estimate",
      gen_two_path_scene(),
      [](const TwoPathScene& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        auto est_cfg = scene_estimator_config();
        const double step = est_cfg.toa_grid.step();
        const double delay = 3.0 * step;  // exactly three grid cells.

        roarray::channel::CsiImpairments clean;
        roarray::channel::CsiImpairments delayed;
        delayed.detection_delay_s = delay;
        // Snap the direct ToA onto the grid: an off-grid direct path
        // sitting near a cell boundary can legitimately quantize to a
        // different cell in the shifted solve, which would test peak
        // quantization rather than the translation relation.
        auto paths = s.paths();
        paths[0].toa_s = std::max(1.0, std::round(paths[0].toa_s / step)) * step;
        std::vector<CMat> base{
            roarray::channel::synthesize_csi(paths, array, clean)};
        std::vector<CMat> shifted{
            roarray::channel::synthesize_csi(paths, array, delayed)};

        const auto rb = roarray::core::roarray_estimate(
            base, est_cfg, array, roarray::runtime::EstimateContext{});
        const auto rs = roarray::core::roarray_estimate(
            shifted, est_cfg, array, roarray::runtime::EstimateContext{});
        if (!rb.valid || !rs.valid) return "estimate invalid";
        const double got = rs.direct.toa_s - rb.direct.toa_s;
        if (std::abs(got - delay) > step + 1e-15) {
          std::ostringstream os;
          os << "ToA moved by " << got * 1e9 << " ns for a " << delay * 1e9
             << " ns delay (grid step " << step * 1e9 << " ns)";
          return os.str();
        }
        return std::nullopt;
      },
      /*shrink=*/{}, show_two_path_scene, cfg);
}

TEST(ProptestMetamorphic, PacketPermutationLeavesFusionFixed) {
  pt::CheckConfig cfg;
  cfg.cases = 4;
  pt::check<TwoPathScene>(
      "permuting the packets of a burst leaves the fused estimate fixed",
      gen_two_path_scene(),
      [](const TwoPathScene& s) -> std::optional<std::string> {
        const roarray::dsp::ArrayConfig array;
        auto burst = make_burst(s, array);
        if (burst.csi.size() < 2) return std::nullopt;
        std::vector<CMat> permuted(burst.csi.rbegin(), burst.csi.rend());

        const auto est_cfg = scene_estimator_config();
        const auto a = roarray::core::roarray_estimate(
            burst.csi, est_cfg, array, roarray::runtime::EstimateContext{});
        const auto b = roarray::core::roarray_estimate(
            permuted, est_cfg, array, roarray::runtime::EstimateContext{});
        if (a.valid != b.valid) return "permutation flipped validity";
        if (!a.valid) return std::nullopt;
        const auto& av = a.spectrum.values;
        const auto& bv = b.spectrum.values;
        for (index_t j = 0; j < av.cols(); ++j) {
          for (index_t i = 0; i < av.rows(); ++i) {
            if (std::abs(av(i, j) - bv(i, j)) > 1e-5) {
              std::ostringstream os;
              os << "fused spectrum changed at (" << i << ", " << j
                 << "): " << av(i, j) << " -> " << bv(i, j);
              return os.str();
            }
          }
        }
        if (std::abs(a.direct.toa_s - b.direct.toa_s) >
            est_cfg.toa_grid.step() + 1e-15) {
          return "permutation moved the direct ToA pick";
        }
        if (roarray::dsp::angle_diff_deg(a.direct.aoa_deg, b.direct.aoa_deg) >
            est_cfg.aoa_grid.step() + 1e-12) {
          return "permutation moved the direct AoA pick";
        }
        return std::nullopt;
      },
      /*shrink=*/{}, show_two_path_scene, cfg);
}

}  // namespace
