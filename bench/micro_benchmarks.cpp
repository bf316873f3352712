// Micro-benchmarks (google-benchmark): solver and substrate costs,
// including the design-choice ablations called out in DESIGN.md —
// batched vs per-column Kronecker applies, blocked vs naive GEMM, and
// the Section III-C complexity scaling of the joint solve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/csi.hpp"
#include "common.hpp"
#include "core/roarray.hpp"
#include "eval/report.hpp"
#include "io/crc32.hpp"
#include "io/trace_reader.hpp"
#include "io/trace_writer.hpp"
#include "dsp/fft.hpp"
#include "dsp/sanitize.hpp"
#include "dsp/steering.hpp"
#include "linalg/backend/backend.hpp"
#include "linalg/backend/crc32.hpp"
#include "linalg/eig.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "music/covariance.hpp"
#include "music/music.hpp"
#include "music/smoothing.hpp"
#include "sparse/coarse_fine.hpp"
#include "sparse/fista.hpp"
#include "sparse/l1svd.hpp"
#include "sparse/omp.hpp"
#include "sparse/operator.hpp"

namespace {

using namespace roarray;
using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

const dsp::ArrayConfig kArray;

CVec measurement_for(const dsp::ArrayConfig& arr, std::uint64_t seed) {
  channel::Path d;
  d.aoa_deg = 110.0;
  d.toa_s = 60e-9;
  d.gain = cxd{1.0, 0.0};
  channel::Path r;
  r.aoa_deg = 50.0;
  r.toa_s = 240e-9;
  r.gain = cxd{0.5, 0.2};
  std::mt19937_64 rng(seed);
  CMat csi = channel::synthesize_csi({d, r}, arr);
  channel::add_noise(csi, 15.0, rng);
  return core::stack_csi(csi);
}

/// y = S x one snapshot column at a time through apply: the per-column
/// reference the batched apply_mat_into is timed and checked against.
void apply_mat_percolumn(const sparse::KroneckerOperator& op, const CMat& x,
                         CMat& y) {
  if (y.rows() != op.rows() || y.cols() != x.cols()) {
    y = CMat(op.rows(), x.cols());
  }
  for (index_t j = 0; j < x.cols(); ++j) y.set_col(j, op.apply(x.col_vec(j)));
}

/// x = S^H y one column at a time through apply_adjoint.
void apply_adjoint_mat_percolumn(const sparse::KroneckerOperator& op,
                                 const CMat& y, CMat& x) {
  if (x.rows() != op.cols() || x.cols() != y.cols()) {
    x = CMat(op.cols(), y.cols());
  }
  for (index_t j = 0; j < y.cols(); ++j) {
    x.set_col(j, op.apply_adjoint(y.col_vec(j)));
  }
}

void BM_SteeringMatrixJointBuild(benchmark::State& state) {
  const dsp::Grid aoa(0.0, 180.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::steering_matrix_joint(aoa, toa, kArray));
  }
}
BENCHMARK(BM_SteeringMatrixJointBuild)->Unit(benchmark::kMillisecond);

/// One forward apply of the Kronecker-structured joint operator.
void BM_KroneckerOperatorApply(benchmark::State& state) {
  const dsp::Grid aoa(0.0, 180.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 50);
  const sparse::KroneckerOperator op(dsp::steering_matrix_aoa(aoa, kArray),
                                     dsp::steering_matrix_toa(toa, kArray));
  const CVec x(op.cols(), cxd{0.01, 0.01});
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.apply(x));
  }
}
BENCHMARK(BM_KroneckerOperatorApply)->Unit(benchmark::kMicrosecond);

/// Tentpole kernel ablation: cache-blocked GEMM vs the naive triple loop
/// on the materialized joint steering matrix times a snapshot block.
void BM_GemmJointSteering(benchmark::State& state) {
  const bool blocked = state.range(0) == 1;
  const dsp::Grid aoa(0.0, 180.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 50);
  const CMat s = dsp::steering_matrix_joint(aoa, toa, kArray);
  CMat x(s.cols(), 8);
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      x(i, j) = cxd{0.01 * static_cast<double>((i + 2 * j) % 7),
                    0.005 * static_cast<double>(i % 5)};
    }
  }
  for (auto _ : state) {
    if (blocked) {
      benchmark::DoNotOptimize(linalg::matmul_blocked(s, x));
    } else {
      benchmark::DoNotOptimize(matmul(s, x));
    }
  }
  state.SetLabel(blocked ? "blocked" : "naive");
}
BENCHMARK(BM_GemmJointSteering)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// Tentpole kernel ablation: batched (reshape-trick) Kronecker block
/// apply vs a per-column loop over apply on the same operator.
void BM_KroneckerApplyMat(benchmark::State& state) {
  const bool batched = state.range(0) == 1;
  const dsp::Grid aoa(0.0, 180.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 50);
  const sparse::KroneckerOperator op(dsp::steering_matrix_aoa(aoa, kArray),
                                     dsp::steering_matrix_toa(toa, kArray));
  CMat x(op.cols(), 4);
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      x(i, j) = cxd{0.01 * static_cast<double>((i + j) % 11),
                    0.002 * static_cast<double>(i % 3)};
    }
  }
  CMat y;
  for (auto _ : state) {
    if (batched) {
      op.apply_mat_into(x, y);
    } else {
      apply_mat_percolumn(op, x, y);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(batched ? "batched (3 GEMMs)" : "per-column");
}
BENCHMARK(BM_KroneckerApplyMat)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

/// Section III-C: joint-solve cost vs grid size (N_theta * N_tau).
void BM_JointSolveScaling(benchmark::State& state) {
  const auto ntheta = static_cast<index_t>(state.range(0));
  const auto ntau = static_cast<index_t>(state.range(1));
  const dsp::Grid aoa(0.0, 180.0, ntheta);
  const dsp::Grid toa(0.0, 784e-9, ntau);
  const sparse::KroneckerOperator op(dsp::steering_matrix_aoa(aoa, kArray),
                                     dsp::steering_matrix_toa(toa, kArray));
  const CVec y = measurement_for(kArray, 1);
  sparse::SolveConfig cfg;
  cfg.max_iterations = 100;
  cfg.tolerance = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::solve_l1(op, y, cfg));
  }
  state.SetLabel("grid=" + std::to_string(ntheta) + "x" + std::to_string(ntau));
}
BENCHMARK(BM_JointSolveScaling)
    ->Args({46, 25})
    ->Args({91, 50})
    ->Args({181, 50})
    ->Unit(benchmark::kMillisecond);

/// One full-grid single-snapshot FISTA solve.
void BM_SolverFista(benchmark::State& state) {
  const dsp::Grid aoa(0.0, 180.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 50);
  const sparse::KroneckerOperator op(dsp::steering_matrix_aoa(aoa, kArray),
                                     dsp::steering_matrix_toa(toa, kArray));
  const CVec y = measurement_for(kArray, 2);
  sparse::SolveConfig cfg;
  cfg.max_iterations = 400;
  for (auto _ : state) {
    const auto r = sparse::solve_l1(op, y, cfg);
    benchmark::DoNotOptimize(r.iterations);
  }
}
BENCHMARK(BM_SolverFista)->Unit(benchmark::kMillisecond);


void BM_MusicJointSpectrum(benchmark::State& state) {
  channel::Path d;
  d.aoa_deg = 110.0;
  d.toa_s = 60e-9;
  d.gain = cxd{1.0, 0.0};
  std::mt19937_64 rng(3);
  CMat csi = channel::synthesize_csi({d}, kArray);
  channel::add_noise(csi, 15.0, rng);
  const music::SmoothingConfig sc;
  CMat r = music::sample_covariance(music::smooth_csi(csi, sc));
  r = music::forward_backward_average(r);
  const dsp::Grid aoa(0.0, 180.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(music::music_spectrum_joint(
        r, 3, aoa, toa, kArray, sc.sub_antennas, sc.sub_carriers));
  }
}
BENCHMARK(BM_MusicJointSpectrum)->Unit(benchmark::kMillisecond);

void BM_EigHermitian(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  CMat b(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) b(i, j) = cxd{g(rng), g(rng)};
  const CMat a = matmul(b, adjoint(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eig_hermitian(a));
  }
}
BENCHMARK(BM_EigHermitian)->Arg(3)->Arg(30)->Arg(90)->Unit(benchmark::kMicrosecond);

void BM_SvdSnapshots(benchmark::State& state) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> g(0.0, 1.0);
  CMat y(90, 30);
  for (index_t j = 0; j < 30; ++j)
    for (index_t i = 0; i < 90; ++i) y(i, j) = cxd{g(rng), g(rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::reduce_snapshots(y, 5));
  }
}
BENCHMARK(BM_SvdSnapshots)->Unit(benchmark::kMillisecond);

void BM_SanitizeCsi(benchmark::State& state) {
  channel::Path d;
  d.aoa_deg = 95.0;
  d.toa_s = 80e-9;
  d.gain = cxd{1.0, 0.0};
  channel::CsiImpairments imp;
  imp.detection_delay_s = 120e-9;
  const CMat csi = channel::synthesize_csi({d}, kArray, imp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::sanitize_csi(csi, kArray));
  }
}
BENCHMARK(BM_SanitizeCsi)->Unit(benchmark::kMicrosecond);

/// Ablation: fuse-then-solve vs solve-every-packet at equal data volume.
void BM_FusionVsPerPacket(benchmark::State& state) {
  const bool fuse = state.range(0) == 1;
  channel::Path d;
  d.aoa_deg = 100.0;
  d.toa_s = 60e-9;
  d.gain = cxd{1.0, 0.0};
  std::mt19937_64 rng(6);
  channel::BurstConfig bc;
  bc.num_packets = 15;
  bc.snr_db = 10.0;
  const auto burst = channel::generate_burst({d}, kArray, bc, rng);
  core::RoArrayConfig cfg;
  cfg.solver.max_iterations = 150;
  for (auto _ : state) {
    if (fuse) {
      benchmark::DoNotOptimize(core::roarray_estimate(burst.csi, cfg, kArray));
    } else {
      for (const auto& pkt : burst.csi) {
        const std::vector<CMat> one = {pkt};
        benchmark::DoNotOptimize(core::roarray_estimate(one, cfg, kArray));
      }
    }
  }
  state.SetLabel(fuse ? "l1-SVD fusion (one solve)" : "per-packet (15 solves)");
}
BENCHMARK(BM_FusionVsPerPacket)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// The coarse pass of coarse-to-fine: its decimations (4 on the 91-point
// AoA grid, 2 on the 50-point ToA grid) give a 23 x 25 operator, with
// the coarse pass's atom budget and stop.
void BM_SolverOmp(benchmark::State& state) {
  const dsp::Grid aoa = sparse::decimate_grid(dsp::Grid(0.0, 180.0, 91),
                                              sparse::kCoarseAoaDecimation);
  const dsp::Grid toa = sparse::decimate_grid(dsp::Grid(0.0, 784e-9, 50),
                                              sparse::kCoarseToaDecimation);
  const sparse::KroneckerOperator op(dsp::steering_matrix_aoa(aoa, kArray),
                                     dsp::steering_matrix_toa(toa, kArray));
  const CVec y = measurement_for(kArray, 2);
  sparse::OmpConfig cfg;
  cfg.max_atoms = sparse::kCoarseMaxCandidates;
  cfg.residual_tolerance = sparse::kCoarseResidualTolerance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::solve_omp(op, y, cfg));
  }
}
BENCHMARK(BM_SolverOmp)->Unit(benchmark::kMillisecond);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  CVec x(n);
  for (index_t i = 0; i < n; ++i) {
    x[i] = cxd{std::sin(0.1 * static_cast<double>(i)), 0.2};
  }
  for (auto _ : state) {
    CVec copy = x;
    dsp::fft_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_PowerDelayProfile(benchmark::State& state) {
  channel::Path d;
  d.aoa_deg = 95.0;
  d.toa_s = 120e-9;
  d.gain = cxd{1.0, 0.0};
  const CMat csi = channel::synthesize_csi({d}, kArray);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::power_delay_profile(csi, kArray));
  }
}
BENCHMARK(BM_PowerDelayProfile)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// BENCH_micro.json: the operator-cache / parallel-runtime report.
// Measures (1) estimation setup cost, fresh vs cache hit, (2) one joint
// solve with the Lipschitz constant recomputed per call vs taken from
// the cache, (3) a small fig6-style Monte Carlo end to end under the
// three execution modes (serial per-call setup, serial with cached
// operator, N-thread pool with cached operator), checking that all three
// produce bit-identical error samples, and (4) trace I/O throughput:
// CRC-32, encode and decode, checked against a byte-at-a-time CRC and
// the records the trace was written from.

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool same_samples(const std::vector<bench::SystemErrors>& a,
                  const std::vector<bench::SystemErrors>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].localization_m != b[s].localization_m) return false;
    if (a[s].aoa_deg != b[s].aoa_deg) return false;
  }
  return true;
}

/// Trace I/O throughput on an in-memory trace of the perfbench
/// serve_open shape: 256 clients, each heard by 3-6 APs (4.5 on
/// average) with 4 packets per AP, so 4608 records of 3 x 30 CSI.
struct TraceIoReport {
  std::size_t records = 0;
  std::size_t bytes = 0;
  /// CRC-32 throughput of each backend table on this machine, by name.
  std::vector<std::pair<std::string, double>> crc32_mb_s;
  double encode_mb_s = 0.0;
  double decode_mb_s = 0.0;
  bool crc32_matches_bytewise = false;
  bool crc32_tables_agree = false;
  bool decode_identical_to_recorded = false;
};

/// The plain byte-at-a-time CRC-32 every table must equal.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n) {
  std::uint32_t state = io::crc32_init();
  for (std::size_t i = 0; i < n; ++i) {
    state = linalg::backend::crc32_detail::kTable[(state ^ p[i]) & 0xFFU] ^
            (state >> 8);
  }
  return io::crc32_final(state);
}

TraceIoReport measure_trace_io() {
  using clock = std::chrono::steady_clock;
  constexpr int kReps = 5;
  constexpr std::uint64_t kClients = 256;
  constexpr index_t kPackets = 4;
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<io::TraceRecord> recorded;
  std::uint64_t tick = 0;
  for (std::uint64_t c = 0; c < kClients; ++c) {
    for (std::uint32_t ap = 0; ap < 3 + c % 4; ++ap) {
      for (index_t k = 0; k < kPackets; ++k) {
        io::TraceRecord rec;
        rec.ap_id = ap;
        rec.client_id = c;
        rec.timestamp_tick = tick++;
        rec.snr_db = 10.0 + 20.0 * unit(rng);
        rec.csi = CMat(kArray.num_antennas, kArray.num_subcarriers);
        for (index_t i = 0; i < rec.csi.size(); ++i) {
          rec.csi.data()[i] = cxd(unit(rng), unit(rng));
        }
        recorded.push_back(std::move(rec));
      }
    }
  }

  TraceIoReport r;
  r.records = recorded.size();
  std::string trace;
  double encode_ms = 1e300, decode_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    std::ostringstream os(std::ios::binary);
    auto t = clock::now();
    io::TraceWriter writer(os, kArray);
    for (const io::TraceRecord& rec : recorded) writer.append(rec);
    writer.flush();
    encode_ms = std::min(encode_ms, elapsed_ms(t));
    trace = os.str();
  }
  r.bytes = trace.size();
  const auto* bytes = reinterpret_cast<const unsigned char*>(trace.data());
  const double mb = static_cast<double>(r.bytes) / 1e6;
  // Every start offset modulo the 16-byte fold block, so the vector
  // kernel and the sliced loop meet every tail length.
  r.crc32_matches_bytewise = true;
  for (std::size_t off = 0; off < 16; ++off) {
    r.crc32_matches_bytewise =
        r.crc32_matches_bytewise &&
        io::crc32(bytes + off, trace.size() - off) ==
            crc32_bytewise(bytes + off, trace.size() - off);
  }
  // Each table over the whole trace, and over one record-sized window
  // at every offset (the reader's per-record call), against scalar.
  const linalg::backend::Backend& scalar = linalg::backend::scalar();
  const std::size_t window = trace.size() / r.records;
  r.crc32_tables_agree = true;
  for (const linalg::backend::Backend* be :
       {&scalar, linalg::backend::simd()}) {
    if (be == nullptr) continue;
    double crc_ms = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t = clock::now();
      benchmark::DoNotOptimize(
          be->crc32_update(io::crc32_init(), bytes, trace.size()));
      crc_ms = std::min(crc_ms, elapsed_ms(t));
    }
    r.crc32_mb_s.emplace_back(be->name, mb / (crc_ms / 1e3));
    for (std::size_t off = 0; off < 16; ++off) {
      for (const std::size_t n : {trace.size() - off, window}) {
        r.crc32_tables_agree =
            r.crc32_tables_agree &&
            be->crc32_update(io::crc32_init(), bytes + off, n) ==
                scalar.crc32_update(io::crc32_init(), bytes + off, n);
      }
    }
  }

  std::vector<io::ClientRound> rounds;
  for (int rep = 0; rep < kReps; ++rep) {
    std::istringstream in(trace, std::ios::binary);
    const auto t = clock::now();
    io::TraceReader reader(in);
    rounds = io::read_client_rounds(reader);
    decode_ms = std::min(decode_ms, elapsed_ms(t));
  }
  // The rounds regroup the records in order: client by client, AP by
  // AP, packet by packet, exactly as they were generated.
  std::size_t next = 0;
  bool same = rounds.size() == kClients;
  for (const io::ClientRound& round : rounds) {
    for (std::size_t a = 0; a < round.ap_ids.size(); ++a) {
      for (const CMat& csi : round.bursts[a]) {
        if (next == recorded.size()) {
          same = false;
          break;
        }
        const io::TraceRecord& want = recorded[next++];
        same = same && round.client_id == want.client_id &&
               round.ap_ids[a] == want.ap_id &&
               csi.size() == want.csi.size() &&
               std::memcmp(csi.data(), want.csi.data(),
                           static_cast<std::size_t>(csi.size()) *
                               sizeof(cxd)) == 0;
      }
    }
  }
  r.decode_identical_to_recorded = same && next == recorded.size();

  r.encode_mb_s = mb / (encode_ms / 1e3);
  r.decode_mb_s = mb / (decode_ms / 1e3);
  return r;
}

/// Returns false when the report could not be written (the CI smoke leg
/// depends on the file existing, so a write failure must fail the run).
/// `coarse_fine` adds the coarse_to_fine section (--coarse-fine flag).
[[nodiscard]] bool write_micro_report(const char* path, bool coarse_fine) {
  using clock = std::chrono::steady_clock;
  const dsp::Grid aoa = dsp::default_aoa_grid();
  const dsp::Grid toa = dsp::default_toa_grid();

  // (1) Setup: fresh build (steering factors + factored Lipschitz)
  // vs a warm cache hit.
  auto t = clock::now();
  const auto fresh = runtime::build_cached_operator(aoa, toa, kArray);
  const double setup_uncached_ms = elapsed_ms(t);

  runtime::OperatorCache cache;
  (void)cache.get(aoa, toa, kArray);
  t = clock::now();
  const auto hit = cache.get(aoa, toa, kArray);
  const double setup_cached_ms = elapsed_ms(t);

  // (2) One joint solve, Lipschitz recomputed per call vs cached hint.
  const CVec y = measurement_for(kArray, 11);
  sparse::SolveConfig scfg;
  scfg.max_iterations = 200;
  double solve_percall_ms = 1e300, solve_cached_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    sparse::SolveConfig per_call = scfg;
    t = clock::now();
    const auto r1 = sparse::solve_l1(hit->op, y, per_call);
    solve_percall_ms = std::min(solve_percall_ms, elapsed_ms(t));
    benchmark::DoNotOptimize(r1.iterations);

    sparse::SolveConfig hinted = scfg;
    hinted.lipschitz_hint = hit->norm_sq;
    t = clock::now();
    const auto r2 = sparse::solve_l1(hit->op, y, hinted);
    solve_cached_ms = std::min(solve_cached_ms, elapsed_ms(t));
    benchmark::DoNotOptimize(r2.iterations);
  }

  // (2b) Kernel-level ablations behind the solve numbers above. Each
  // timing is a best-of-3 minimum; each fast path is checked against its
  // reference on the spot so the report can double as a smoke test
  // (scripts/ci.sh fails if any flag below comes out false).

  // Blocked GEMM vs the naive triple loop on the materialized joint
  // steering matrix times an 8-column snapshot block.
  const CMat sj = dsp::steering_matrix_joint(aoa, toa, kArray);
  CMat xblk(sj.cols(), 8);
  for (index_t j = 0; j < xblk.cols(); ++j) {
    for (index_t i = 0; i < xblk.rows(); ++i) {
      xblk(i, j) = cxd{0.01 * static_cast<double>((i + 2 * j) % 7),
                       0.005 * static_cast<double>(i % 5)};
    }
  }
  double gemm_blocked_ms = 1e300, gemm_naive_ms = 1e300;
  CMat c_blocked, c_naive;
  for (int rep = 0; rep < 3; ++rep) {
    t = clock::now();
    c_blocked = linalg::matmul_blocked(sj, xblk);
    gemm_blocked_ms = std::min(gemm_blocked_ms, elapsed_ms(t));
    t = clock::now();
    c_naive = matmul(sj, xblk);
    gemm_naive_ms = std::min(gemm_naive_ms, elapsed_ms(t));
  }
  double gemm_max_abs_diff = 0.0;
  for (index_t j = 0; j < c_blocked.cols(); ++j) {
    for (index_t i = 0; i < c_blocked.rows(); ++i) {
      gemm_max_abs_diff = std::max(gemm_max_abs_diff,
                                   std::abs(c_blocked(i, j) - c_naive(i, j)));
    }
  }
  // The blocked path runs the active backend table (possibly SIMD with
  // FMA contraction) while naive matmul is plain scalar, so the
  // agreement bound is the gemm forward-error tolerance from
  // backend.hpp: 8 * eps * k * max|A| * max_j sum_l |B(l,j)|.
  double sj_amax = 0.0, xblk_colsum = 0.0;
  for (index_t j = 0; j < sj.cols(); ++j) {
    for (index_t i = 0; i < sj.rows(); ++i) {
      sj_amax = std::max(sj_amax, std::abs(sj(i, j)));
    }
  }
  for (index_t j = 0; j < xblk.cols(); ++j) {
    double s = 0.0;
    for (index_t i = 0; i < xblk.rows(); ++i) s += std::abs(xblk(i, j));
    xblk_colsum = std::max(xblk_colsum, s);
  }
  const double gemm_tol = 8.0 * std::numeric_limits<double>::epsilon() *
                          static_cast<double>(sj.cols()) * sj_amax *
                          xblk_colsum;
  const bool gemm_matches = gemm_max_abs_diff <= gemm_tol;

  // Batched (reshape-trick) Kronecker block apply vs a per-column loop
  // over apply / apply_adjoint; forward and adjoint must agree bit for
  // bit.
  CMat xk(hit->op.cols(), 4);
  for (index_t j = 0; j < xk.cols(); ++j) {
    for (index_t i = 0; i < xk.rows(); ++i) {
      xk(i, j) = cxd{0.01 * static_cast<double>((i + j) % 11),
                     0.002 * static_cast<double>(i % 3)};
    }
  }
  constexpr int kKronReps = 100;
  double kron_batched_ms = 1e300, kron_percol_ms = 1e300;
  CMat y_batched, y_percol;
  for (int rep = 0; rep < 3; ++rep) {
    t = clock::now();
    for (int i = 0; i < kKronReps; ++i) {
      hit->op.apply_mat_into(xk, y_batched);
    }
    kron_batched_ms = std::min(kron_batched_ms, elapsed_ms(t) / kKronReps);
    t = clock::now();
    for (int i = 0; i < kKronReps; ++i) {
      apply_mat_percolumn(hit->op, xk, y_percol);
    }
    kron_percol_ms = std::min(kron_percol_ms, elapsed_ms(t) / kKronReps);
  }
  CMat xa_batched, xa_percol;
  hit->op.apply_adjoint_mat_into(y_batched, xa_batched);
  apply_adjoint_mat_percolumn(hit->op, y_percol, xa_percol);
  bool kron_identical = true;
  for (index_t j = 0; j < y_batched.cols() && kron_identical; ++j) {
    for (index_t i = 0; i < y_batched.rows(); ++i) {
      if (y_batched(i, j) != y_percol(i, j)) {
        kron_identical = false;
        break;
      }
    }
  }
  for (index_t j = 0; j < xa_batched.cols() && kron_identical; ++j) {
    for (index_t i = 0; i < xa_batched.rows(); ++i) {
      if (xa_batched(i, j) != xa_percol(i, j)) {
        kron_identical = false;
        break;
      }
    }
  }

  // Full-grid group FISTA at a fixed iteration count, for the block
  // screen's counters (kernels.fista_screen).
  CMat yblk(hit->op.rows(), 3);
  for (index_t c = 0; c < yblk.cols(); ++c) {
    yblk.set_col(c,
                 measurement_for(kArray, 20 + static_cast<std::uint64_t>(c)));
  }
  sparse::SolveConfig gcfg;
  gcfg.max_iterations = 200;
  gcfg.tolerance = 0.0;
  gcfg.lipschitz_hint = hit->norm_sq;
  const sparse::GroupSolveResult g_fista =
      sparse::solve_group_l1(hit->op, yblk, gcfg);

  // (2c) Per-backend kernel comparison: the three vectorized hot
  // kernels routed through the scalar table vs the SIMD one, with the
  // table pinned explicitly per call (everything else in this report
  // runs whatever dispatch selected — see the "machine" object).
  // Timings are best-of-5 with the tables alternated inside each rep;
  // the agreement flags diff the outputs against the per-kernel
  // tolerances documented in backend.hpp and are deterministic, so the
  // ci.sh *_matches_* grep gates them. The speedup check is
  // deliberately named *_ok, NOT *_matches_*: a timing ratio on a
  // shared host is a perf signal, not a correctness identity the smoke
  // leg should fail on.
  namespace be = linalg::backend;
  const bool simd_available = be::simd() != nullptr;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  auto mat_max_diff = [](const CMat& a, const CMat& b) {
    double v = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) {
      for (index_t i = 0; i < a.rows(); ++i) {
        v = std::max(v, std::abs(a(i, j) - b(i, j)));
      }
    }
    return v;
  };

  // GEMM on the same joint-dictionary workload as the blocked/naive
  // ablation above (90 x 4641 dictionary times an 8-column block).
  double bkg_scalar_ms = 1e300, bkg_simd_ms = 1e300;
  double bkg_diff = 0.0, bkg_tol = 0.0;
  bool bkg_matches = false;
  {
    CMat g_scalar, g_simd;
    for (int rep = 0; rep < 5; ++rep) {
      t = clock::now();
      g_scalar = linalg::matmul_blocked(sj, xblk, &be::scalar());
      bkg_scalar_ms = std::min(bkg_scalar_ms, elapsed_ms(t));
      if (simd_available) {
        t = clock::now();
        g_simd = linalg::matmul_blocked(sj, xblk, be::simd());
        bkg_simd_ms = std::min(bkg_simd_ms, elapsed_ms(t));
      }
    }
    if (simd_available) {
      bkg_diff = mat_max_diff(g_scalar, g_simd);
      bkg_tol = gemm_tol;  // same shape and inputs as the ablation above
      bkg_matches = bkg_diff <= bkg_tol;
    }
  }

  // Steering build (the phase-recurrence kernel). The builders have no
  // backend parameter, so pin the process-global table via force() and
  // restore env/auto selection after. Unit-modulus entries, so the
  // phase_ramp tolerance (2 eps per recurrence step) scales with the
  // row count alone; x4 slack covers the sub-dictionary gain recurrence
  // layered on top.
  double bkr_scalar_ms = 1e300, bkr_simd_ms = 1e300;
  double bkr_diff = 0.0, bkr_tol = 0.0;
  bool bkr_matches = false;
  {
    CMat sj_scalar, sj_simd;
    for (int rep = 0; rep < 5; ++rep) {
      be::force(&be::scalar());
      t = clock::now();
      sj_scalar = dsp::steering_matrix_joint(aoa, toa, kArray);
      bkr_scalar_ms = std::min(bkr_scalar_ms, elapsed_ms(t));
      if (simd_available) {
        be::force(be::simd());
        t = clock::now();
        sj_simd = dsp::steering_matrix_joint(aoa, toa, kArray);
        bkr_simd_ms = std::min(bkr_simd_ms, elapsed_ms(t));
      }
    }
    be::force(nullptr);
    if (simd_available) {
      bkr_diff = mat_max_diff(sj_scalar, sj_simd);
      bkr_tol = 8.0 * kEps * static_cast<double>(sj_scalar.rows());
      bkr_matches = bkr_diff <= bkr_tol;
    }
  }

  // (3) fig6-style workload: RoArray over a few locations at medium SNR.
  bench::BenchOptions opts;
  opts.locations = 4;
  opts.packets = 8;
  opts.seed = 7;
  const sim::Testbed tb = sim::make_paper_testbed();
  std::mt19937_64 loc_rng(opts.seed);
  const auto clients =
      sim::sample_client_locations(opts.locations, tb.room, loc_rng);
  const std::vector<bench::System> systems = {bench::System::kRoArray};
  const sim::SnrBand band = sim::SnrBand::kMedium;

  // Each mode is deterministic per configuration, so best-of-3 timing
  // keeps the identity checks valid on whichever rep's samples we keep
  // while filtering out machine noise (the same policy as the solve
  // section above).
  std::vector<bench::SystemErrors> serial_percall, serial_cached,
      parallel_cached;
  double e2e_percall_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t = clock::now();
    serial_percall = bench::run_band(tb, clients, band, systems, opts);
    e2e_percall_ms = std::min(e2e_percall_ms, elapsed_ms(t));
  }

  bench::BenchOptions serial_opts = opts;
  serial_opts.threads = 1;
  bench::BenchRuntime rt1(serial_opts);
  double e2e_serial_cached_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t = clock::now();
    serial_cached =
        bench::run_band(tb, clients, band, systems, serial_opts, &rt1);
    e2e_serial_cached_ms = std::min(e2e_serial_cached_ms, elapsed_ms(t));
  }

  bench::BenchOptions par_opts = opts;
  par_opts.threads =
      std::max(4, runtime::ThreadPool::default_thread_count());
  bench::BenchRuntime rtn(par_opts);
  (void)rtn.cache.get(aoa, toa, kArray);  // warm, like a long-running service
  double e2e_parallel_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t = clock::now();
    parallel_cached =
        bench::run_band(tb, clients, band, systems, par_opts, &rtn);
    e2e_parallel_ms = std::min(e2e_parallel_ms, elapsed_ms(t));
  }

  const bool cached_identical = same_samples(serial_percall, serial_cached);
  const bool parallel_identical = same_samples(serial_cached, parallel_cached);

  // (4) Coarse-to-fine factored dictionary on the same fig6 workload,
  // serial per-call — directly comparable to serial_percall_ms above.
  // The pruned solve is not bit-identical to the full-grid solve, so
  // agreement is tolerance-based: every error sample must sit within
  // two fine-grid steps of its full-solve counterpart ("matches" flags;
  // scripts/ci.sh fails the smoke leg if any comes out false).
  double cf_percall_ms = 1e300, cf_cached_ms = 1e300;
  bool cf_aoa_matches_full = false;
  bool cf_count_matches_full = false;
  double cf_max_aoa_dev_deg = 0.0;
  if (coarse_fine) {
    bench::BenchOptions cf_opts = opts;
    cf_opts.coarse_fine = true;
    std::vector<bench::SystemErrors> cf_percall, cf_cached;
    for (int rep = 0; rep < 3; ++rep) {
      t = clock::now();
      cf_percall = bench::run_band(tb, clients, band, systems, cf_opts);
      cf_percall_ms = std::min(cf_percall_ms, elapsed_ms(t));
    }
    bench::BenchOptions cf_serial_opts = cf_opts;
    cf_serial_opts.threads = 1;
    bench::BenchRuntime cf_rt(cf_serial_opts);
    for (int rep = 0; rep < 3; ++rep) {
      t = clock::now();
      cf_cached =
          bench::run_band(tb, clients, band, systems, cf_serial_opts, &cf_rt);
      cf_cached_ms = std::min(cf_cached_ms, elapsed_ms(t));
    }

    // AoA error samples are angle_diff_deg against the same per-AP
    // truth in the same deterministic order, so sample-by-sample
    // deviation bounds how far the pruned solve moved each pick.
    const double aoa_tol = 2.0 * dsp::default_aoa_grid().step();
    cf_count_matches_full =
        cf_percall.size() == serial_percall.size() &&
        cf_percall.front().aoa_deg.size() ==
            serial_percall.front().aoa_deg.size();
    if (cf_count_matches_full) {
      const auto& full_s = serial_percall.front().aoa_deg;
      const auto& cf_s = cf_percall.front().aoa_deg;
      for (std::size_t i = 0; i < full_s.size(); ++i) {
        cf_max_aoa_dev_deg =
            std::max(cf_max_aoa_dev_deg, std::abs(cf_s[i] - full_s[i]));
      }
      cf_aoa_matches_full = cf_max_aoa_dev_deg <= aoa_tol;
    }
  }

  const TraceIoReport trace_io = measure_trace_io();

  const bool written = bench::write_json_report(path, [&](eval::JsonWriter& w) {
    w.begin_object();
    bench::emit_machine_provenance(w, par_opts.threads);
    w.key("workload").begin_object();
    w.key("figure").value("fig6-subset");
    w.key("locations").value(static_cast<std::int64_t>(opts.locations));
    w.key("packets").value(static_cast<std::int64_t>(opts.packets));
    w.key("aps").value(6);
    w.key("band").value("medium");
    w.end_object();
    w.key("op_setup").begin_object();
    w.key("uncached_ms").value(setup_uncached_ms);
    w.key("cached_hit_ms").value(setup_cached_ms);
    w.key("speedup").value(setup_uncached_ms / std::max(setup_cached_ms, 1e-6));
    w.end_object();
    w.key("solve").begin_object();
    w.key("lipschitz_per_call_ms").value(solve_percall_ms);
    w.key("cached_hint_ms").value(solve_cached_ms);
    w.key("speedup").value(solve_percall_ms / std::max(solve_cached_ms, 1e-6));
    w.end_object();
    w.key("kernels").begin_object();
    w.key("gemm_blocked_ms").value(gemm_blocked_ms);
    w.key("gemm_naive_ms").value(gemm_naive_ms);
    w.key("gemm_blocked_speedup")
        .value(gemm_naive_ms / std::max(gemm_blocked_ms, 1e-6));
    w.key("gemm_blocked_max_abs_diff").value(gemm_max_abs_diff);
    w.key("gemm_blocked_tolerance").value(gemm_tol);
    w.key("gemm_blocked_matches_naive").value(gemm_matches);
    w.key("kron_apply_mat_batched_ms").value(kron_batched_ms);
    w.key("kron_apply_mat_percolumn_ms").value(kron_percol_ms);
    w.key("kron_batched_speedup")
        .value(kron_percol_ms / std::max(kron_batched_ms, 1e-6));
    w.key("kron_batched_identical_to_percolumn").value(kron_identical);
    // The block screen's counters for the full-grid group solve above
    // (sparse::ScreenStats): gradients that formed the ToA correlation
    // of every block, and blocks the stale-reference drift bound cleared
    // versus blocks given the exact test.
    w.key("fista_screen").begin_object();
    w.key("iterations").value(static_cast<std::int64_t>(g_fista.iterations));
    w.key("full_correlates").value(g_fista.screen.full_correlates);
    w.key("drift_cleared").value(g_fista.screen.drift_cleared);
    w.key("exact_tested").value(g_fista.screen.exact_tested);
    w.end_object();
    w.end_object();
    w.key("backend_kernels").begin_object();
    w.key("simd_available").value(simd_available);
    w.key("gemm").begin_object();
    w.key("scalar_ms").value(bkg_scalar_ms);
    if (simd_available) {
      w.key("simd_ms").value(bkg_simd_ms);
      w.key("simd_speedup").value(bkg_scalar_ms / std::max(bkg_simd_ms, 1e-6));
      w.key("simd_speedup_target").value(3.0);
      w.key("simd_speedup_ok")
          .value(bkg_scalar_ms / std::max(bkg_simd_ms, 1e-6) >= 3.0);
      w.key("max_abs_diff").value(bkg_diff);
      w.key("tolerance").value(bkg_tol);
      w.key("simd_matches_scalar").value(bkg_matches);
    }
    w.end_object();
    w.key("steering_build").begin_object();
    w.key("scalar_ms").value(bkr_scalar_ms);
    if (simd_available) {
      w.key("simd_ms").value(bkr_simd_ms);
      w.key("simd_speedup").value(bkr_scalar_ms / std::max(bkr_simd_ms, 1e-6));
      w.key("max_abs_diff").value(bkr_diff);
      w.key("tolerance").value(bkr_tol);
      w.key("simd_matches_scalar").value(bkr_matches);
    }
    w.end_object();
    w.end_object();
    w.key("io").begin_object();
    w.key("records").value(static_cast<std::int64_t>(trace_io.records));
    w.key("bytes").value(static_cast<std::int64_t>(trace_io.bytes));
    w.key("crc32_mb_s").begin_object();
    for (const auto& [table, mb_s] : trace_io.crc32_mb_s) {
      w.key(table).value(mb_s);
    }
    w.end_object();
    w.key("encode_mb_s").value(trace_io.encode_mb_s);
    w.key("decode_mb_s").value(trace_io.decode_mb_s);
    w.key("crc32_matches_bytewise").value(trace_io.crc32_matches_bytewise);
    w.key("crc32_tables_agree").value(trace_io.crc32_tables_agree);
    w.key("decode_identical_to_recorded")
        .value(trace_io.decode_identical_to_recorded);
    w.end_object();
    w.key("fig6_end_to_end").begin_object();
    w.key("serial_percall_ms").value(e2e_percall_ms);
    w.key("serial_cached_ms").value(e2e_serial_cached_ms);
    w.key("parallel_cached_ms").value(e2e_parallel_ms);
    w.key("cached_speedup_vs_percall")
        .value(e2e_percall_ms / std::max(e2e_serial_cached_ms, 1e-6));
    w.key("parallel_cached_speedup_vs_percall")
        .value(e2e_percall_ms / std::max(e2e_parallel_ms, 1e-6));
    w.key("cached_identical_to_percall").value(cached_identical);
    w.key("parallel_identical_to_serial").value(parallel_identical);
    w.end_object();
    if (coarse_fine) {
      w.key("coarse_to_fine").begin_object();
      w.key("serial_percall_ms").value(cf_percall_ms);
      w.key("serial_cached_ms").value(cf_cached_ms);
      w.key("speedup_vs_full_percall")
          .value(e2e_percall_ms / std::max(cf_percall_ms, 1e-6));
      w.key("cached_speedup_vs_full_cached")
          .value(e2e_serial_cached_ms / std::max(cf_cached_ms, 1e-6));
      w.key("max_aoa_sample_dev_deg").value(cf_max_aoa_dev_deg);
      w.key("sample_count_matches_full").value(cf_count_matches_full);
      w.key("aoa_matches_full").value(cf_aoa_matches_full);
      w.end_object();
    }
    w.end_object();
  });
  if (!written) return false;
  std::printf("wrote %s (parallel identical to serial: %s)\n", path,
              parallel_identical ? "yes" : "NO");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --json [path] runs the runtime/cache report (and nothing else unless
  // benchmark flags follow); with no flags the google-benchmark suite
  // runs as before. --backend-info prints the compute-backend dispatch
  // decision and exits (the ci.sh backends leg probes it to skip the
  // simd pass gracefully on hardware without the vector units).
  const char* json_path = nullptr;
  bool coarse_fine = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_micro.json";
    } else if (std::strcmp(argv[i], "--coarse-fine") == 0) {
      coarse_fine = true;
    } else if (std::strcmp(argv[i], "--backend-info") == 0) {
      const auto d = roarray::linalg::backend::dispatch_info();
      std::printf(
          "requested=%s selected=%s simd_compiled=%d simd_supported=%d "
          "cpu_features=%s\n",
          d.requested, d.selected->name, d.simd_compiled ? 1 : 0,
          d.simd_supported ? 1 : 0, roarray::linalg::backend::cpu_features());
      return 0;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (json_path != nullptr) {
    if (!write_micro_report(json_path, coarse_fine)) return 1;
    if (rest.size() == 1) return 0;
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
