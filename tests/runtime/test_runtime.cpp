// Tests for the estimation runtime: the deterministic thread pool, the
// steering-operator cache, and the batched estimation API's contract
// that results are bit-identical at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "channel/csi.hpp"
#include "core/roarray.hpp"
#include "runtime/operator_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/power.hpp"
#include "../test_util.hpp"

namespace roarray::runtime {
namespace {

namespace rt = roarray::testing;
using linalg::cxd;
using linalg::index_t;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    constexpr index_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](index_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (index_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const index_t n = 1 + (round % 17);
    std::atomic<index_t> sum{0};
    pool.parallel_for(n, [&](index_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, NestedParallelForRunsSerially) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](index_t outer) {
    pool.parallel_for(8, [&](index_t inner) {
      hits[static_cast<std::size_t>(outer * 8 + inner)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](index_t i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out = pool.map<index_t>(257, [](index_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (index_t i = 0; i < 257; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, EnvKnobParsesPositiveIntegers) {
  // Only checks the constructor-side clamping here; the env var itself
  // is read once per call and exercised by CI with ROARRAY_THREADS set.
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

TEST(ThreadAnnotations, MutexAndCondVarImplementLockableHandshake) {
  // The annotated wrappers must behave exactly like the std primitives
  // they wrap: exclusive try_lock, and a CondVar handshake that hands
  // a guarded value from one thread to another.
  Mutex m;
  ASSERT_TRUE(m.try_lock());
  std::atomic<bool> other_got_it{true};
  std::thread prober([&] { other_got_it.store(m.try_lock()); });
  prober.join();
  EXPECT_FALSE(other_got_it.load());
  m.unlock();

  CondVar cv;
  int stage = 0;  // guarded by m
  std::thread consumer([&] {
    MutexLock lk(m);
    while (stage != 1) cv.wait(m);
    stage = 2;
    cv.notify_all();
  });
  {
    MutexLock lk(m);
    stage = 1;
    cv.notify_all();
    while (stage != 2) cv.wait(m);
  }
  consumer.join();
  EXPECT_EQ(stage, 2);
}

TEST(OperatorCache, SameKeyReturnsSameInstance) {
  OperatorCache cache;
  const dsp::ArrayConfig arr;
  const dsp::Grid aoa(0.0, 180.0, 31);
  const dsp::Grid toa(0.0, 784e-9, 11);
  const auto a = cache.get(aoa, toa, arr);
  const auto b = cache.get(dsp::Grid(0.0, 180.0, 31), toa, arr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OperatorCache, DifferentGridsOrArrayGetDistinctEntries) {
  OperatorCache cache;
  const dsp::ArrayConfig arr;
  const dsp::Grid aoa(0.0, 180.0, 31);
  const dsp::Grid toa(0.0, 784e-9, 11);
  const auto base = cache.get(aoa, toa, arr);
  const auto finer_aoa = cache.get(dsp::Grid(0.0, 180.0, 61), toa, arr);
  const auto shifted_toa = cache.get(aoa, dsp::Grid(0.0, 700e-9, 11), arr);
  dsp::ArrayConfig wider = arr;
  wider.antenna_spacing_m *= 0.5;
  const auto other_array = cache.get(aoa, toa, wider);
  EXPECT_NE(base.get(), finer_aoa.get());
  EXPECT_NE(base.get(), shifted_toa.get());
  EXPECT_NE(base.get(), other_array.get());
  EXPECT_EQ(cache.size(), 4u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(OperatorCache, CachedNormMatchesFreshPowerIteration) {
  // The cached Lipschitz estimate must be the bit-identical value a
  // per-call solve would compute — that is what makes cached and
  // uncached estimation results exactly equal.
  OperatorCache cache;
  const dsp::ArrayConfig arr;
  const dsp::Grid aoa(0.0, 180.0, 31);
  const dsp::Grid toa(0.0, 784e-9, 11);
  const auto entry = cache.get(aoa, toa, arr);
  EXPECT_EQ(entry->norm_sq, sparse::operator_norm_sq(entry->op));
  EXPECT_EQ(entry->op.rows(), arr.num_antennas * arr.num_subcarriers);
  EXPECT_EQ(entry->op.cols(), aoa.size() * toa.size());
}

std::vector<core::CsiBurst> test_bursts(index_t count) {
  const dsp::ArrayConfig arr;
  std::vector<core::CsiBurst> bursts;
  for (index_t b = 0; b < count; ++b) {
    channel::Path direct;
    direct.aoa_deg = 60.0 + 10.0 * static_cast<double>(b);
    direct.toa_s = 50e-9 + 20e-9 * static_cast<double>(b);
    direct.gain = cxd{1.0, 0.0};
    channel::Path refl;
    refl.aoa_deg = 150.0 - 8.0 * static_cast<double>(b);
    refl.toa_s = 250e-9;
    refl.gain = cxd{0.5, 0.2};
    auto rng = rt::make_rng(900 + static_cast<std::uint64_t>(b));
    channel::BurstConfig bc;
    bc.num_packets = 3;
    bc.snr_db = 18.0;
    bursts.push_back(channel::generate_burst({direct, refl}, arr, bc, rng).csi);
  }
  return bursts;
}

void expect_identical_results(const core::RoArrayResult& a,
                              const core::RoArrayResult& b) {
  ASSERT_EQ(a.valid, b.valid);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t p = 0; p < a.paths.size(); ++p) {
    EXPECT_EQ(a.paths[p].aoa_deg, b.paths[p].aoa_deg);
    EXPECT_EQ(a.paths[p].toa_s, b.paths[p].toa_s);
    EXPECT_EQ(a.paths[p].power, b.paths[p].power);
  }
  EXPECT_EQ(a.direct.aoa_deg, b.direct.aoa_deg);
  EXPECT_EQ(a.direct.toa_s, b.direct.toa_s);
  const auto& av = a.spectrum.values;
  const auto& bv = b.spectrum.values;
  ASSERT_EQ(av.rows(), bv.rows());
  ASSERT_EQ(av.cols(), bv.cols());
  for (index_t j = 0; j < av.cols(); ++j) {
    for (index_t i = 0; i < av.rows(); ++i) {
      ASSERT_EQ(av(i, j), bv(i, j)) << "spectrum (" << i << "," << j << ")";
    }
  }
}

TEST(EstimateBatch, BitIdenticalAcrossThreadCountsAndVsPerCall) {
  const dsp::ArrayConfig arr;
  core::RoArrayConfig cfg;
  cfg.solver.max_iterations = 150;
  const auto bursts = test_bursts(4);

  // Reference: the legacy per-call API, no cache, no pool.
  std::vector<core::RoArrayResult> reference;
  for (const auto& b : bursts) {
    reference.push_back(core::roarray_estimate(b, cfg, arr));
  }

  OperatorCache cache;
  ThreadPool pool1(1), pool4(4);
  const auto serial =
      core::roarray_estimate_batch(bursts, cfg, arr, {&cache, &pool1});
  const auto parallel =
      core::roarray_estimate_batch(bursts, cfg, arr, {&cache, &pool4});

  ASSERT_EQ(serial.size(), bursts.size());
  ASSERT_EQ(parallel.size(), bursts.size());
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    expect_identical_results(serial[i], parallel[i]);
    expect_identical_results(reference[i], serial[i]);
  }
  EXPECT_EQ(cache.size(), 1u);  // one grid/array combination, shared.
}

TEST(EstimateBatch, OneBurstOnAFourLanePoolMatchesTheContextFreeCall) {
  // A one-burst batch is not a parallel region (parallel_for runs a
  // single index on the calling thread), so its estimate runs top-level
  // with the pool in its context. The solve takes no pool, and the
  // result is the context-free estimate bit for bit.
  const dsp::ArrayConfig arr;
  core::RoArrayConfig cfg;
  cfg.solver.max_iterations = 150;
  const auto bursts = test_bursts(1);
  const core::RoArrayResult reference =
      core::roarray_estimate(bursts[0], cfg, arr);

  OperatorCache cache;
  ThreadPool pool(4);
  const auto batch =
      core::roarray_estimate_batch(bursts, cfg, arr, {&cache, &pool});
  ASSERT_EQ(batch.size(), 1u);
  expect_identical_results(reference, batch[0]);
  EXPECT_EQ(batch[0].solver_iterations, reference.solver_iterations);
  EXPECT_EQ(batch[0].solver_converged, reference.solver_converged);
}

}  // namespace
}  // namespace roarray::runtime
