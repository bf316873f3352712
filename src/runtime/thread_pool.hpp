// A small persistent thread pool with a deterministic parallel_for.
//
// The pool exists so Monte Carlo trial loops and the per-burst
// estimation fan-out (core::roarray_estimate_batch) share one set of
// worker threads instead of spawning ad hoc. Its jobs are top-level
// work items only: nothing below core (GEMMs, operators, the solver)
// takes a pool. A nested call — a bench's per-location job that calls
// roarray_estimate_batch on the same pool — runs serially on its lane
// rather than deadlock.
//
// Determinism contract: parallel_for runs body(i) exactly once for
// every i in [0, n); bodies must write to disjoint, index-addressed
// slots, and any reduction over those slots is done by the caller in
// index order — so results are bit-identical to a serial loop
// regardless of thread count or scheduling.
//
// Concurrency invariants (statically checked by clang -Wthread-safety
// via the annotations from runtime/thread_annotations.hpp):
//   - call_mutex_ serializes top-level parallel_for calls: at most one
//     job exists at a time, and the job descriptor (job_body_, job_n_,
//     job_chunk_, job_generation_, job_error_) plus stop_ are guarded
//     by mutex_.
//   - job_next_ / job_done_ / active_workers_ are atomics shared by the
//     claim loop; they are intentionally not mutex-guarded.
//   - The pointee of job_body_ (the caller's std::function) is only
//     dereferenced between job setup and the completion wait in the
//     same parallel_for call, during which it is immutable; the wait
//     for active_workers_ == 0 guarantees no straggler dereferences it
//     after parallel_for returns.
//
// Header-only: its users (roarray_core, roarray_serve, the benches)
// need no library for it, and loc::localize only forward-declares it
// for a parameter it ignores.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "linalg/types.hpp"
#include "runtime/thread_annotations.hpp"

namespace roarray::runtime {

using linalg::index_t;

namespace detail {
/// True while the current thread is executing a parallel_for body; used
/// to run nested parallel regions serially instead of deadlocking on the
/// single shared job slot.
inline thread_local bool in_parallel_region = false;
}  // namespace detail

class ThreadPool {
 public:
  /// Reads the thread-count knob: ROARRAY_THREADS if set to a positive
  /// integer, otherwise std::thread::hardware_concurrency (min 1).
  [[nodiscard]] static int default_thread_count() {
    if (const char* env = std::getenv("ROARRAY_THREADS")) {
      const int n = std::atoi(env);
      if (n > 0) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }

  /// Pool with `threads` total lanes of parallelism (the calling thread
  /// participates, so `threads - 1` workers are spawned).
  explicit ThreadPool(int threads = default_thread_count())
      : threads_(threads > 0 ? threads : 1) {
    for (int i = 0; i + 1 < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains before stopping: taking call_mutex_ first means any
  /// parallel_for already in flight on another thread finishes its job
  /// (and stops touching pool members) before the workers are told to
  /// exit — shutdown-while-busy is well-defined.
  ~ThreadPool() ROARRAY_EXCLUDES(call_mutex_, mutex_) {
    {
      MutexLock call_lk(call_mutex_);
      MutexLock lk(mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  /// Total parallelism degree (workers + the calling thread).
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Runs body(i) once for each i in [0, n), distributing contiguous
  /// chunks over the workers and the calling thread. Blocks until every
  /// index is done. The first exception thrown by a body is rethrown on
  /// the calling thread after the loop drains. Nested calls (from inside
  /// a body) execute serially on the calling thread.
  void parallel_for(index_t n, const std::function<void(index_t)>& body) const
      ROARRAY_EXCLUDES(call_mutex_, mutex_) {
    if (n <= 0) return;
    if (threads_ == 1 || n == 1 || detail::in_parallel_region) {
      run_serial(n, body);
      return;
    }
    // One job at a time; concurrent top-level callers queue up here.
    MutexLock call_lock(call_mutex_);
    {
      MutexLock lk(mutex_);
      job_body_ = &body;
      job_n_ = n;
      job_chunk_ = chunk_size(n);
      job_next_.store(0, std::memory_order_relaxed);
      job_done_.store(0, std::memory_order_relaxed);
      job_error_ = nullptr;
      ++job_generation_;
    }
    job_cv_.notify_all();
    work_on_current_job();
    // Wait until every index is done AND no worker is still inside the
    // claim loop — a straggler holding the old body pointer must not
    // observe the next job's counters.
    std::exception_ptr error;
    {
      MutexLock lk(mutex_);
      while (job_done_.load() < job_n_ || active_workers_.load() != 0) {
        done_cv_.wait(mutex_);
      }
      job_body_ = nullptr;
      error = job_error_;
    }
    if (error) std::rethrow_exception(error);
  }

  /// Deterministic map: slot i of the result receives fn(i). The output
  /// vector is index-ordered, so downstream reductions see results in
  /// exactly the order a serial loop would produce them.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(index_t n, Fn&& fn) const
      ROARRAY_EXCLUDES(call_mutex_, mutex_) {
    std::vector<T> out(static_cast<std::size_t>(n > 0 ? n : 0));
    parallel_for(n, [&](index_t i) { out[static_cast<std::size_t>(i)] = fn(i); });
    return out;
  }

 private:
  static void run_serial(index_t n, const std::function<void(index_t)>& body) {
    for (index_t i = 0; i < n; ++i) body(i);
  }

  [[nodiscard]] index_t chunk_size(index_t n) const {
    const index_t target = static_cast<index_t>(threads_) * 4;
    const index_t c = (n + target - 1) / target;
    return c > 0 ? c : 1;
  }

  /// Claims chunks of the current job until none remain. Runs on workers
  /// and on the submitting thread alike.
  void work_on_current_job() const ROARRAY_EXCLUDES(mutex_) {
    const std::function<void(index_t)>* body;
    index_t n, chunk;
    {
      MutexLock lk(mutex_);
      body = job_body_;
      n = job_n_;
      chunk = job_chunk_;
      if (body) active_workers_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (!body) return;
    detail::in_parallel_region = true;
    for (;;) {
      const index_t begin = job_next_.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const index_t end = begin + chunk < n ? begin + chunk : n;
      try {
        for (index_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        MutexLock lk(mutex_);
        if (!job_error_) job_error_ = std::current_exception();
      }
      if (job_done_.fetch_add(end - begin, std::memory_order_acq_rel) +
              (end - begin) >= n) {
        // Lock before notifying so a waiter between predicate check and
        // sleep cannot miss the wakeup.
        MutexLock lk(mutex_);
        done_cv_.notify_all();
      }
    }
    detail::in_parallel_region = false;
    if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lk(mutex_);
      done_cv_.notify_all();
    }
  }

  void worker_loop() const ROARRAY_EXCLUDES(mutex_) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        MutexLock lk(mutex_);
        while (!stop_ &&
               !(job_body_ != nullptr && job_generation_ != seen_generation &&
                 job_next_.load() < job_n_)) {
          job_cv_.wait(mutex_);
        }
        if (stop_) return;
        seen_generation = job_generation_;
      }
      work_on_current_job();
    }
  }

  const int threads_;
  std::vector<std::thread> workers_;

  /// Serializes top-level parallel_for calls (and drains them in the
  /// destructor). Always acquired before mutex_ — never the other way.
  mutable Mutex call_mutex_;
  /// Guards the per-job descriptor and the stop flag below.
  mutable Mutex mutex_;
  mutable CondVar job_cv_;   ///< workers sleep here between jobs.
  mutable CondVar done_cv_;  ///< the submitter sleeps here until done.
  mutable const std::function<void(index_t)>* job_body_
      ROARRAY_GUARDED_BY(mutex_) = nullptr;
  mutable index_t job_n_ ROARRAY_GUARDED_BY(mutex_) = 0;
  mutable index_t job_chunk_ ROARRAY_GUARDED_BY(mutex_) = 1;
  mutable std::uint64_t job_generation_ ROARRAY_GUARDED_BY(mutex_) = 0;
  mutable std::atomic<index_t> job_next_{0};
  mutable std::atomic<index_t> job_done_{0};
  mutable std::atomic<int> active_workers_{0};
  mutable std::exception_ptr job_error_ ROARRAY_GUARDED_BY(mutex_);
  mutable bool stop_ ROARRAY_GUARDED_BY(mutex_) = false;
};

}  // namespace roarray::runtime
