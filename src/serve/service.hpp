// In-process streaming localization service: clients submit per-round
// CSI (one burst per contacted AP), the service batches concurrent
// requests through core::roarray_estimate_batch on a shared runtime
// context, fuses per-AP AoA estimates with loc::localize, and delivers
// a Response through the caller's callback.
//
// Time is logical: the service never reads a clock. Callers stamp
// submissions with a monotonic Tick and push the current tick in via
// advance_time(); deadlines and batch linger are expressed in the same
// unit. Determinism contract: with dispatchers == 0 (manual pump()) the
// whole service is single-threaded and every outcome — batch splits,
// estimates, responses — is a pure function of the submission/tick
// sequence. With dispatcher threads, per-request estimates are still
// bit-identical to the offline pipeline (estimate_batch + localize);
// only batch grouping and response order depend on scheduling.
//
// Concurrency invariants (DESIGN.md §8): mutex_ is a leaf lock — it is
// never held across calls into the estimator, the localizer, the
// runtime pool/cache, or user callbacks. Queue admission, time, stats,
// and lifecycle flags are all guarded by it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/roarray.hpp"
#include "loc/localize.hpp"
#include "runtime/context.hpp"
#include "runtime/thread_annotations.hpp"

namespace roarray::serve {

using linalg::index_t;

/// Logical service time; callers define the unit (e.g. microseconds, or
/// packet indices when replaying a trace).
using Tick = std::uint64_t;

/// Service tuning knobs plus the estimation/localization configuration
/// every request shares.
struct ServeConfig {
  core::RoArrayConfig estimator;
  dsp::ArrayConfig array;
  loc::LocalizeConfig localize;
  /// Deployment geometry: ap_poses[i] is the pose of ap_id i. Requests
  /// naming an ap_id outside this table are rejected as invalid.
  std::vector<channel::ApPose> ap_poses;

  /// Most requests fused into one estimate_batch call.
  index_t max_batch = 8;
  /// Admission bound: submissions beyond this many queued requests are
  /// rejected with SubmitStatus::kQueueFull.
  index_t queue_capacity = 64;
  /// How long a non-full batch may wait for company before dispatch.
  /// Boundary convention (shared with deadline_ticks): a window of W
  /// ticks is over strictly after tick submit + W, so a batch is ready
  /// once it is full, or once now > the oldest member's submit_tick +
  /// batch_linger_ticks. 0 = dispatch greedily.
  Tick batch_linger_ticks = 0;
  /// Requests whose window has closed (now > submit_tick +
  /// deadline_ticks) at batch-formation time are completed with
  /// ResponseStatus::kDeadlineExpired instead of being estimated (never
  /// silently dropped); a request processed at exactly submit_tick +
  /// deadline_ticks completes normally. 0 disables deadlines.
  Tick deadline_ticks = 0;
  /// Dispatcher threads pulling batches off the queue. 0 = no threads;
  /// the caller drives processing with pump() / drain() (deterministic
  /// single-threaded mode for tests and replay).
  int dispatchers = 1;
  /// Bound on ServiceStats::latency_ticks: the sample buffer is a ring
  /// holding the most recent this-many completion latencies, so a soak
  /// run cannot grow service memory without limit. latency_recorded
  /// still counts every sample ever taken.
  index_t latency_sample_cap = 16384;

  /// Throws std::invalid_argument on nonsense (empty AP table, bad
  /// array geometry, non-positive batch/queue bounds, negative
  /// dispatcher count, non-positive localization grid step) and on the
  /// estimator settings every roarray_estimate call would reject
  /// (max_paths < 1, solver.max_iterations < 1, an enabled coarse_fine
  /// that fails CoarseFineConfig::validate()).
  void validate() const;
};

/// Admission outcome of LocalizationService::submit.
enum class SubmitStatus {
  kAccepted,
  kQueueFull,        ///< backpressure: queue_capacity requests pending.
  kStopped,          ///< service is stopping / stopped.
  kInvalidRequest,   ///< unknown ap_id, empty burst, CSI shape mismatch,
                     ///< or a non-finite (NaN / Inf) CSI entry.
};

[[nodiscard]] const char* submit_status_name(SubmitStatus status) noexcept;

/// Terminal state of an accepted request.
enum class ResponseStatus {
  kOk,
  kDeadlineExpired,  ///< batch formed after submit_tick + deadline_ticks.
  kNoObservations,   ///< every per-AP estimate came back invalid.
};

[[nodiscard]] const char* response_status_name(ResponseStatus status) noexcept;

/// One AP's contribution to a request: which AP heard the client and
/// the CSI packets it captured.
struct ApSubmission {
  std::uint32_t ap_id = 0;
  std::vector<linalg::CMat> packets;
};

/// One client's localization request (one measurement round).
struct Request {
  std::uint64_t client_id = 0;
  Tick submit_tick = 0;
  std::vector<ApSubmission> aps;
};

/// Per-AP estimate echoed back alongside the fused position.
struct ApEstimate {
  std::uint32_t ap_id = 0;
  bool valid = false;
  double aoa_deg = 0.0;
  double toa_s = 0.0;
  double power = 0.0;
  double weight = 0.0;  ///< RSSI fusion weight (channel::burst_rssi_weight).
  /// Robust-fusion verdict for this AP (meaningful only when valid and
  /// the response's location.used_fusion is set): did the fused position
  /// explain this AP, its geometric residual, and its estimated NLoS
  /// positive ToA bias (DESIGN.md §13).
  bool fused_inlier = false;
  double fused_residual_m = 0.0;
  double fused_toa_bias_s = 0.0;
};

struct Response {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  loc::LocalizeResult location;      ///< valid only when status == kOk.
  std::vector<ApEstimate> ap_estimates;  ///< empty when deadline-expired.
  Tick submit_tick = 0;
  Tick done_tick = 0;
};

/// Invoked exactly once per accepted request, after processing, outside
/// every service lock (re-entrant submit/advance_time from a callback
/// is allowed). May be empty. A thrown exception does not propagate:
/// the service swallows it (counted in ServiceStats::callback_exceptions)
/// so sibling callbacks in the batch still run and dispatcher threads
/// survive.
using ResponseCallback = std::function<void(const Response&)>;

/// Monotonic service counters. Snapshot via LocalizationService::stats.
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_stopped = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t deadline_dropped = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_no_observations = 0;
  std::uint64_t batches = 0;
  /// Response callbacks that threw (the exceptions are swallowed so the
  /// rest of the batch completes; see ResponseCallback).
  std::uint64_t callback_exceptions = 0;
  /// Robust-fusion health (see loc::LocalizeResult / fusion::FusionReport):
  /// completions that went through the fusion layer, how many of those
  /// escalated to the RANSAC hypothesis stage, how many ended on a
  /// non-kNone fallback reason, and the total APs the fused fix rejected
  /// as outliers.
  std::uint64_t fusion_used = 0;
  std::uint64_t fusion_ransac = 0;
  std::uint64_t fusion_fallbacks = 0;
  std::uint64_t fusion_ap_rejected = 0;
  /// batch_size_hist[k] = batches dispatched with k+1 requests.
  std::vector<std::uint64_t> batch_size_hist;
  /// Per-completed-request done_tick - submit_tick (excludes deadline
  /// drops). Bounded ring of the most recent ServeConfig::
  /// latency_sample_cap samples (oldest overwritten first); feed to
  /// eval::Cdf for percentiles. latency_recorded counts every sample
  /// ever taken, so `latency_recorded > latency_ticks.size()` tells a
  /// reader the ring wrapped.
  std::vector<double> latency_ticks;
  std::uint64_t latency_recorded = 0;
};

class LocalizationService {
 public:
  /// Validates `cfg` (throws std::invalid_argument) and starts
  /// cfg.dispatchers dispatcher threads. `ctx` members are borrowed and
  /// must outlive the service; both may be null (serial, per-call
  /// operator setup).
  explicit LocalizationService(ServeConfig cfg,
                               runtime::EstimateContext ctx = {});

  LocalizationService(const LocalizationService&) = delete;
  LocalizationService& operator=(const LocalizationService&) = delete;

  /// Drains and stops (same as stop()).
  ~LocalizationService() ROARRAY_EXCLUDES(mutex_);

  /// Validates and enqueues a request. On kAccepted the callback will
  /// be invoked exactly once; on any rejection it never is. submit also
  /// advances service time to req.submit_tick if that is ahead.
  SubmitStatus submit(Request req, ResponseCallback on_done)
      ROARRAY_EXCLUDES(mutex_);

  /// Advances service time (monotonic; lagging values are ignored) and
  /// wakes dispatchers so lingering batches and expired deadlines are
  /// re-examined.
  void advance_time(Tick now) ROARRAY_EXCLUDES(mutex_);

  /// Manual-mode step (dispatchers == 0, but legal in any mode):
  /// processes one ready batch on the calling thread. Returns false when
  /// no batch is ready under the linger rule.
  bool pump() ROARRAY_EXCLUDES(mutex_);

  /// Processes everything queued (ignoring linger) and blocks until no
  /// request is queued or in flight. The service keeps accepting
  /// submissions during and after a drain.
  void drain() ROARRAY_EXCLUDES(mutex_);

  /// Graceful shutdown: rejects new submissions (kStopped), processes
  /// every already-accepted request, then joins the dispatchers.
  /// Idempotent; called by the destructor.
  void stop() ROARRAY_EXCLUDES(mutex_);

  [[nodiscard]] ServiceStats stats() const ROARRAY_EXCLUDES(mutex_);
  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }

  /// Requests currently queued (admitted, not yet taken into a batch).
  /// Advisory: the value may be stale by the time the caller acts on it.
  [[nodiscard]] index_t queue_depth() const ROARRAY_EXCLUDES(mutex_);

 private:
  struct Pending {
    std::uint64_t request_id = 0;
    Request req;
    ResponseCallback on_done;
  };

  void dispatcher_loop() ROARRAY_EXCLUDES(mutex_);
  /// A batch can be dispatched now. `force` ignores the linger rule
  /// (used by drain/stop); an expired front request always counts as
  /// ready so deadline drops happen promptly.
  [[nodiscard]] bool batch_ready_locked(bool force) const
      ROARRAY_REQUIRES(mutex_);
  /// Pops one batch off the queue; deadline-expired requests go to
  /// `expired` instead (they do not consume batch slots). Returns false
  /// when nothing was popped.
  [[nodiscard]] bool take_batch_locked(bool force, std::vector<Pending>& batch,
                                       std::vector<Pending>& expired)
      ROARRAY_REQUIRES(mutex_);
  /// Runs estimation + localization for `batch`, completes `expired`,
  /// updates stats, and invokes callbacks. Never holds mutex_ across
  /// the estimator or callbacks.
  void process_batch(std::vector<Pending> batch, std::vector<Pending> expired)
      ROARRAY_EXCLUDES(mutex_);
  /// One take-and-process step; returns false when nothing was ready.
  bool step(bool force) ROARRAY_EXCLUDES(mutex_);

  const ServeConfig cfg_;
  const runtime::EstimateContext ctx_;

  mutable runtime::Mutex mutex_;
  runtime::CondVar ready_cv_;  ///< dispatchers sleep here for work.
  runtime::CondVar idle_cv_;   ///< drain()/stop() sleep here for quiescence.
  std::deque<Pending> queue_ ROARRAY_GUARDED_BY(mutex_);
  Tick now_ ROARRAY_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_request_id_ ROARRAY_GUARDED_BY(mutex_) = 1;
  /// Requests taken off the queue but not yet completed.
  std::uint64_t in_flight_ ROARRAY_GUARDED_BY(mutex_) = 0;
  /// Active drain() calls; while positive, linger is ignored.
  int drain_requests_ ROARRAY_GUARDED_BY(mutex_) = 0;
  bool stopping_ ROARRAY_GUARDED_BY(mutex_) = false;
  ServiceStats stats_ ROARRAY_GUARDED_BY(mutex_);

  std::vector<std::thread> dispatchers_;
  std::atomic<bool> stop_done_{false};
};

}  // namespace roarray::serve
