#include "serve/service.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "channel/csi.hpp"

namespace roarray::serve {

namespace {

/// True when every CSI entry has a finite real and imaginary part. A NaN
/// or Inf would otherwise flow through sanitize, the SVD and the solver.
[[nodiscard]] bool all_finite(const linalg::CMat& csi) noexcept {
  const linalg::cxd* p = csi.data();
  for (index_t k = 0; k < csi.size(); ++k) {
    if (!std::isfinite(p[k].real()) || !std::isfinite(p[k].imag())) return false;
  }
  return true;
}

}  // namespace

const char* submit_status_name(SubmitStatus status) noexcept {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFull: return "queue-full";
    case SubmitStatus::kStopped: return "stopped";
    case SubmitStatus::kInvalidRequest: return "invalid-request";
  }
  return "unknown";
}

const char* response_status_name(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDeadlineExpired: return "deadline-expired";
    case ResponseStatus::kNoObservations: return "no-observations";
  }
  return "unknown";
}

void ServeConfig::validate() const {
  array.validate();
  if (ap_poses.empty()) {
    throw std::invalid_argument("ServeConfig: ap_poses must name at least one AP");
  }
  if (max_batch < 1) {
    throw std::invalid_argument("ServeConfig: max_batch must be >= 1");
  }
  if (queue_capacity < 1) {
    throw std::invalid_argument("ServeConfig: queue_capacity must be >= 1");
  }
  if (dispatchers < 0) {
    throw std::invalid_argument("ServeConfig: dispatchers must be >= 0");
  }
  if (latency_sample_cap < 1) {
    throw std::invalid_argument("ServeConfig: latency_sample_cap must be >= 1");
  }
  if (!std::isfinite(localize.grid_step_m) || localize.grid_step_m <= 0.0) {
    throw std::invalid_argument(
        "ServeConfig: localize.grid_step_m must be positive and finite");
  }
  if (localize.robust_min_aps < 2) {
    throw std::invalid_argument(
        "ServeConfig: localize.robust_min_aps must be >= 2");
  }
  // The estimator settings core::roarray_estimate rejects on every call:
  // accepting them would fail every batch (terminating a dispatcher
  // thread, or throwing out of drain() with no callback delivered).
  if (estimator.max_paths < 1) {
    throw std::invalid_argument(
        "ServeConfig: estimator.max_paths must be >= 1");
  }
  if (estimator.solver.max_iterations < 1) {
    throw std::invalid_argument(
        "ServeConfig: estimator.solver.max_iterations must be >= 1");
  }
  if (estimator.coarse_fine.enabled) estimator.coarse_fine.validate();
}

LocalizationService::LocalizationService(ServeConfig cfg,
                                         runtime::EstimateContext ctx)
    : cfg_(std::move(cfg)), ctx_(ctx) {
  cfg_.validate();
  stats_.batch_size_hist.assign(static_cast<std::size_t>(cfg_.max_batch), 0);
  dispatchers_.reserve(static_cast<std::size_t>(cfg_.dispatchers));
  for (int i = 0; i < cfg_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

LocalizationService::~LocalizationService() { stop(); }

SubmitStatus LocalizationService::submit(Request req, ResponseCallback on_done) {
  bool invalid = req.aps.empty();
  for (const ApSubmission& ap : req.aps) {
    if (ap.ap_id >= cfg_.ap_poses.size() || ap.packets.empty()) {
      invalid = true;
      break;
    }
    for (const linalg::CMat& csi : ap.packets) {
      if (csi.rows() != cfg_.array.num_antennas ||
          csi.cols() != cfg_.array.num_subcarriers || !all_finite(csi)) {
        invalid = true;
        break;
      }
    }
    if (invalid) break;
  }
  runtime::MutexLock lk(mutex_);
  if (req.submit_tick > now_) now_ = req.submit_tick;
  if (invalid) {
    ++stats_.rejected_invalid;
    return SubmitStatus::kInvalidRequest;
  }
  if (stopping_) {
    ++stats_.rejected_stopped;
    return SubmitStatus::kStopped;
  }
  if (static_cast<index_t>(queue_.size()) >= cfg_.queue_capacity) {
    ++stats_.rejected_queue_full;
    return SubmitStatus::kQueueFull;
  }
  Pending p;
  p.request_id = next_request_id_++;
  p.req = std::move(req);
  p.on_done = std::move(on_done);
  queue_.push_back(std::move(p));
  ++stats_.accepted;
  ready_cv_.notify_one();
  return SubmitStatus::kAccepted;
}

void LocalizationService::advance_time(Tick now) {
  runtime::MutexLock lk(mutex_);
  if (now > now_) now_ = now;
  // Linger windows and deadlines may have matured.
  ready_cv_.notify_all();
}

bool LocalizationService::batch_ready_locked(bool force) const {
  if (queue_.empty()) return false;
  if (force || static_cast<index_t>(queue_.size()) >= cfg_.max_batch ||
      cfg_.batch_linger_ticks == 0) {
    return true;
  }
  // Boundary convention (shared with the deadline checks below and in
  // take_batch_locked): a window of W ticks is over strictly after tick
  // submit + W, so a batch formed at exactly submit + W still lingers
  // and a request processed at exactly submit + deadline completes
  // normally.
  const Tick oldest = queue_.front().req.submit_tick;
  if (now_ > oldest + cfg_.batch_linger_ticks) return true;
  // An expired request at the front must be dropped promptly even while
  // the linger window is still open.
  return cfg_.deadline_ticks > 0 && now_ > oldest + cfg_.deadline_ticks;
}

bool LocalizationService::take_batch_locked(bool force,
                                            std::vector<Pending>& batch,
                                            std::vector<Pending>& expired) {
  if (!batch_ready_locked(force)) return false;
  while (!queue_.empty() &&
         static_cast<index_t>(batch.size()) < cfg_.max_batch) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    if (cfg_.deadline_ticks > 0 &&
        now_ > p.req.submit_tick + cfg_.deadline_ticks) {
      expired.push_back(std::move(p));
    } else {
      batch.push_back(std::move(p));
    }
  }
  in_flight_ += batch.size() + expired.size();
  if (!queue_.empty()) ready_cv_.notify_one();
  return !batch.empty() || !expired.empty();
}

void LocalizationService::process_batch(std::vector<Pending> batch,
                                        std::vector<Pending> expired) {
  // take_batch_locked already counted these requests into in_flight_;
  // if anything below throws before the stats block settles them, the
  // count must still come back down or drain()/stop() wedge forever
  // waiting for quiescence.
  auto settle_in_flight_on_error = [this, n = batch.size() + expired.size()] {
    runtime::MutexLock lk(mutex_);
    in_flight_ -= n;
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  };

  std::vector<Response> responses;
  try {
    // Per-AP fusion weights must come from the packets before the bursts
    // are moved into the flattened estimator input.
    std::vector<std::vector<double>> weights(batch.size());
    std::vector<core::CsiBurst> bursts;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Request& req = batch[i].req;
      weights[i].reserve(req.aps.size());
      for (ApSubmission& ap : req.aps) {
        weights[i].push_back(channel::burst_rssi_weight(ap.packets));
        bursts.push_back(std::move(ap.packets));
      }
    }
    std::vector<core::RoArrayResult> results;
    if (!bursts.empty()) {
      results = core::roarray_estimate_batch(bursts, cfg_.estimator, cfg_.array,
                                             ctx_);
    }

    responses.reserve(batch.size() + expired.size());
    std::size_t burst_index = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Pending& p = batch[i];
      Response r;
      r.request_id = p.request_id;
      r.client_id = p.req.client_id;
      r.submit_tick = p.req.submit_tick;
      std::vector<loc::ApObservation> observations;
      std::vector<std::size_t> obs_ap;  // observation slot -> ap_estimates index.
      r.ap_estimates.reserve(p.req.aps.size());
      for (std::size_t j = 0; j < p.req.aps.size(); ++j) {
        const core::RoArrayResult& est = results[burst_index++];
        ApEstimate ae;
        ae.ap_id = p.req.aps[j].ap_id;
        ae.valid = est.valid;
        ae.weight = weights[i][j];
        if (est.valid) {
          ae.aoa_deg = est.direct.aoa_deg;
          ae.toa_s = est.direct.toa_s;
          ae.power = est.direct.power;
          loc::ApObservation obs;
          obs.pose = cfg_.ap_poses[ae.ap_id];
          obs.aoa_deg = ae.aoa_deg;
          obs.weight = ae.weight;
          obs.toa_s = ae.toa_s;
          obs.has_toa = true;
          observations.push_back(obs);
          obs_ap.push_back(j);
        }
        r.ap_estimates.push_back(ae);
      }
      if (observations.empty()) {
        r.status = ResponseStatus::kNoObservations;
      } else {
        r.location = loc::localize(observations, cfg_.localize, ctx_.pool);
        // A degenerate round (e.g. every RSSI weight zero) now carries a
        // typed status out of the localizer instead of a bogus (0,0) fix.
        r.status = r.location.valid ? ResponseStatus::kOk
                                    : ResponseStatus::kNoObservations;
        if (r.location.used_fusion) {
          for (std::size_t k = 0; k < obs_ap.size(); ++k) {
            const fusion::ApDiagnostics& d = r.location.fusion.per_ap[k];
            ApEstimate& ae = r.ap_estimates[obs_ap[k]];
            ae.fused_inlier = d.inlier;
            ae.fused_residual_m = d.residual_m;
            ae.fused_toa_bias_s = d.toa_bias_s;
          }
        }
      }
      responses.push_back(std::move(r));
    }
    for (const Pending& p : expired) {
      Response r;
      r.request_id = p.request_id;
      r.client_id = p.req.client_id;
      r.submit_tick = p.req.submit_tick;
      r.status = ResponseStatus::kDeadlineExpired;
      responses.push_back(std::move(r));
    }
  } catch (...) {
    settle_in_flight_on_error();
    throw;
  }

  {
    runtime::MutexLock lk(mutex_);
    const Tick done = now_;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      Response& r = responses[i];
      r.done_tick = done;
      switch (r.status) {
        case ResponseStatus::kOk:
          ++stats_.completed_ok;
          if (r.location.used_fusion) {
            ++stats_.fusion_used;
            if (r.location.fusion.used_ransac) ++stats_.fusion_ransac;
            if (r.location.fusion.fallback != fusion::FusionFallback::kNone) {
              ++stats_.fusion_fallbacks;
            }
            stats_.fusion_ap_rejected += r.location.fusion.per_ap.size() -
                static_cast<std::size_t>(r.location.fusion.inliers);
          }
          break;
        case ResponseStatus::kNoObservations:
          ++stats_.completed_no_observations;
          break;
        case ResponseStatus::kDeadlineExpired:
          ++stats_.deadline_dropped;
          break;
      }
      if (r.status != ResponseStatus::kDeadlineExpired) {
        // Bounded ring: grow until latency_sample_cap, then overwrite
        // the oldest sample (latency_recorded % cap cycles through the
        // buffer), so a soak run cannot grow memory without limit.
        const auto cap = static_cast<std::size_t>(cfg_.latency_sample_cap);
        const double sample = static_cast<double>(r.done_tick - r.submit_tick);
        if (stats_.latency_ticks.size() < cap) {
          stats_.latency_ticks.push_back(sample);
        } else {
          stats_.latency_ticks[static_cast<std::size_t>(
              stats_.latency_recorded % cap)] = sample;
        }
        ++stats_.latency_recorded;
      }
    }
    if (!batch.empty()) {
      ++stats_.batches;
      ++stats_.batch_size_hist[batch.size() - 1];
    }
    in_flight_ -= batch.size() + expired.size();
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }

  // Callbacks run outside the lock and are user code: a throwing one
  // must not rob its siblings of their completion (every accepted
  // request gets its callback invoked) or escape into a dispatcher
  // thread (std::terminate). Exceptions are swallowed and counted.
  std::uint64_t callback_exceptions = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const ResponseCallback& cb =
        i < batch.size() ? batch[i].on_done : expired[i - batch.size()].on_done;
    if (!cb) continue;
    try {
      cb(responses[i]);
    } catch (...) {
      ++callback_exceptions;
    }
  }
  if (callback_exceptions > 0) {
    runtime::MutexLock lk(mutex_);
    stats_.callback_exceptions += callback_exceptions;
  }
}

bool LocalizationService::step(bool force) {
  std::vector<Pending> batch;
  std::vector<Pending> expired;
  {
    runtime::MutexLock lk(mutex_);
    if (!take_batch_locked(force, batch, expired)) return false;
  }
  process_batch(std::move(batch), std::move(expired));
  return true;
}

void LocalizationService::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    {
      runtime::MutexLock lk(mutex_);
      for (;;) {
        const bool force = stopping_ || drain_requests_ > 0;
        if (batch_ready_locked(force)) {
          (void)take_batch_locked(force, batch, expired);
          break;
        }
        if (stopping_) return;  // queue drained; shut down.
        ready_cv_.wait(mutex_);
      }
    }
    process_batch(std::move(batch), std::move(expired));
  }
}

bool LocalizationService::pump() { return step(false); }

void LocalizationService::drain() {
  // Manual mode: this thread is the only processor, so just run the
  // queue dry here. (Also covers hybrid use with dispatcher threads —
  // stepping concurrently is safe, the final wait below is what matters.)
  while (step(true)) {
  }
  runtime::MutexLock lk(mutex_);
  ++drain_requests_;
  ready_cv_.notify_all();
  while (!queue_.empty() || in_flight_ != 0) idle_cv_.wait(mutex_);
  --drain_requests_;
}

void LocalizationService::stop() {
  if (stop_done_.exchange(true)) return;
  {
    runtime::MutexLock lk(mutex_);
    stopping_ = true;
    ready_cv_.notify_all();
  }
  for (std::thread& t : dispatchers_) t.join();
  // Manual mode (no dispatchers) still owes every accepted request a
  // response: run the remaining queue dry on this thread.
  while (step(true)) {
  }
}

ServiceStats LocalizationService::stats() const {
  runtime::MutexLock lk(mutex_);
  return stats_;
}

index_t LocalizationService::queue_depth() const {
  runtime::MutexLock lk(mutex_);
  return static_cast<index_t>(queue_.size());
}

}  // namespace roarray::serve
