// The runtime context handed to estimation entry points: an optional
// operator cache (reuse per-grid setup across calls) and an optional
// thread pool. The pool is read only by core::roarray_estimate_batch,
// which fans its bursts out over it; each burst's estimate, solve and
// GEMMs run serially on the lane that took it. Both may be null — every
// consumer falls back to per-call setup / serial execution, producing
// bit-identical results either way.
#pragma once

namespace roarray::runtime {

class OperatorCache;
class ThreadPool;

struct EstimateContext {
  OperatorCache* cache = nullptr;  ///< non-owning; nullptr = build per call.
  ThreadPool* pool = nullptr;      ///< non-owning; nullptr = bursts run serial.
};

}  // namespace roarray::runtime
