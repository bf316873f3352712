// Memoization of the per-(grid, array) estimation setup.
//
// Every roarray_estimate call needs (1) the Kronecker steering factors
// A_theta / A_tau of the joint operator (paper Eq. 16) and (2) the
// Lipschitz constant lambda_max(S^H S) the proximal solvers step
// against, which sparse::operator_norm_sq takes from the factors as
// ||A_theta||^2 ||A_tau||^2. Neither depends on the measurements —
// only on the sampling grids and the array front end — so across
// packets, APs, and Monte Carlo trials they are identical. The cache
// builds each entry once and hands out a shared const pointer that is
// safe to use concurrently from any number of threads.
#pragma once

#include <map>
#include <memory>
#include <tuple>

#include "dsp/constants.hpp"
#include "dsp/grid.hpp"
#include "runtime/thread_annotations.hpp"
#include "sparse/coarse_fine.hpp"
#include "sparse/operator.hpp"

namespace roarray::runtime {

using linalg::index_t;

/// One fully-initialized, immutable estimation setup.
struct CachedOperator {
  sparse::KroneckerOperator op;  ///< shared joint steering operator.
  double norm_sq = 0.0;    ///< lambda_max(S^H S), sparse::operator_norm_sq(op).
};

/// Cache key: everything the steering factors depend on. Grids compare
/// by (lo, hi, n); the array by the physical quantities that enter the
/// steering phases and the operator shape.
struct OperatorKey {
  double aoa_lo = 0.0, aoa_hi = 0.0;
  index_t aoa_n = 0;
  double toa_lo = 0.0, toa_hi = 0.0;
  index_t toa_n = 0;
  index_t antennas = 0, subcarriers = 0;
  double spacing_over_wavelength = 0.0;
  double subcarrier_spacing_hz = 0.0;

  [[nodiscard]] static OperatorKey of(const dsp::Grid& aoa_grid,
                                      const dsp::Grid& toa_grid,
                                      const dsp::ArrayConfig& array_cfg);

  [[nodiscard]] auto tie() const {
    return std::tie(aoa_lo, aoa_hi, aoa_n, toa_lo, toa_hi, toa_n, antennas,
                    subcarriers, spacing_over_wavelength, subcarrier_spacing_hz);
  }
  [[nodiscard]] bool operator<(const OperatorKey& o) const {
    return tie() < o.tie();
  }
  [[nodiscard]] bool operator==(const OperatorKey& o) const {
    return tie() == o.tie();
  }
};

/// Thread-safe memo of CachedOperator entries. Entries are never
/// evicted (the working set is a handful of grid/array combinations);
/// call clear() between unrelated workloads if memory matters.
///
/// Concurrency invariant (checked by clang -Wthread-safety): the entry
/// map is guarded by mutex_; entries themselves are immutable once
/// published, so the shared_ptr handed out by get() is safe to use from
/// any thread with no further locking — even concurrently with clear().
class OperatorCache {
 public:
  /// Returns the shared entry for this (grids, array) combination,
  /// building it on first use. Equal keys always return the same
  /// instance; the entry is immutable and safe to share across threads.
  [[nodiscard]] std::shared_ptr<const CachedOperator> get(
      const dsp::Grid& aoa_grid, const dsp::Grid& toa_grid,
      const dsp::ArrayConfig& array_cfg) ROARRAY_EXCLUDES(mutex_);

  /// Entry for the decimated (coarse) companion of the fine grids, as
  /// used by the coarse-to-fine solve path. Just a convenience over
  /// get() on grids decimated by sparse::kCoarseAoaDecimation and
  /// sparse::kCoarseToaDecimation — coarse entries share the same memo,
  /// so repeated estimates reuse one coarse operator. `cf` is not read;
  /// it keeps the signature stable for callers.
  [[nodiscard]] std::shared_ptr<const CachedOperator> get_coarse(
      const dsp::Grid& fine_aoa_grid, const dsp::Grid& fine_toa_grid,
      const dsp::ArrayConfig& array_cfg,
      const sparse::CoarseFineConfig& cf) ROARRAY_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const ROARRAY_EXCLUDES(mutex_);
  void clear() ROARRAY_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<OperatorKey, std::shared_ptr<const CachedOperator>> entries_
      ROARRAY_GUARDED_BY(mutex_);
};

/// Builds one entry from scratch (what get() does on a miss). Exposed
/// for tests and for callers that want an uncached baseline.
[[nodiscard]] std::shared_ptr<const CachedOperator> build_cached_operator(
    const dsp::Grid& aoa_grid, const dsp::Grid& toa_grid,
    const dsp::ArrayConfig& array_cfg);

}  // namespace roarray::runtime
