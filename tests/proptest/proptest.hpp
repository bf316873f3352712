// Dependency-free property-based testing on top of googletest.
//
// A property is checked over many generated inputs, each drawn from a
// deterministic per-case RNG stream. When a case fails, the input is
// shrunk — greedily, deterministically — to a minimal counterexample,
// and the failure report carries a single
//
//     ROARRAY_PROPTEST_SEED=<n>
//
// line. Re-running any proptest binary with that environment variable
// set replays exactly that case: the same value is generated and the
// same shrink path is walked, so the minimal counterexample reproduces
// deterministically (generation and shrinking consume no other
// randomness). replaying() tells a test it runs such a single-case
// replay, so it can leave out assertions about the whole sample.
//
// Environment knobs (all optional):
//   ROARRAY_PROPTEST_SEED       replay one case with this exact RNG seed.
//   ROARRAY_PROPTEST_BASE_SEED  change the base seed the per-case seeds
//                               derive from (soak runs randomize this).
//   ROARRAY_PROPTEST_CASES      override the per-property case count.
//   ROARRAY_PROPTEST_TIME_MS    per-property wall-clock budget; once
//                               exceeded no further cases are started
//                               (soak runs bound time, not case count).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/seed.hpp"

namespace roarray::proptest {

using Rng = std::mt19937_64;

/// A generator draws a value of T from the RNG (and nothing else — all
/// case randomness must flow through the RNG for seed replay to work).
template <typename T>
using Gen = std::function<T(Rng&)>;

/// A shrinker proposes strictly-simpler candidates for a failing value,
/// most aggressive first. It must be deterministic and must terminate:
/// repeated application of "first candidate that still fails" has to
/// reach a fixed point (candidates should be *smaller* in some
/// well-founded order). Empty result = nothing simpler to try.
template <typename T>
using Shrinker = std::function<std::vector<T>(const T&)>;

/// A property returns std::nullopt on success or a failure description.
template <typename T>
using Property = std::function<std::optional<std::string>(const T&)>;

/// Renders a counterexample for the failure report.
template <typename T>
using Show = std::function<std::string(const T&)>;

struct CheckConfig {
  int cases = 40;
  std::uint64_t base_seed = 0x5eedba5eULL;  ///< tier-1 default: fixed.
  int max_shrink_steps = 1000;
  /// 0 = no time budget. Overridden by ROARRAY_PROPTEST_TIME_MS.
  long time_budget_ms = 0;
};

namespace detail {

inline std::optional<std::uint64_t> env_u64(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::strtoull(v, nullptr, 10);
}

/// Applies the environment overrides to a property's local defaults.
inline CheckConfig resolve(CheckConfig cfg) {
  if (const auto s = env_u64("ROARRAY_PROPTEST_BASE_SEED")) cfg.base_seed = *s;
  if (const auto c = env_u64("ROARRAY_PROPTEST_CASES")) {
    cfg.cases = static_cast<int>(*c);
  }
  if (const auto t = env_u64("ROARRAY_PROPTEST_TIME_MS")) {
    cfg.time_budget_ms = static_cast<long>(*t);
  }
  return cfg;
}

/// Runs the property, folding any exception into a failure message so a
/// throwing case shrinks like any other counterexample.
template <typename T>
std::optional<std::string> run_property(const Property<T>& prop, const T& v) {
  try {
    return prop(v);
  } catch (const std::exception& e) {
    return std::string("unhandled exception: ") + e.what();
  } catch (...) {
    return std::string("unhandled non-standard exception");
  }
}

/// Greedy deterministic shrink: repeatedly replace the counterexample
/// with the first proposed candidate that still fails, until no
/// candidate fails or the step budget runs out. Returns the number of
/// successful shrink steps and updates value/failure in place.
template <typename T>
int shrink_to_minimal(const Shrinker<T>& shrink, const Property<T>& prop,
                      T& value, std::string& failure, int max_steps) {
  if (!shrink) return 0;
  int steps = 0;
  while (steps < max_steps) {
    bool advanced = false;
    for (T& candidate : shrink(value)) {
      if (auto err = run_property(prop, candidate)) {
        value = std::move(candidate);
        failure = std::move(*err);
        ++steps;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  return steps;
}

}  // namespace detail

/// True when ROARRAY_PROPTEST_SEED is set: check() then runs that one
/// case and nothing else. A property that asserts coverage over its
/// whole generated sample (some case reached a path) must skip that
/// assertion on a replay, or the printed reproduction line can never
/// pass.
[[nodiscard]] inline bool replaying() {
  return detail::env_u64("ROARRAY_PROPTEST_SEED").has_value();
}

/// Checks `prop` over generated inputs. On failure, shrinks to a
/// minimal counterexample and reports it through googletest (non-fatal,
/// so one gtest TEST can host several check() calls) together with the
/// single-line seed reproduction. Returns true when every case passed.
template <typename T>
bool check(const std::string& name, const Gen<T>& gen, const Property<T>& prop,
           const Shrinker<T>& shrink = {}, const Show<T>& show = {},
           CheckConfig cfg = {}) {
  using clock = std::chrono::steady_clock;
  cfg = detail::resolve(cfg);

  // Replay mode: one case, RNG seeded with exactly the printed value.
  const auto replay = detail::env_u64("ROARRAY_PROPTEST_SEED");
  const int cases = replay ? 1 : cfg.cases;
  const auto start = clock::now();

  for (int i = 0; i < cases; ++i) {
    if (!replay && cfg.time_budget_ms > 0 && i > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               clock::now() - start)
                               .count();
      if (elapsed >= cfg.time_budget_ms) break;
    }
    const std::uint64_t case_seed =
        replay ? *replay
               : runtime::derive_seed(cfg.base_seed,
                                      static_cast<std::uint64_t>(i));
    Rng rng(case_seed);
    T value = gen(rng);
    auto err = detail::run_property(prop, value);
    if (!err) continue;

    std::string failure = std::move(*err);
    const int steps = detail::shrink_to_minimal(shrink, prop, value, failure,
                                                cfg.max_shrink_steps);
    std::ostringstream os;
    os << "property '" << name << "' falsified (case " << (i + 1) << " of "
       << cases << ", minimized in " << steps << " shrink step"
       << (steps == 1 ? "" : "s") << ")\n";
    if (show) os << "  counterexample: " << show(value) << "\n";
    os << "  failure: " << failure << "\n"
       << "reproduce this exact counterexample with:\n"
       << "ROARRAY_PROPTEST_SEED=" << case_seed << "\n";
    ADD_FAILURE() << os.str();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Generator combinators.

/// Always produces `v`.
template <typename T>
Gen<T> constant(T v) {
  return [v](Rng&) { return v; };
}

/// Uniform double in [lo, hi].
inline Gen<double> in_range(double lo, double hi) {
  return [lo, hi](Rng& rng) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
}

/// Uniform integer in [lo, hi] (inclusive).
inline Gen<int> int_in_range(int lo, int hi) {
  return [lo, hi](Rng& rng) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
}

/// Uniformly one of the given values.
template <typename T>
Gen<T> element_of(std::vector<T> pool) {
  return [pool = std::move(pool)](Rng& rng) {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    return pool[pick(rng)];
  };
}

/// Applies f to the generated value.
template <typename T, typename F>
auto map(Gen<T> g, F f) -> Gen<decltype(f(std::declval<T>()))> {
  return [g = std::move(g), f = std::move(f)](Rng& rng) { return f(g(rng)); };
}

/// Vector whose length is drawn from `size` and elements from `elem`.
template <typename T>
Gen<std::vector<T>> vector_of(Gen<int> size, Gen<T> elem) {
  return [size = std::move(size), elem = std::move(elem)](Rng& rng) {
    const int n = size(rng);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.push_back(elem(rng));
    return out;
  };
}

// ---------------------------------------------------------------------------
// Shrinking building blocks.

/// Candidates between `v` and a simplest `target`: the target itself,
/// then geometric midpoints (each keeps roughly half the remaining
/// distance), then a decimal rounding of v. Strictly decreasing
/// distance-to-target guarantees the greedy loop terminates.
std::vector<double> shrink_double(double v, double target);

/// Integer shrink toward `target`: target first, then halvings, then
/// the immediate predecessor.
std::vector<int> shrink_int(int v, int target);

/// Vector shrink: drop the back half, drop single elements (back to
/// front), then shrink individual elements with `elem` (front first).
template <typename T>
std::vector<std::vector<T>> shrink_vector(const std::vector<T>& v,
                                          const Shrinker<T>& elem,
                                          std::size_t min_size = 0) {
  std::vector<std::vector<T>> out;
  if (v.size() > min_size) {
    const std::size_t keep =
        std::max(min_size, v.size() - (v.size() - min_size + 1) / 2);
    if (keep < v.size()) {
      out.emplace_back(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    for (std::size_t i = v.size(); i-- > 0;) {
      if (v.size() - 1 < min_size) break;
      std::vector<T> smaller;
      smaller.reserve(v.size() - 1);
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (j != i) smaller.push_back(v[j]);
      }
      out.push_back(std::move(smaller));
    }
  }
  if (elem) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (T& cand : elem(v[i])) {
        std::vector<T> copy = v;
        copy[i] = std::move(cand);
        out.push_back(std::move(copy));
      }
    }
  }
  return out;
}

inline std::vector<double> shrink_double(double v, double target) {
  std::vector<double> out;
  if (v == target) return out;
  out.push_back(target);
  // Geometric approach to the target; stop when the step underflows.
  double d = v - target;
  for (int i = 0; i < 8; ++i) {
    d *= 0.5;
    const double cand = target + d;
    if (cand == v || cand == target) break;
    out.push_back(cand);
  }
  // A 3-significant-digit rounding of v (often enough to make the
  // counterexample readable without changing the failure).
  std::ostringstream os;
  os.precision(3);
  os << v;
  const double rounded = std::strtod(os.str().c_str(), nullptr);
  if (rounded != v && rounded != target) out.push_back(rounded);
  return out;
}

inline std::vector<int> shrink_int(int v, int target) {
  std::vector<int> out;
  if (v == target) return out;
  out.push_back(target);
  int d = v - target;
  while (true) {
    d /= 2;
    if (d == 0) break;
    const int cand = target + d;
    if (cand != v && cand != target) out.push_back(cand);
  }
  const int pred = v > target ? v - 1 : v + 1;
  if (pred != target) out.push_back(pred);
  return out;
}

}  // namespace roarray::proptest
