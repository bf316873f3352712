// Self-tests for the property-testing framework itself: generator
// determinism, shrink convergence, the seed-reproduction contract, and
// the environment knobs. These guard the harness every other proptest
// suite stands on.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "generators.hpp"
#include "proptest.hpp"
#include "runtime/seed.hpp"

namespace pt = roarray::proptest;

namespace {

/// Restores (or clears) one environment variable on scope exit so tests
/// that exercise the env knobs cannot leak state into later tests.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    if (v != nullptr) saved_ = v;
  }
  EnvGuard(const char* name, const std::string& value) : EnvGuard(name) {
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~EnvGuard() {
    if (saved_) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

TEST(ProptestFramework, GeneratorsAreDeterministicPerSeed) {
  const auto gen = pt::in_range(-5.0, 5.0);
  pt::Rng a(123);
  pt::Rng b(123);
  pt::Rng c(124);
  const double va = gen(a);
  const double vb = gen(b);
  const double vc = gen(c);
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(ProptestFramework, DerivedCaseSeedsDifferAcrossCases) {
  const std::uint64_t s0 = roarray::runtime::derive_seed(7, 0);
  const std::uint64_t s1 = roarray::runtime::derive_seed(7, 1);
  const std::uint64_t t0 = roarray::runtime::derive_seed(8, 0);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s0, t0);
}

TEST(ProptestFramework, PassingPropertyReportsNoFailure) {
  const bool ok = pt::check<double>(
      "abs is non-negative", pt::in_range(-100.0, 100.0),
      [](const double& v) -> std::optional<std::string> {
        if (std::abs(v) >= 0.0) return std::nullopt;
        return "negative abs";
      });
  EXPECT_TRUE(ok);
}

TEST(ProptestFramework, IntShrinkConvergesToMinimalCounterexample) {
  // Property "x < 10" fails for any generated x >= 10; greedy shrinking
  // toward 0 must land exactly on the boundary value 10.
  int shrunk_to = -1;
  EXPECT_NONFATAL_FAILURE(
      {
        pt::check<int>(
            "small ints", pt::int_in_range(500, 1000),
            [&](const int& v) -> std::optional<std::string> {
              if (v < 10) return std::nullopt;
              shrunk_to = v;
              return "x >= 10";
            },
            [](const int& v) { return pt::shrink_int(v, 0); });
      },
      "ROARRAY_PROPTEST_SEED=");
  EXPECT_EQ(shrunk_to, 10);
}

TEST(ProptestFramework, VectorShrinkDropsToSingleOffendingElement) {
  // Failure = "contains an element >= 50". The minimal counterexample is
  // the one-element vector {50}.
  std::vector<int> last;
  EXPECT_NONFATAL_FAILURE(
      {
        pt::Shrinker<int> elem = [](const int& v) {
          return pt::shrink_int(v, 0);
        };
        pt::check<std::vector<int>>(
            "vectors stay small",
            pt::vector_of(pt::int_in_range(3, 8), pt::int_in_range(60, 90)),
            [&](const std::vector<int>& v) -> std::optional<std::string> {
              for (int x : v) {
                if (x >= 50) {
                  last = v;
                  return "element >= 50";
                }
              }
              return std::nullopt;
            },
            [elem](const std::vector<int>& v) {
              return pt::shrink_vector(v, elem);
            });
      },
      "falsified");
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], 50);
}

TEST(ProptestFramework, FailureReportCarriesReproducibleSeedLine) {
  // Capture the failure message, extract the seed, and replay it: the
  // replayed case must regenerate the identical pre-shrink value.
  double failing_value = 0.0;
  const pt::Gen<double> gen = pt::in_range(10.0, 20.0);
  const pt::Property<double> prop =
      [&](const double& v) -> std::optional<std::string> {
    failing_value = v;
    return "always fails";
  };

  testing::TestPartResultArray failures;
  {
    testing::ScopedFakeTestPartResultReporter reporter(
        testing::ScopedFakeTestPartResultReporter::INTERCEPT_ONLY_CURRENT_THREAD,
        &failures);
    pt::check<double>("always fails", gen, prop);
  }
  ASSERT_EQ(failures.size(), 1);
  const std::string msg = failures.GetTestPartResult(0).message();
  const auto pos = msg.find("ROARRAY_PROPTEST_SEED=");
  ASSERT_NE(pos, std::string::npos) << msg;
  const std::uint64_t seed =
      std::strtoull(msg.c_str() + pos + std::string("ROARRAY_PROPTEST_SEED=").size(),
                    nullptr, 10);
  const double original = failing_value;

  // Replay: env set, one case, same seed -> same generated value.
  EnvGuard guard("ROARRAY_PROPTEST_SEED", std::to_string(seed));
  testing::TestPartResultArray replay_failures;
  {
    testing::ScopedFakeTestPartResultReporter reporter(
        testing::ScopedFakeTestPartResultReporter::INTERCEPT_ONLY_CURRENT_THREAD,
        &replay_failures);
    pt::check<double>("always fails", gen, prop);
  }
  ASSERT_EQ(replay_failures.size(), 1);
  EXPECT_EQ(failing_value, original);
}

TEST(ProptestFramework, ReplayRunsOneCaseAndIsReported) {
  {
    EnvGuard cleared("ROARRAY_PROPTEST_SEED");
    ::unsetenv("ROARRAY_PROPTEST_SEED");
    EXPECT_FALSE(pt::replaying());
  }
  EnvGuard guard("ROARRAY_PROPTEST_SEED", "11");
  EXPECT_TRUE(pt::replaying());
  int invocations = 0;
  pt::check<int>("one case", pt::int_in_range(0, 100),
                 [&](const int&) -> std::optional<std::string> {
                   ++invocations;
                   return std::nullopt;
                 });
  EXPECT_EQ(invocations, 1);
}

TEST(ProptestFramework, ExceptionsAreFoldedIntoFailures) {
  EXPECT_NONFATAL_FAILURE(
      {
        pt::check<int>("throws", pt::int_in_range(1, 5),
                       [](const int&) -> std::optional<std::string> {
                         throw std::runtime_error("boom");
                       });
      },
      "unhandled exception: boom");
}

TEST(ProptestFramework, CasesEnvOverridesCaseCount) {
  EnvGuard guard("ROARRAY_PROPTEST_CASES", "5");
  int invocations = 0;
  pt::check<int>("count cases", pt::int_in_range(0, 100),
                 [&](const int&) -> std::optional<std::string> {
                   ++invocations;
                   return std::nullopt;
                 });
  EXPECT_EQ(invocations, 5);
}

TEST(ProptestFramework, BaseSeedEnvChangesGeneratedStream) {
  std::vector<double> first;
  std::vector<double> second;
  auto collect = [](std::vector<double>& sink) {
    return [&sink](const double& v) -> std::optional<std::string> {
      sink.push_back(v);
      return std::nullopt;
    };
  };
  {
    EnvGuard guard("ROARRAY_PROPTEST_BASE_SEED", "101");
    pt::check<double>("stream A", pt::in_range(0.0, 1.0), collect(first));
  }
  {
    EnvGuard guard("ROARRAY_PROPTEST_BASE_SEED", "202");
    pt::check<double>("stream B", pt::in_range(0.0, 1.0), collect(second));
  }
  ASSERT_EQ(first.size(), second.size());
  EXPECT_NE(first, second);
}

TEST(ProptestFramework, TimeBudgetStopsStartingNewCases) {
  EnvGuard cases("ROARRAY_PROPTEST_CASES", "100000");
  EnvGuard budget("ROARRAY_PROPTEST_TIME_MS", "20");
  int invocations = 0;
  pt::check<int>("slow cases", pt::int_in_range(0, 10),
                 [&](const int&) -> std::optional<std::string> {
                   ++invocations;
                   std::this_thread::sleep_for(std::chrono::milliseconds(5));
                   return std::nullopt;
                 });
  EXPECT_GE(invocations, 1);
  EXPECT_LT(invocations, 100000);
}

TEST(ProptestFramework, DoubleShrinkReachesTargetWhenTargetFails) {
  // If the target itself falsifies the property, shrinking must reach it
  // in one step (the target is proposed first).
  double last = -1.0;
  EXPECT_NONFATAL_FAILURE(
      {
        pt::check<double>(
            "never zero", pt::in_range(5.0, 9.0),
            [&](const double& v) -> std::optional<std::string> {
              last = v;
              return "all values fail";
            },
            [](const double& v) { return pt::shrink_double(v, 0.0); });
      },
      "falsified");
  EXPECT_EQ(last, 0.0);
}

TEST(ProptestFramework, DomainGeneratorsProduceValidObjects) {
  pt::Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const auto cfg = pt::gen_array_config(rng);
    EXPECT_NO_THROW(cfg.validate());
    const auto toa = pt::gen_toa_grid(cfg, rng);
    EXPECT_LE(toa.hi(), cfg.max_unambiguous_toa_s());
    const auto s = pt::gen_fuzz_scenario(rng);
    EXPECT_TRUE(s.room().contains(s.ap.position));
    EXPECT_TRUE(s.room().contains(s.client));
    EXPECT_GE(roarray::channel::distance(s.client, s.ap.position), 1.0);
    for (const auto& sc : s.scatterers) {
      EXPECT_TRUE(s.room().contains(sc));
    }
  }
}

TEST(ProptestFramework, ScenarioShrinkerMovesTowardSimplestScene) {
  pt::Rng rng(7);
  pt::FuzzScenario s = pt::gen_fuzz_scenario(rng);
  s.scatterers = {{1.0, 1.0}, {2.0, 2.0}};
  s.num_packets = 4;
  s.max_reflections = 2;
  // Greedy shrink with an always-failing property must terminate at the
  // simplest scene the shrinker can express.
  const auto shrink = pt::shrink_fuzz_scenario();
  const pt::Property<pt::FuzzScenario> always_fail =
      [](const pt::FuzzScenario&) -> std::optional<std::string> {
    return "fail";
  };
  std::string msg = "fail";
  pt::detail::shrink_to_minimal(shrink, always_fail, s, msg, 1000);
  EXPECT_TRUE(s.scatterers.empty());
  EXPECT_EQ(s.num_packets, 1);
  EXPECT_EQ(s.max_reflections, 0);
  EXPECT_EQ(s.max_detection_delay_s, 0.0);
  EXPECT_EQ(s.path_phase_jitter_rad, 0.0);
  EXPECT_EQ(s.snr_db, 30.0);
}

}  // namespace
