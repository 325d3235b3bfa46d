// The `scenario` ctest label: every registered scenario runs end-to-end
// through the declarative API for a few coarse cycles, so a broken scenario
// spec (bad mesh parameters, a source outside the domain, a material region
// painting nothing, a vacuous level census) fails fast in its own CI job
// without rerunning the full suite. Parameterized over scenarios::names() —
// a newly registered scenario is covered with zero test edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "conformance_utils.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::scenarios {
namespace {

class ScenarioRun : public testing::TestWithParam<std::string> {};

TEST_P(ScenarioRun, RunsEndToEndForAFewCycles) {
  auto spec = get(GetParam());
  spec.duration_cycles = std::min<real_t>(spec.duration_cycles, 3);
  // Check the state after every cycle: kinetic-energy growth between two
  // checks raises NumericalBlowup, so an unstable registered Courant number
  // fails here even when the blow-up has not reached Inf/NaN yet.
  spec.health_every = 1;

  const auto res = run(spec);

  // The run advanced and stayed stable.
  EXPECT_GT(res.end_time, 0);
  EXPECT_GT(res.element_applies, 0);
  ASSERT_FALSE(res.u.empty());
  for (real_t x : res.u) ASSERT_TRUE(std::isfinite(x));

  // Every builtin scenario is an *LTS* scenario: its refinement (geometric or
  // material-driven) must produce a real multi-level census.
  EXPECT_GE(res.num_levels, 2) << "scenario '" << GetParam() << "' does not exercise LTS";

  // Receivers sampled at every coarse cycle; sources/initial bumps injected
  // actual energy into at least one trace.
  ASSERT_EQ(res.trace_values.size(), spec.receivers.size());
  real_t tmax = 0;
  for (std::size_t r = 0; r < res.trace_values.size(); ++r) {
    EXPECT_FALSE(res.trace_times[r].empty()) << "receiver " << r;
    for (real_t x : res.trace_values[r]) {
      ASSERT_TRUE(std::isfinite(x));
      tmax = std::max(tmax, std::abs(x));
    }
  }
  if (!spec.receivers.empty()) {
    real_t umax = 0;
    for (real_t x : res.u) umax = std::max(umax, std::abs(x));
    EXPECT_GT(umax, 0) << "scenario '" << GetParam() << "' is vacuous — no energy in the field";
    EXPECT_GT(tmax, 0) << "scenario '" << GetParam()
                       << "' recorded no signal at any receiver — dead source or vacuous "
                          "receiver placement";
  }
}

std::string case_name(const testing::TestParamInfo<std::string>& info) {
  return conformance::alnum_case_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Registry, ScenarioRun, testing::ValuesIn(names()), case_name);

TEST(ScenarioRunThreaded, StripRunsOnEveryThreadedExecutor) {
  // The same declarative spec drives every backend: a smoke pass at 2 ranks
  // keeps the scenario label meaningful for the rank-parallel runtime
  // without turning it into a second conformance suite.
  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    auto spec = get("strip")
                    .with_executor("threaded/" + runtime::to_string(mode))
                    .with_ranks(2)
                    .with_cycles(2);
    spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    const auto res = run(spec);
    EXPECT_GT(res.end_time, 0) << runtime::to_string(mode);
    for (real_t x : res.u) ASSERT_TRUE(std::isfinite(x));
  }
}

} // namespace
} // namespace ltswave::scenarios
