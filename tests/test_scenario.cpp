// ScenarioSpec / registry / config round-trip tests: the declarative
// scenario API (named registry, fluent builder, key=value CLI overrides,
// per-region materials) and the SimulationConfig to_string/parse round-trip
// over every registered executor, with clear error messages for bad CLI
// spellings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/executor.hpp"
#include "mesh/generators.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::scenarios {
namespace {

TEST(ScenarioRegistry, ListsBuiltinScenarios) {
  const auto all = names();
  for (const char* expected : {"strip", "trench", "crust", "embedding", "trench-big", "layered"}) {
    EXPECT_TRUE(contains(expected)) << expected;
    EXPECT_NE(std::find(all.begin(), all.end(), expected), all.end()) << expected;
    EXPECT_FALSE(get(expected).description.empty()) << expected;
    EXPECT_EQ(get(expected).name, expected);
  }
}

TEST(ScenarioRegistry, UnknownNameFailsListingRegistry) {
  try {
    (void)get("does-not-exist");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
    EXPECT_NE(msg.find("trench"), std::string::npos) << "message should list the registry";
  }
}

TEST(ScenarioRegistry, GetReturnsIndependentCopies) {
  auto a = get("strip");
  a.order = 99;
  a.mesh.n = 1234;
  EXPECT_EQ(get("strip").order, 2);
  EXPECT_NE(get("strip").mesh.n, 1234);
}

TEST(ScenarioSpec, EqualityComparesWholeSpecs) {
  // Exercises the defaulted operator== chain down through MeshSpec,
  // MaterialRegion and mesh::Material (a missing member operator== would
  // silently delete the whole comparison).
  EXPECT_TRUE(get("layered") == get("layered"));
  auto tweaked = get("layered");
  tweaked.regions.at(0).mat.vp *= 2;
  EXPECT_FALSE(tweaked == get("layered"));
}

TEST(ScenarioRegistry, RegisterAndRejectDuplicates) {
  ScenarioSpec s = get("strip");
  s.name = "test-only-custom";
  s.description = "registered by test_scenario";
  register_scenario(s);
  EXPECT_TRUE(contains("test-only-custom"));
  EXPECT_EQ(get("test-only-custom").description, "registered by test_scenario");
  EXPECT_THROW(register_scenario(s), CheckFailure);
  ScenarioSpec unnamed;
  EXPECT_THROW(register_scenario(unnamed), CheckFailure);
}

TEST(ScenarioSpec, FluentBuilderComposes) {
  const auto spec = get("strip")
                        .with_order(4)
                        .with_physics(core::Physics::Elastic)
                        .with_courant(0.05)
                        .with_executor("threaded/barrier-all")
                        .with_ranks(2)
                        .with_cycles(3)
                        .with_mesh_resolution(16)
                        .with_source({.location = {0.1, 0, 0}, .peak_frequency = 2.0})
                        .with_receiver({.location = {0.6, 0, 0}, .component = 1});
  EXPECT_EQ(spec.order, 4);
  EXPECT_EQ(spec.physics, core::Physics::Elastic);
  EXPECT_EQ(spec.courant, 0.05);
  EXPECT_EQ(spec.executor, "threaded/barrier-all");
  EXPECT_EQ(spec.num_ranks, 2);
  EXPECT_EQ(spec.duration_cycles, 3);
  EXPECT_EQ(spec.mesh.n, 16);
  EXPECT_EQ(spec.sources.size(), 1u);
  EXPECT_EQ(spec.receivers.size(), 3u); // strip's two plus the new one
}

TEST(ScenarioSpec, MaterialRegionsPaintHeterogeneousMedia) {
  const auto spec = get("layered");
  const auto m = spec.build_mesh();
  index_t slow = 0, fast = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) {
    if (m.material(e).vp < 1.5)
      ++slow;
    else
      ++fast;
  }
  EXPECT_GT(slow, 0) << "sedimentary layer region painted no elements";
  EXPECT_GT(fast, 0) << "basement material vanished";
  // The slow layer sits on top: every element above z=0.75 is slow.
  for (index_t e = 0; e < m.num_elems(); ++e) {
    if (m.centroid(e)[2] > 0.75) {
      EXPECT_LT(m.material(e).vp, 1.5);
    }
  }
  // Material contrast alone must produce a real multi-level census.
  const auto levels = core::assign_levels(m, spec.courant, spec.max_levels);
  EXPECT_GE(levels.num_levels, 2);
}

TEST(ScenarioSpec, CliOverridesApplyAndFailLoudly) {
  auto spec = get("strip");
  const char* args[] = {"order=3",           "physics=elastic", "ranks=4",
                        "oversubscribe=warn", "courant=0.2",     "cycles=4",
                        "n=10",               "executor=threaded/level-aware+steal"};
  spec.apply_cli(args);
  EXPECT_EQ(spec.order, 3);
  EXPECT_EQ(spec.physics, core::Physics::Elastic);
  EXPECT_EQ(spec.num_ranks, 4);
  EXPECT_EQ(spec.scheduler.oversubscribe, runtime::Oversubscribe::Warn);
  EXPECT_EQ(spec.courant, 0.2);
  EXPECT_EQ(spec.duration_cycles, 4);
  EXPECT_EQ(spec.mesh.n, 10);
  EXPECT_EQ(spec.executor, "threaded/level-aware+steal");

  EXPECT_THROW(spec.apply_override("ordre", "3"), CheckFailure);
  EXPECT_THROW(spec.apply_override("order", "three"), CheckFailure);
  try {
    spec.apply_override("oversubscribe", "sometimes");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    // The error must teach the accepted spellings.
    EXPECT_NE(std::string(e.what()).find("forbid | warn"), std::string::npos);
  }
}

TEST(ScenarioSpec, FromArgsSelectsScenarioThenOverrides) {
  const char* args[] = {"scenario=crust", "order=3"};
  const auto spec = from_args(args, "strip");
  EXPECT_EQ(spec.name, "crust");
  EXPECT_EQ(spec.order, 3);
  const auto fallback = from_args(std::span<const char* const>{}, "strip");
  EXPECT_EQ(fallback.name, "strip");
  const char* bad[] = {"scenario=unknown-place"};
  EXPECT_THROW((void)from_args(bad, "strip"), CheckFailure);
}

// ---------------------------------------------------------------------------
// Config round-trips
// ---------------------------------------------------------------------------

TEST(ConfigRoundTrip, SimulationConfigToStringParsesBack) {
  std::vector<core::SimulationConfig> grid;
  grid.emplace_back(); // defaults
  for (const auto& exec : core::ExecutorFactory::instance().names()) {
    core::SimulationConfig cfg;
    cfg.order = 3;
    cfg.physics = core::Physics::Elastic;
    cfg.courant = 0.123456789012345; // must survive max_digits10 formatting
    cfg.max_levels = 7;
    cfg.num_ranks = 8;
    cfg.feedback_warmup_cycles = 5;
    cfg.executor = exec;
    cfg.integrator = "leapfrog-stab";
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    grid.push_back(cfg);
  }
  for (const partition::Strategy s : partition::kAllStrategies) {
    core::SimulationConfig cfg;
    cfg.partitioner = s;
    grid.push_back(cfg);
  }
  for (const auto& cfg : grid)
    EXPECT_EQ(core::parse_simulation_config(core::to_string(cfg)), cfg) << core::to_string(cfg);

  try {
    (void)core::parse_simulation_config("ordre=4");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("order"), std::string::npos)
        << "message should teach the accepted keys";
  }
  EXPECT_THROW((void)core::parse_simulation_config("physics=quantum"), CheckFailure);
  EXPECT_THROW((void)core::parse_simulation_config("partitioner=zoltan"), CheckFailure);
  // Values that don't fit the destination type must throw, not wrap
  // (ranks=2^32+1 silently becoming 1 would run serially without a word).
  EXPECT_THROW((void)core::parse_simulation_config("ranks=4294967297"), CheckFailure);
  EXPECT_THROW((void)core::parse_simulation_config("max-levels=4294967296"), CheckFailure);
}

} // namespace
} // namespace ltswave::scenarios
