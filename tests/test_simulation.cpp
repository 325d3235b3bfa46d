// WaveSimulation facade tests: construction across physics/LTS settings,
// receiver sampling, work accounting, LTS/non-LTS consistency through the
// public API, and failure injection on invalid inputs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.hpp"
#include "runtime/threaded_lts.hpp"
#include "mesh/generators.hpp"

namespace ltswave::core {
namespace {

mesh::HexMesh refined_mesh() { return mesh::make_strip_mesh(12, 0.4, 4.0); }

std::vector<real_t> gaussian_state(const WaveSimulation& sim) {
  const std::size_t ndof =
      static_cast<std::size_t>(sim.space().num_global_nodes()) * static_cast<std::size_t>(sim.ncomp());
  std::vector<real_t> u0(ndof, 0.0);
  for (gindex_t g = 0; g < sim.space().num_global_nodes(); ++g) {
    const auto x = sim.space().node_coord(g);
    u0[static_cast<std::size_t>(g) * static_cast<std::size_t>(sim.ncomp())] =
        std::exp(-30.0 * (x[0] - 0.2) * (x[0] - 0.2));
  }
  return u0;
}

TEST(Simulation, LtsAssignsMultipleLevelsOnRefinedMesh) {
  SimulationConfig cfg;
  cfg.order = 2;
  WaveSimulation sim(refined_mesh(), cfg);
  EXPECT_GE(sim.levels().num_levels, 2);
  EXPECT_GT(sim.theoretical_speedup(), 1.0);
  EXPECT_GT(sim.dt(), 0);
}

TEST(Simulation, NonLtsIsSingleLevelAtGlobalMinimum) {
  SimulationConfig cfg;
  cfg.order = 2;
  cfg.executor = "newmark";
  WaveSimulation sim(refined_mesh(), cfg);
  EXPECT_EQ(sim.levels().num_levels, 1);
}

TEST(Simulation, RunAdvancesAndSamplesReceivers) {
  SimulationConfig cfg;
  cfg.order = 2;
  WaveSimulation sim(refined_mesh(), cfg);
  sim.add_receiver({0.5, 0.0, 0.0});
  const auto u0 = gaussian_state(sim);
  sim.set_state(u0, std::vector<real_t>(u0.size(), 0.0));

  const auto steps = sim.run(sim.dt() * 5.5); // non-divisible duration rounds up
  EXPECT_EQ(steps, 6);
  EXPECT_NEAR(sim.time(), 6 * sim.dt(), 1e-12);
  EXPECT_EQ(sim.receivers()[0].times().size(), 6u);
  EXPECT_GT(sim.element_applies(), 0);
}

TEST(Simulation, OnStepCallbackSeesMonotoneTime) {
  SimulationConfig cfg;
  cfg.order = 2;
  WaveSimulation sim(refined_mesh(), cfg);
  const auto u0 = gaussian_state(sim);
  sim.set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  real_t last = -1;
  sim.run(sim.dt() * 4, [&](real_t t) {
    EXPECT_GT(t, last);
    last = t;
  });
  EXPECT_NEAR(last, sim.time(), 1e-12);
}

TEST(Simulation, LtsAgreesWithNonLtsThroughFacade) {
  const auto m = refined_mesh();
  SimulationConfig cfg;
  cfg.order = 2;
  cfg.courant = 0.06;
  WaveSimulation lts(m, cfg);
  cfg.executor = "newmark";
  WaveSimulation ref(m, cfg);

  const auto u0 = gaussian_state(lts);
  const std::vector<real_t> v0(u0.size(), 0.0);
  lts.set_state(u0, v0);
  ref.set_state(u0, v0);

  const real_t duration = lts.dt() * 6;
  lts.run(duration);
  ref.run(duration);
  ASSERT_NEAR(lts.time(), ref.time(), lts.dt() * 0.5 + 1e-12);

  real_t diff = 0, scale = 0;
  for (std::size_t i = 0; i < u0.size(); ++i) {
    diff = std::max(diff, std::abs(lts.u()[i] - ref.u()[i]));
    scale = std::max(scale, std::abs(ref.u()[i]));
  }
  EXPECT_LT(diff, 0.12 * scale); // both second order at different steps
  // And LTS did measurably less work per simulated second.
  EXPECT_LT(lts.element_applies(), ref.element_applies());
}

TEST(Simulation, ElasticFacadeRuns) {
  SimulationConfig cfg;
  cfg.order = 2;
  cfg.physics = Physics::Elastic;
  WaveSimulation sim(refined_mesh(), cfg);
  EXPECT_EQ(sim.ncomp(), 3);
  sim.add_source({0.1, 0.0, 0.0}, 2.0, {0, 0, 1});
  const std::size_t ndof =
      static_cast<std::size_t>(sim.space().num_global_nodes()) * 3;
  const std::vector<real_t> zero(ndof, 0.0);
  sim.set_state(zero, zero);
  sim.run(sim.dt() * 3);
  real_t umax = 0;
  for (real_t v : sim.u()) umax = std::max(umax, std::abs(v));
  EXPECT_GT(umax, 0);     // source injected energy
  EXPECT_LT(umax, 1e6);   // and the run is stable
}

TEST(Simulation, ThreadedFacadeMatchesSerialForEveryScheduler) {
  const auto m = refined_mesh();
  SimulationConfig serial_cfg;
  serial_cfg.order = 2;
  WaveSimulation serial(m, serial_cfg);
  const auto u0 = gaussian_state(serial);
  const std::vector<real_t> v0(u0.size(), 0.0);
  serial.set_state(u0, v0);
  serial.run(serial.dt() * 4);

  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    SimulationConfig cfg;
    cfg.order = 2;
    cfg.executor = "threaded/" + runtime::to_string(mode);
    cfg.num_ranks = 4;
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    WaveSimulation sim(m, cfg);
    ASSERT_NE(sim.threaded(), nullptr);
    EXPECT_EQ(sim.threaded()->mode(), mode);
    EXPECT_EQ(sim.threaded()->num_ranks(), 4);
    EXPECT_EQ(sim.part().num_parts, 4);

    sim.set_state(u0, v0);
    sim.run(sim.dt() * 4);
    EXPECT_NEAR(sim.time(), serial.time(), 1e-12);
    EXPECT_EQ(sim.element_applies(), serial.element_applies());
    real_t diff = 0;
    for (std::size_t i = 0; i < u0.size(); ++i)
      diff = std::max(diff, std::abs(sim.u()[i] - serial.u()[i]));
    EXPECT_LT(diff, 1e-11) << to_string(mode);
  }
}

TEST(Simulation, ThreadedFacadeRunsPointSourcesAndReceivers) {
  // The scenario the serial-only wall used to block: sources + receivers at
  // num_ranks > 1 must reproduce the serial LTS run through the facade,
  // including the receiver traces drained from the runtime's per-rank
  // buffers.
  const auto m = refined_mesh();
  SimulationConfig serial_cfg;
  serial_cfg.order = 2;
  WaveSimulation serial(m, serial_cfg);
  serial.add_source({0.1, 0.0, 0.0}, 2.0, {1, 0, 0});
  serial.add_receiver({0.7, 0.0, 0.0});
  const std::size_t ndof = static_cast<std::size_t>(serial.space().num_global_nodes());
  const std::vector<real_t> zero(ndof, 0.0);
  serial.set_state(zero, zero);
  serial.run(serial.dt() * 5);
  ASSERT_EQ(serial.receivers()[0].times().size(), 5u);

  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    SimulationConfig cfg;
    cfg.order = 2;
    cfg.executor = "threaded/" + runtime::to_string(mode);
    cfg.num_ranks = 4;
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    WaveSimulation sim(m, cfg);
    sim.add_source({0.1, 0.0, 0.0}, 2.0, {1, 0, 0});
    sim.add_receiver({0.7, 0.0, 0.0});
    sim.set_state(zero, zero);
    sim.run(sim.dt() * 5);

    real_t diff = 0;
    for (std::size_t i = 0; i < ndof; ++i)
      diff = std::max(diff, std::abs(sim.u()[i] - serial.u()[i]));
    EXPECT_LT(diff, 1e-11) << to_string(mode);

    const auto& tr = sim.receivers()[0];
    ASSERT_EQ(tr.times().size(), 5u) << to_string(mode);
    for (std::size_t s = 0; s < 5; ++s) {
      EXPECT_NEAR(tr.times()[s], serial.receivers()[0].times()[s], 1e-12) << to_string(mode);
      EXPECT_NEAR(tr.values()[s], serial.receivers()[0].values()[s], 1e-11) << to_string(mode);
    }
  }
}

TEST(Simulation, ThreadedElementAppliesExactAcrossSplitRuns) {
  // Regression for the old llround(time()/dt) derivation, which could drift
  // once runs are split unevenly: the counter now comes from the solver's
  // integer cycle count and must stay exact over many fragmented calls.
  const auto m = refined_mesh();
  SimulationConfig cfg;
  cfg.order = 2;
  cfg.executor = "threaded/level-aware";
  cfg.num_ranks = 2;
  cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  WaveSimulation sim(m, cfg);
  const auto u0 = gaussian_state(sim);
  sim.set_state(u0, std::vector<real_t>(u0.size(), 0.0));

  std::int64_t cycles = 0;
  for (int chunk : {1, 3, 2, 5, 1, 7, 4}) {
    sim.run(sim.dt() * chunk);
    cycles += chunk;
    EXPECT_EQ(sim.threaded()->cycles_done(), cycles);
    EXPECT_EQ(sim.element_applies(), cycles * sim.structure().applies_per_cycle());
    EXPECT_EQ(sim.time(), static_cast<real_t>(cycles) * sim.dt());
  }

  SimulationConfig serial_cfg;
  serial_cfg.order = 2;
  WaveSimulation serial(m, serial_cfg);
  serial.set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  serial.run(serial.dt() * cycles);
  EXPECT_EQ(sim.element_applies(), serial.element_applies());
}

TEST(Simulation, FailureInjection) {
  // Empty mesh rejected by the SEM layer.
  EXPECT_THROW(WaveSimulation(mesh::HexMesh{}, {}), CheckFailure);
  // Mismatched state sizes rejected.
  SimulationConfig cfg;
  cfg.order = 2;
  WaveSimulation sim(refined_mesh(), cfg);
  std::vector<real_t> too_short(3, 0.0);
  EXPECT_THROW(sim.set_state(too_short, too_short), CheckFailure);
}

} // namespace
} // namespace ltswave::core
