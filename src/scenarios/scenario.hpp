#pragma once

/// \file scenario.hpp
/// Declarative scenario API: one ScenarioSpec describes a whole run — mesh
/// generator (or file), per-region materials, physics, order, CFL constant,
/// sources, receivers, initial condition, duration, and executor/scheduler
/// selection — and a named registry (scenarios::get("trench"), "crust",
/// "embedding", "layered", ...) shares those descriptions across examples,
/// benches and the conformance grid instead of each keeping a private copy.
///
/// The octree-LTS line (Fernando & Sundar) and the Grote et al. LTS work both
/// show that *scenario* diversity, not solver count, is what exercises an LTS
/// runtime — so scenarios are first-class: every registered scenario runs
/// end-to-end in the `scenario` ctest label, and the commonly swept knobs
/// (discretization, executor/scheduler selection, mesh generator and
/// resolution — see apply_override for the key list) take `key=value` CLI
/// overrides (apply_cli / from_args) so one binary drives any workload.
///
/// Ownership and thread-safety. ScenarioSpec is a plain value type: get()
/// hands out copies, fluent with_* setters mutate the caller's copy only, and
/// nothing in a spec refers back into the registry. The registry itself is a
/// process-global map; register_scenario is meant for start-up registration
/// and is not synchronized against concurrent get()/names() calls. run() and
/// make_simulation() allocate a fresh WaveSimulation per call (heap-allocated
/// because the facade pins internal references — see make_simulation), so
/// concurrent runs of independent specs are safe; sharing one RunResult or
/// simulation across threads is the caller's problem.

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "mesh/generators.hpp"
#include "resilience/recovery.hpp"

namespace ltswave::scenarios {

/// Mesh selection: one of the named parametric generators, or a mesh file in
/// the library's exchange format (mesh_io). Generator-specific knobs share
/// fields; a generator reads only the ones it understands.
struct MeshSpec {
  std::string generator = "box"; ///< box | strip | trench | trench-big | embedding | crust | file
  index_t n = 8;                 ///< base resolution along the longest axis
  index_t nz = 0;                ///< vertical layers (trench/crust); 0 = generator default
  real_t squeeze = 4.0;          ///< local compression factor (drives the LTS level census)
  real_t fine_frac = 0.4;        ///< strip: squeezed fraction
  real_t trench_halfwidth = 0.05;
  real_t depth_power = 3.0;
  real_t transition = 0.15;
  real_t radius = 0.3;           ///< embedding: influence radius
  std::array<real_t, 3> center = {0.5, 0.5, 0.5};
  real_t topo_amp = 0.0;         ///< crust: surface topography amplitude
  std::array<real_t, 3> extent = {1, 1, 1}; ///< box extents
  mesh::Material mat{};          ///< bulk material (regions paint over it)
  std::string path;              ///< file: path to a save_mesh file

  /// Builds the mesh; throws CheckFailure naming the known generators on an
  /// unknown `generator`.
  [[nodiscard]] mesh::HexMesh build() const;

  bool operator==(const MeshSpec&) const = default;
};

/// Paints `mat` onto every element whose centroid lies in the axis-aligned
/// box [lo, hi] — composable heterogeneous media over any generator or file.
struct MaterialRegion {
  std::array<real_t, 3> lo = {-1e30, -1e30, -1e30};
  std::array<real_t, 3> hi = {1e30, 1e30, 1e30};
  mesh::Material mat{};

  void apply(mesh::HexMesh& m) const;
  bool operator==(const MaterialRegion&) const = default;
};

struct SourceSpec {
  std::array<real_t, 3> location = {0.5, 0.5, 0.5};
  real_t peak_frequency = 1.0;
  std::array<real_t, 3> direction = {0, 0, 1};
  real_t amplitude = 1.0;
  bool operator==(const SourceSpec&) const = default;
};

struct ReceiverSpec {
  std::array<real_t, 3> location = {0.5, 0.5, 0.5};
  int component = 0;
  bool operator==(const ReceiverSpec&) const = default;
};

/// Smooth initial displacement bump:
///   u0[comp](x) = amplitude * exp(-width * sum_d mask[d] * (x[d]-center[d])^2)
/// mask selects the active axes (the quasi-1D conformance strip uses {1,0,0}).
struct InitialBump {
  std::array<real_t, 3> center = {0.5, 0.5, 0.5};
  std::array<real_t, 3> axis_mask = {1, 1, 1};
  real_t width = 25.0;
  real_t amplitude = 1.0;
  int component = 0;
  bool operator==(const InitialBump&) const = default;
};

/// Result of running a scenario end-to-end through the facade.
struct RunResult {
  std::vector<real_t> u;
  real_t end_time = 0;
  level_t num_levels = 0;
  std::int64_t element_applies = 0;
  std::vector<std::vector<real_t>> trace_times;  ///< per receiver
  std::vector<std::vector<real_t>> trace_values; ///< per receiver
  /// Structured performance report (per-phase timings, counters, roofline)
  /// with scenario name, config string and end-to-end wall time filled in.
  perf::RunReport report;
};

/// A whole run, declaratively. Fluent with_* setters return *this so specs
/// compose inline: scenarios::get("trench").with_ranks(4).with_order(2).
struct ScenarioSpec {
  std::string name;
  std::string description;
  MeshSpec mesh;
  std::vector<MaterialRegion> regions;
  core::Physics physics = core::Physics::Acoustic;
  int order = 2;
  real_t courant = 0.10;
  level_t max_levels = 12;
  /// Executor registry name — the one selector of backend and scheduler
  /// mode ("threaded/<mode>" executors also need num_ranks > 1).
  std::string executor = "serial-lts";
  /// Time-integrator name passthrough (`integrator=` key; see
  /// core/integrator.hpp): "newmark", or "leapfrog-stab" for the
  /// stabilized-leapfrog substep rule on the deepest LTS level.
  std::string integrator = "newmark";
  rank_t num_ranks = 0;
  runtime::SchedulerConfig scheduler{};
  partition::Strategy partitioner = partition::Strategy::ScotchP;
  int feedback_warmup_cycles = 0;
  /// Simulated duration in coarse LTS cycles (the coarse dt of the scenario's
  /// own level census, so every executor — including single-rate references —
  /// simulates the same physical span).
  real_t duration_cycles = 8;
  /// Health-guard cadence passthrough (`health-every` key; see
  /// core/simulation.hpp).
  std::int64_t health_every = 0;
  /// Deterministic fault-injection plan passthrough (`fault.*` keys).
  resilience::FaultPlan fault;
  /// Recovery policy for supervised runs (`recovery.*` keys). Consumed by
  /// resilience::Supervisor, not by the facade — plain runs ignore it.
  resilience::RecoveryPolicy recovery;
  std::vector<SourceSpec> sources;
  std::vector<ReceiverSpec> receivers;
  std::vector<InitialBump> initial;

  // --- fluent builders -----------------------------------------------------
  ScenarioSpec& with_order(int o) { order = o; return *this; }
  ScenarioSpec& with_physics(core::Physics p) { physics = p; return *this; }
  ScenarioSpec& with_courant(real_t c) { courant = c; return *this; }
  ScenarioSpec& with_executor(std::string name_) { executor = std::move(name_); return *this; }
  ScenarioSpec& with_integrator(std::string name_) { integrator = std::move(name_); return *this; }
  ScenarioSpec& with_ranks(rank_t ranks) { num_ranks = ranks; return *this; }
  ScenarioSpec& with_cycles(real_t cycles) { duration_cycles = cycles; return *this; }
  /// Omitting nz keeps the scenario's registered vertical layer count
  /// (pass 0 explicitly to restore the generator's own default).
  ScenarioSpec& with_mesh_resolution(index_t n_) {
    mesh.n = n_;
    return *this;
  }
  ScenarioSpec& with_mesh_resolution(index_t n_, index_t nz_) {
    mesh.n = n_;
    mesh.nz = nz_;
    return *this;
  }
  ScenarioSpec& with_source(SourceSpec s) { sources.push_back(s); return *this; }
  ScenarioSpec& with_receiver(ReceiverSpec r) { receivers.push_back(r); return *this; }
  ScenarioSpec& with_region(MaterialRegion r) { regions.push_back(r); return *this; }
  ScenarioSpec& with_initial(InitialBump b) { initial.push_back(b); return *this; }

  // --- realization ---------------------------------------------------------
  /// Generator mesh with the material regions painted on.
  [[nodiscard]] mesh::HexMesh build_mesh() const;

  /// The SimulationConfig this scenario describes.
  [[nodiscard]] core::SimulationConfig config() const;

  /// Coarse LTS step of this scenario on `m` (independent of the executor).
  [[nodiscard]] real_t coarse_dt(const mesh::HexMesh& m) const;

  /// Fully configured facade: mesh built, sources and receivers registered,
  /// initial state set. Heap-allocated because WaveSimulation pins internal
  /// references and is intentionally immovable.
  [[nodiscard]] std::unique_ptr<core::WaveSimulation> make_simulation() const;

  /// Applies one `key=value` override; throws CheckFailure listing the
  /// accepted keys on an unknown key or bad value.
  void apply_override(std::string_view key, std::string_view value);

  /// Applies a whole argv tail of `key=value` tokens.
  void apply_cli(std::span<const char* const> args);

  bool operator==(const ScenarioSpec&) const = default;
};

/// Duration of `spec` on an already-built simulation: duration_cycles coarse
/// LTS cycles. For LTS backends the sim's own dt *is* the coarse step; only
/// single-rate reference backends (running at the global minimum step) pay a
/// separate level census to recover it.
[[nodiscard]] real_t run_duration(const ScenarioSpec& spec, const core::WaveSimulation& sim);

/// Builds the simulation, runs duration_cycles coarse cycles, returns the
/// final state and the receiver seismograms.
[[nodiscard]] RunResult run(const ScenarioSpec& spec);

// --- registry --------------------------------------------------------------

/// Returns a copy of the named scenario (callers mutate their copy freely);
/// throws CheckFailure listing every registered name when unknown.
[[nodiscard]] ScenarioSpec get(std::string_view name);

[[nodiscard]] bool contains(std::string_view name);

/// All registered scenario names, sorted — tests, benches and the `scenario`
/// ctest label iterate this.
[[nodiscard]] std::vector<std::string> names();

/// Registers a scenario under spec.name; throws on duplicates or empty name.
void register_scenario(ScenarioSpec spec);

/// Every key apply_override accepts (simulation keys + scenario-only keys),
/// for usage lines — generated from the same constants as the error
/// messages, so help text cannot drift from the parser.
[[nodiscard]] std::string cli_keys_help();

/// from_args(argc-1, argv+1): reads an optional `scenario=<name>` selector
/// (default `default_name`), fetches it from the registry, then applies every
/// remaining key=value override in order.
[[nodiscard]] ScenarioSpec from_args(std::span<const char* const> args,
                                     std::string_view default_name);

} // namespace ltswave::scenarios
