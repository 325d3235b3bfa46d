#include "core/simulation.hpp"

#include <cmath>
#include <sstream>

#include "common/kv.hpp"
#include "core/executor.hpp"
#include "core/integrator.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/error.hpp"
#include "resilience/health_guard.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::core {

std::string to_string(Physics p) {
  switch (p) {
    case Physics::Acoustic: return "acoustic";
    case Physics::Elastic: return "elastic";
  }
  return "unknown";
}

Physics parse_physics(std::string_view name) {
  if (name == "acoustic") return Physics::Acoustic;
  if (name == "elastic") return Physics::Elastic;
  LTS_CHECK_MSG(false, "unknown physics '" << name << "' (want acoustic | elastic)");
  return Physics::Acoustic;
}

std::string to_string(const SimulationConfig& cfg) {
  std::ostringstream os;
  os << "order=" << cfg.order << " physics=" << to_string(cfg.physics)
     << " courant=" << kv::format_real(cfg.courant) << " max-levels=" << cfg.max_levels
     << " ranks=" << cfg.num_ranks << " partitioner=" << partition::cli_name(cfg.partitioner)
     << " feedback=" << cfg.feedback_warmup_cycles << " executor=" << cfg.executor
     << " integrator=" << cfg.integrator
     << " scheduler.oversubscribe=" << runtime::to_string(cfg.scheduler.oversubscribe);
  // Opt-in keys print only when set, so configs that never touch them keep
  // the exact historical string (pinned in docs and reports). Defaults apply
  // to omitted keys on parse, so the round-trip guarantee holds either way.
  if (cfg.scheduler.watchdog_seconds != 0)
    os << " scheduler.watchdog=" << kv::format_real(cfg.scheduler.watchdog_seconds);
  if (cfg.health_every != 0) os << " health-every=" << cfg.health_every;
  if (cfg.fault != resilience::FaultPlan{})
    os << " fault.kind=" << resilience::to_string(cfg.fault.kind)
       << " fault.cycle=" << cfg.fault.cycle << " fault.rank=" << cfg.fault.rank
       << " fault.stall-ms=" << kv::format_real(cfg.fault.stall_ms)
       << " fault.seed=" << cfg.fault.seed;
  return os.str();
}

bool try_simulation_config_key(SimulationConfig& cfg, std::string_view key,
                               std::string_view value) {
  if (key == "order") {
    cfg.order = kv::parse_int_as<int>(key, value);
  } else if (key == "physics") {
    cfg.physics = parse_physics(value);
  } else if (key == "courant") {
    cfg.courant = kv::parse_real(key, value);
  } else if (key == "max-levels") {
    cfg.max_levels = kv::parse_int_as<level_t>(key, value);
  } else if (key == "ranks") {
    cfg.num_ranks = kv::parse_int_as<rank_t>(key, value);
  } else if (key == "partitioner") {
    cfg.partitioner = partition::parse_strategy(value);
  } else if (key == "feedback") {
    cfg.feedback_warmup_cycles = kv::parse_int_as<int>(key, value);
  } else if (key == "executor") {
    cfg.executor = value;
  } else if (key == "integrator") {
    // Validate and canonicalize eagerly: a typo should fail at parse time,
    // and aliases ("stabilized-leapfrog") should not leak into checkpoints.
    cfg.integrator = std::string(Integrator::parse(value).name());
  } else if (key == "oversubscribe" || key == "scheduler.oversubscribe") {
    cfg.scheduler.oversubscribe = runtime::parse_oversubscribe(value);
  } else if (key == "watchdog" || key == "scheduler.watchdog") {
    cfg.scheduler.watchdog_seconds = kv::parse_real(key, value);
    LTS_CHECK_MSG(cfg.scheduler.watchdog_seconds >= 0,
                  "watchdog wants a timeout in seconds >= 0 (0 = off), got '" << value << "'");
  } else if (key == "health-every") {
    cfg.health_every = kv::parse_int_as<std::int64_t>(key, value);
    LTS_CHECK_MSG(cfg.health_every >= -1,
                  "health-every wants -1 (off), 0 (per run() call) or a cycle stride, got '"
                      << value << "'");
  } else if (key == "fault.kind") {
    cfg.fault.kind = resilience::parse_fault_kind(value);
  } else if (key == "fault.cycle") {
    cfg.fault.cycle = kv::parse_int_as<std::int64_t>(key, value);
  } else if (key == "fault.rank") {
    cfg.fault.rank = kv::parse_int_as<int>(key, value);
  } else if (key == "fault.stall-ms") {
    cfg.fault.stall_ms = kv::parse_real(key, value);
  } else if (key == "fault.seed") {
    cfg.fault.seed = static_cast<std::uint64_t>(kv::parse_int_as<std::int64_t>(key, value));
  } else {
    return false;
  }
  return true;
}

std::string_view simulation_config_keys_help() {
  return "order | physics | courant | max-levels | ranks | partitioner | feedback | "
         "executor | integrator | [scheduler.]oversubscribe | [scheduler.]watchdog | "
         "health-every | fault.{kind,cycle,rank,stall-ms,seed}";
}

SimulationConfig parse_simulation_config(std::string_view text) {
  SimulationConfig cfg;
  for (const auto& [key, value] : kv::split(text))
    LTS_CHECK_MSG(try_simulation_config_key(cfg, key, value),
                  "unknown simulation config key '" << key << "' (want "
                                                    << simulation_config_keys_help() << ")");
  return cfg;
}

WaveSimulation::WaveSimulation(mesh::HexMesh mesh, SimulationConfig cfg)
    : cfg_(std::move(cfg)), mesh_(std::move(mesh)) {
  auto& factory = ExecutorFactory::instance();

  space_ = std::make_unique<sem::SemSpace>(mesh_, cfg_.order);
  if (cfg_.physics == Physics::Acoustic)
    op_ = std::make_unique<sem::AcousticOperator>(*space_);
  else
    op_ = std::make_unique<sem::ElasticOperator>(*space_);

  // The backend decides the level layout: LTS backends get the real
  // multi-level assignment, single-rate reference schemes ("newmark") run at
  // the global CFL minimum.
  levels_ = factory.uses_lts_levels(cfg_.executor)
                ? assign_levels(mesh_, cfg_.courant, cfg_.max_levels)
                : assign_single_level(mesh_, cfg_.courant);
  structure_ = build_lts_structure(*space_, levels_);

  ExecutorContext ctx;
  ctx.op = op_.get();
  ctx.levels = &levels_;
  ctx.structure = &structure_;
  ctx.mesh = &mesh_;
  ctx.space = space_.get();
  ctx.cfg = &cfg_;
  executor_ = factory.create(cfg_.executor, ctx);

  if (cfg_.health_every >= 0) guard_ = std::make_unique<resilience::HealthGuard>(*space_);
}

WaveSimulation::~WaveSimulation() = default;

real_t WaveSimulation::dt() const noexcept { return levels_.dt; }

real_t WaveSimulation::time() const noexcept { return executor_->time(); }

void WaveSimulation::add_source(std::array<real_t, 3> location, real_t peak_frequency,
                                std::array<real_t, 3> direction, real_t amplitude) {
  executor_->add_source(
      sem::PointSource::at(*space_, location, peak_frequency, direction, amplitude));
}

void WaveSimulation::add_receiver(std::array<real_t, 3> location, int component) {
  // Register with the backend first: if it rejects the receiver (bad
  // component for this physics), the facade list must not keep a phantom
  // entry that desyncs drain_receivers later.
  sem::Receiver rec(*space_, location, component);
  executor_->add_receiver(rec.node(), component);
  receivers_.push_back(std::move(rec));
}

void WaveSimulation::set_state(std::span<const real_t> u0, std::span<const real_t> v0) {
  executor_->set_state(u0, v0);
}

const std::vector<real_t>& WaveSimulation::u() const { return executor_->state(); }

std::int64_t WaveSimulation::element_applies() const { return executor_->element_applies(); }

std::int64_t WaveSimulation::blocks_applied() const { return executor_->blocks_applied(); }

perf::RunReport WaveSimulation::run_report() const {
  perf::RunReport r = executor_->run_report();
  r.config = to_string(cfg_);
  return r;
}

const runtime::ThreadedLtsSolver* WaveSimulation::threaded() const noexcept {
  return executor_->threaded_solver();
}

runtime::ThreadedLtsSolver* WaveSimulation::threaded() noexcept {
  return executor_->threaded_solver();
}

const partition::Partition& WaveSimulation::part() const noexcept {
  static const partition::Partition kEmpty{};
  const auto* p = executor_->partition();
  return p ? *p : kEmpty;
}

void WaveSimulation::refine_partition_from_feedback() {
  LTS_CHECK_MSG(executor_->supports_feedback(),
                "feedback repartitioning needs a rank-parallel executor (num_ranks > 1); '"
                    << cfg_.executor << "' is not one");
  executor_->refine_from_feedback();
  feedback_applied_ = true;
}

void WaveSimulation::advance(std::int64_t cycles, const std::function<void(real_t)>& on_step) {
  if (cycles <= 0) return;
  if (on_step) {
    for (std::int64_t s = 0; s < cycles; ++s) {
      executor_->advance_cycles(1);
      // Drain per cycle so the callback sees receiver traces grow as the run
      // progresses (draining clears the backend's copy, so the final drain in
      // run() never double-appends).
      executor_->drain_receivers(receivers_);
      on_step(time());
    }
  } else {
    // One backend dispatch for the whole span: receivers sample inside the
    // backend, so there is no reason to return to the caller every cycle.
    executor_->advance_cycles(cycles);
  }
}

std::int64_t WaveSimulation::run(real_t duration, const std::function<void(real_t)>& on_step) {
  const auto steps = static_cast<std::int64_t>(std::ceil(duration / dt() - 1e-12));
  std::int64_t remaining = steps;
  if (cfg_.feedback_warmup_cycles > 0 && !feedback_applied_ && executor_->supports_feedback()) {
    const auto warm = std::min<std::int64_t>(cfg_.feedback_warmup_cycles, remaining);
    advance(warm, on_step);
    remaining -= warm;
    // Repartition only when warm-up cycles actually executed: a zero-length
    // run() must not consume the one-shot feedback budget on empty counters
    // (a neutral-factor repartition would replace the initial partition with
    // an unmeasured one).
    if (warm > 0) refine_partition_from_feedback();
  }
  if (guard_ && cfg_.health_every > 0) {
    // Chunked advance: a blow-up is caught within health_every cycles of
    // where it started, keeping the rollback window (and any checkpoint
    // cadence layered on top) tight.
    while (remaining > 0) {
      const auto chunk = std::min<std::int64_t>(cfg_.health_every, remaining);
      advance(chunk, on_step);
      remaining -= chunk;
      guard_->check(*executor_);
    }
  } else {
    advance(remaining, on_step);
    if (guard_) guard_->check(*executor_);
  }
  executor_->drain_receivers(receivers_);
  return steps;
}

resilience::Checkpoint WaveSimulation::checkpoint() {
  // Fold any backend-buffered receiver samples into the facade history first:
  // the snapshot's trace arrays must be the complete record up to time().
  executor_->drain_receivers(receivers_);
  resilience::Checkpoint ck;
  ck.executor = cfg_.executor;
  ck.config = to_string(cfg_);
  ck.state = executor_->export_state();
  ck.traces.reserve(receivers_.size());
  for (const auto& rec : receivers_) ck.traces.push_back({rec.times(), rec.values()});
  return ck;
}

void WaveSimulation::restore(const resilience::Checkpoint& ck, bool allow_dt_change) {
  if (ck.traces.size() != receivers_.size())
    LTS_RAISE(resilience::CheckpointMismatch,
              "checkpoint carries " << ck.traces.size() << " receiver traces, simulation has "
                                    << receivers_.size()
                                    << " receivers — rebuild the facade from the same scenario "
                                       "before restoring");
  if (!allow_dt_change && std::abs(dt() - ck.state.dt) > real_t(1e-12) * dt())
    LTS_RAISE(resilience::CheckpointMismatch,
              "checkpoint was written at dt=" << ck.state.dt << ", this simulation runs dt="
                                              << dt()
                                              << " (pass allow_dt_change for deliberate "
                                                 "dt-changing restores, e.g. halve_dt recovery)");
  // Cross-backend restores are fine; cross-*integrator* ones are not — the
  // staggered (u, v^{t-dt/2}) pair means something different under each
  // substep rule, so a silent swap would corrupt the physics.
  if (Integrator::parse(ck.state.integrator) != Integrator::parse(cfg_.integrator))
    LTS_RAISE(resilience::CheckpointMismatch,
              "checkpoint was written by integrator '"
                  << Integrator::parse(ck.state.integrator).name()
                  << "', this simulation runs '" << Integrator::parse(cfg_.integrator).name()
                  << "' — rebuild with the matching integrator= key");
  executor_->import_state(ck.state);
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    receivers_[i].reset_samples();
    const auto& t = ck.traces[i];
    for (std::size_t s = 0; s < t.times.size(); ++s) receivers_[i].append(t.times[s], t.values[s]);
  }
  if (guard_) guard_->reset();
}

std::int64_t WaveSimulation::cycles() const { return executor_->cycles(); }

} // namespace ltswave::core
