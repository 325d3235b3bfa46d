#include "core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#include "common/timer.hpp"
#include "core/integrator.hpp"
#include "core/lts_newmark.hpp"
#include "core/simulation.hpp"
#include "partition/feedback.hpp"
#include "partition/partitioners.hpp"
#include "perf/roofline.hpp"
#include "resilience/error.hpp"
#include "resilience/fault.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::core {

namespace {

/// The integrator the simulation config asks for (default Newmark when no
/// config rides in the context — the standalone-solver construction path).
Integrator integrator_for(const ExecutorContext& ctx) {
  return ctx.cfg ? Integrator::parse(ctx.cfg->integrator) : Integrator::newmark();
}

/// Per-receiver trace accumulated by the serial adapters (the threaded
/// backend keeps equivalent traces inside the solver, per owning rank).
struct SerialTrace {
  std::vector<real_t> times;
  std::vector<real_t> values;
};

/// Appends every accumulated (time, value) sample into the matching sink and
/// clears the trace — the one drain semantic shared by all backends. Works on
/// any trace type exposing times/values vectors.
template <typename Traces>
void drain_traces(Traces& traces, std::span<sem::Receiver> sinks) {
  LTS_CHECK(sinks.size() == traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (std::size_t s = 0; s < traces[i].times.size(); ++s)
      sinks[i].append(traces[i].times[s], traces[i].values[s]);
    traces[i].times.clear();
    traces[i].values.clear();
  }
}

/// Shared implementation of the two serial adapters: both drive a solver with
/// the same set_state/step/u/add_source surface, sample receivers at every
/// cycle boundary from the solver's global displacement vector, and drain
/// traces identically. Only adopt_raw_state differs in arity, so subclasses
/// implement just the adopt hand-off.
template <typename Solver>
class SerialExecutorBase : public Executor {
public:
  [[nodiscard]] real_t time() const override { return solver_->time(); }
  [[nodiscard]] std::int64_t element_applies() const override { return solver_->element_applies(); }
  [[nodiscard]] std::int64_t blocks_applied() const override { return solver_->blocks_applied(); }
  [[nodiscard]] std::span<const real_t> v_half() const override { return solver_->v_half(); }
  [[nodiscard]] std::int64_t cycles() const override { return cycles_; }

  /// Serial backends have no ranks (the vectors stay empty) but do run the
  /// batched path, so the block counter is populated.
  [[nodiscard]] ExecutorCounters counters() const override {
    ExecutorCounters c;
    c.blocks_applied = solver_->blocks_applied();
    return c;
  }

  void drain_receivers(std::span<sem::Receiver> sinks) override { drain_traces(traces_, sinks); }

protected:
  SerialExecutorBase(std::string name, const ExecutorContext& ctx, std::unique_ptr<Solver> solver)
      : Executor(std::move(name)), ncomp_(ctx.op->ncomp()), solver_(std::move(solver)) {
    if (!ctx.cfg) return;
    fault_ = ctx.cfg->fault;
    // Mirrors the threaded backends' rank check: a rank count asks for a
    // rank-parallel run, which a serial backend must not silently ignore.
    LTS_CHECK_MSG(ctx.cfg->num_ranks <= 1,
                  "executor '" << this->name() << "' runs on one rank (got num_ranks="
                               << ctx.cfg->num_ranks
                               << ") — select executor=threaded/<mode> for a rank-parallel run");
  }

  void do_set_state(std::span<const real_t> u0, std::span<const real_t> v0) override {
    solver_->set_state(u0, v0);
  }
  void do_advance_cycles(std::int64_t cycles) override {
    for (std::int64_t s = 0; s < cycles; ++s) {
      maybe_inject_fault_pre();
      solver_->step();
      maybe_inject_fault_post();
      if (!traces_.empty()) {
        const WallTimer timer;
        sample_receivers();
        receivers_seconds_ += timer.seconds();
        ++receivers_count_;
      }
      ++cycles_;
    }
  }
  const std::vector<real_t>* direct_state() const override { return &solver_->u(); }
  void gather_state(std::vector<real_t>& out) const override { out = solver_->u(); }
  void do_add_source(const sem::PointSource& src) override { solver_->add_source(src); }
  void do_add_receiver(gindex_t node, int component) override {
    // Same loud rejection the threaded backend gives — an acoustic run with a
    // component=2 receiver must not silently sample the wrong DOF.
    LTS_CHECK_MSG(component >= 0 && component < ncomp_,
                  "receiver component " << component << " out of range for ncomp " << ncomp_);
    LTS_CHECK_MSG(node >= 0 && (static_cast<std::size_t>(node) + 1) *
                                       static_cast<std::size_t>(ncomp_) <=
                                   solver_->u().size(),
                  "receiver node " << node << " outside the global node range");
    traces_.emplace_back();
  }

  /// Throw-faults fire on the step boundary *before* the addressed cycle runs
  /// (matching the threaded driver-thread semantics); nan/stall fire after it
  /// completes, mirroring the threaded rank's cycle-final update injection.
  void maybe_inject_fault_pre() {
    using Kind = resilience::FaultPlan::Kind;
    if (fault_.kind != Kind::Throw || !fault_.armed() || fault_fired_) return;
    if (cycles_ != fault_.cycle) return;
    fault_fired_ = true;
    record_event({"fault-injected", "", cycles_, "fault.kind=throw"});
    LTS_RAISE(resilience::Error, "injected failure (fault.kind=throw) at cycle " << cycles_);
  }
  void maybe_inject_fault_post() {
    using Kind = resilience::FaultPlan::Kind;
    if (fault_.kind != Kind::Nan && fault_.kind != Kind::Stall) return;
    if (!fault_.armed() || fault_fired_ || cycles_ != fault_.cycle) return;
    fault_fired_ = true;
    if (fault_.kind == Kind::Stall) {
      record_event({"fault-injected", "", cycles_, "fault.kind=stall"});
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(fault_.stall_ms));
      return;
    }
    auto& u = solver_->u();
    if (u.empty()) return;
    const std::size_t node = resilience::fault_pick(fault_.seed, u.size() /
                                                                     static_cast<std::size_t>(ncomp_));
    for (int c = 0; c < ncomp_; ++c)
      u[node * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c)] =
          std::numeric_limits<real_t>::quiet_NaN();
    record_event({"fault-injected", "", cycles_, "fault.kind=nan"});
  }

  [[nodiscard]] ExecutorState do_export_state() const override {
    ExecutorState s;
    s.u = solver_->u();
    s.v_half = solver_->v_half();
    s.time = solver_->time();
    s.dt = solver_->dt();
    s.cycles = cycles_;
    s.element_applies = solver_->element_applies();
    s.blocks_applied = solver_->blocks_applied();
    export_extra(s);
    return s;
  }

  void do_import_state(const ExecutorState& s) override {
    if (s.u.size() != solver_->u().size() || s.v_half.size() != s.u.size())
      LTS_RAISE(resilience::CheckpointMismatch,
                "checkpoint state has " << s.u.size() << " dofs but executor '" << name()
                                        << "' expects " << solver_->u().size());
    import_raw(s);
    cycles_ = s.cycles;
    // Undrained internal traces belong to the pre-restore timeline.
    for (auto& t : traces_) {
      t.times.clear();
      t.values.clear();
    }
  }

  /// LTS subclasses append applies_per_level and the frozen accumulators.
  virtual void export_extra(ExecutorState& /*s*/) const {}
  virtual void import_raw(const ExecutorState& s) = 0;

  /// The same-kind downcast + source replay every adopt starts with.
  template <typename Self>
  const Self& adopt_prologue(const Executor& prev) {
    const auto* p = dynamic_cast<const Self*>(&prev);
    LTS_CHECK_MSG(p, "executor '" << name() << "' cannot adopt state from '" << prev.name()
                                  << "' — backends hand off within their own kind");
    for (const auto& s : prev.sources()) solver_->add_source(s);
    traces_ = p->traces_;
    cycles_ = p->cycles_;
    receivers_seconds_ = p->receivers_seconds_;
    receivers_count_ = p->receivers_count_;
    return *p;
  }

  /// Serial backends report the solver's phase accumulators plus the
  /// adapter-level receiver-sampling time, and a static roofline for the
  /// batched plan the solver actually runs.
  void fill_report(perf::RunReport& r) const override {
    r.cycles = cycles_;
    solver_->fill_phases(r);
    if (!traces_.empty()) r.add_phase("receivers", receivers_seconds_, receivers_count_);
    if constexpr (requires { solver_->plan(); })
      r.roofline = perf::roofline_for_plan(solver_->plan());
    else
      r.roofline = perf::roofline_for_plan(solver_->op().full_plan());
  }

  int ncomp_;
  std::unique_ptr<Solver> solver_;
  std::vector<SerialTrace> traces_;
  std::int64_t cycles_ = 0;
  double receivers_seconds_ = 0;
  std::int64_t receivers_count_ = 0;
  resilience::FaultPlan fault_; ///< from ctx.cfg->fault; one-shot per instance
  bool fault_fired_ = false;

private:
  void sample_receivers() {
    const auto recs = receivers();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const std::size_t dof = static_cast<std::size_t>(recs[i].node) *
                                  static_cast<std::size_t>(ncomp_) +
                              static_cast<std::size_t>(recs[i].component);
      traces_[i].times.push_back(solver_->time());
      traces_[i].values.push_back(solver_->u()[dof]);
    }
  }
};

/// Global explicit Newmark at Delta-t_min — the non-LTS reference scheme.
class NewmarkExecutor final : public SerialExecutorBase<NewmarkSolver> {
public:
  NewmarkExecutor(std::string name, const ExecutorContext& ctx)
      : SerialExecutorBase(std::move(name), ctx,
                           std::make_unique<NewmarkSolver>(*ctx.op, ctx.levels->dt)) {
    // A multi-level census means levels->dt is the *coarse* step — stepping
    // the whole mesh at it violates CFL on the fine elements and blows up
    // without a diagnostic. Callers must build the context with
    // assign_single_level (consult ExecutorFactory::uses_lts_levels, as the
    // facade does).
    LTS_CHECK_MSG(ctx.levels->num_levels == 1,
                  "executor '" << this->name() << "' needs a single-level census (got "
                               << ctx.levels->num_levels
                               << " levels) — build levels with assign_single_level");
    // The stabilized substep rule only exists inside the LTS recursion; the
    // single-level reference scheme IS plain Newmark, so any other request is
    // a configuration error rather than something to silently ignore.
    LTS_CHECK_MSG(integrator_for(ctx).kind() == IntegratorKind::Newmark,
                  "executor '" << this->name() << "' only runs integrator=newmark (got '"
                               << ctx.cfg->integrator << "') — pick an LTS backend");
  }

private:
  void do_adopt_state_from(const Executor& prev) override {
    const auto& p = adopt_prologue<NewmarkExecutor>(prev);
    solver_->adopt_raw_state(p.solver_->u(), p.solver_->v_half(), p.solver_->time(),
                             p.solver_->element_applies(), p.solver_->blocks_applied());
  }
  void import_raw(const ExecutorState& s) override {
    solver_->adopt_raw_state(s.u, s.v_half, s.time, s.element_applies, s.blocks_applied);
  }
};

/// The production serial multi-level LTS-Newmark scheme — the baseline every
/// other backend is conformance-tested against.
class SerialLtsExecutor final : public SerialExecutorBase<LtsNewmarkSolver> {
public:
  SerialLtsExecutor(std::string name, const ExecutorContext& ctx)
      : SerialExecutorBase(std::move(name), ctx,
                           std::make_unique<LtsNewmarkSolver>(*ctx.op, *ctx.levels,
                                                              *ctx.structure,
                                                              integrator_for(ctx))) {}

private:
  void do_adopt_state_from(const Executor& prev) override {
    const auto& p = adopt_prologue<SerialLtsExecutor>(prev);
    solver_->adopt_raw_state(p.solver_->u(), p.solver_->v_half(), p.solver_->time(),
                             p.solver_->element_applies(), p.solver_->applies_per_level(),
                             p.solver_->blocks_applied());
  }
  void export_extra(ExecutorState& s) const override {
    s.integrator = std::string(solver_->integrator().name());
    s.integrator_aux = solver_->integrator().aux_state();
    s.applies_per_level = solver_->applies_per_level();
    s.frozen_forces = solver_->frozen_forces();
    s.cumulative = solver_->cumulative();
  }
  void import_raw(const ExecutorState& s) override {
    // A cross-backend checkpoint may carry a different level split; per-level
    // work attribution is then unknowable, so it restarts at zero while the
    // total carries over.
    std::vector<std::int64_t> apl = s.applies_per_level;
    apl.resize(solver_->applies_per_level().size(), 0);
    if (s.applies_per_level.size() != apl.size()) std::fill(apl.begin(), apl.end(), 0);
    solver_->adopt_raw_state(s.u, s.v_half, s.time, s.element_applies, apl, s.blocks_applied);
    solver_->import_accumulators(s.frozen_forces, s.cumulative);
  }
};

/// Rank-parallel shared-memory backend: partitions the mesh and drives the
/// persistent-pool ThreadedLtsSolver under a fixed scheduler mode. One
/// registry entry per SchedulerMode, so the conformance grid exercises every
/// synchronization strategy without hand-written lists.
class ThreadedExecutor final : public Executor {
public:
  ThreadedExecutor(std::string name, const ExecutorContext& ctx, runtime::SchedulerMode mode)
      : Executor(std::move(name)), ctx_(ctx), mode_(mode) {
    LTS_CHECK_MSG(ctx.cfg && ctx.mesh, "executor '" << this->name()
                                                    << "' needs ExecutorContext.cfg and .mesh "
                                                       "(it partitions the mesh)");
    LTS_CHECK_MSG(ctx.cfg->num_ranks > 1,
                  "executor '" << this->name() << "' needs num_ranks > 1 (got "
                               << ctx.cfg->num_ranks << ")");
    partition::PartitionerConfig pc;
    pc.strategy = ctx.cfg->partitioner;
    pc.num_parts = ctx.cfg->num_ranks;
    part_ = partition::partition_mesh(*ctx.mesh, ctx.levels->elem_level, ctx.levels->num_levels,
                                      pc);
    solver_ = std::make_unique<runtime::ThreadedLtsSolver>(
        *ctx.op, *ctx.levels, *ctx.structure, part_, mode_, ctx.cfg->scheduler, integrator_for(ctx));
    if (ctx.cfg->fault.armed()) solver_->set_fault(ctx.cfg->fault);
  }

  [[nodiscard]] real_t time() const override { return solver_->time(); }
  [[nodiscard]] std::int64_t element_applies() const override { return solver_->element_applies(); }
  [[nodiscard]] std::int64_t blocks_applied() const override { return solver_->blocks_applied(); }
  [[nodiscard]] std::span<const real_t> v_half() const override { return solver_->v_half(); }
  [[nodiscard]] std::int64_t cycles() const override { return solver_->cycles_done(); }

  [[nodiscard]] ExecutorCounters counters() const override {
    return {solver_->busy_seconds(), solver_->stall_seconds(), solver_->steal_counts(),
            solver_->blocks_applied()};
  }
  [[nodiscard]] bool supports_feedback() const noexcept override { return true; }
  [[nodiscard]] runtime::ThreadedLtsSolver* threaded_solver() const noexcept override {
    return solver_.get();
  }
  [[nodiscard]] const partition::Partition* partition() const noexcept override { return &part_; }

  void drain_receivers(std::span<sem::Receiver> sinks) override {
    drain_traces(solver_->traces(), sinks);
  }

private:
  void do_set_state(std::span<const real_t> u0, std::span<const real_t> v0) override {
    solver_->set_state(u0, v0);
  }
  void do_advance_cycles(std::int64_t cycles) override {
    // An injected fault may surface as a throw (fault.kind=throw, or the
    // watchdog's WorkerStall on a stalled rank) — record the firing in the
    // event log either way before letting it propagate.
    const bool fired_before = solver_->fault_fired();
    const auto note = [&] {
      if (!fired_before && solver_->fault_fired())
        record_event({"fault-injected", "", solver_->cycles_done(),
                      "fault.kind=" + resilience::to_string(ctx_.cfg->fault.kind)});
    };
    try {
      solver_->run_cycles(static_cast<int>(cycles));
    } catch (...) {
      note();
      throw;
    }
    note();
  }
  // The solver's u lives in a first-touch-placed raw array (a span view, not
  // a std::vector), so state() goes through the base gather cache: one copy
  // per advance, stable vector identity between advances.
  void gather_state(std::vector<real_t>& out) const override {
    const auto u = solver_->u();
    out.assign(u.begin(), u.end());
  }
  void do_add_source(const sem::PointSource& src) override { solver_->add_source(src); }
  void do_add_receiver(gindex_t node, int component) override {
    solver_->add_receiver(node, component);
  }
  /// Phases, cycle count and roofline all come from the solver's own report
  /// (the per-rank slots it tallies on the pool workers); the adapter keeps
  /// its registry name and the counter vectors the base already copied.
  void fill_report(perf::RunReport& r) const override {
    perf::RunReport s = solver_->run_report();
    r.cycles = s.cycles;
    r.phases = std::move(s.phases);
    r.roofline = s.roofline;
  }

  [[nodiscard]] ExecutorState do_export_state() const override {
    ExecutorState s;
    s.u.assign(solver_->u().begin(), solver_->u().end());
    s.v_half.assign(solver_->v_half().begin(), solver_->v_half().end());
    s.time = solver_->time();
    s.dt = solver_->dt();
    s.cycles = solver_->cycles_done();
    s.element_applies = solver_->element_applies();
    s.blocks_applied = solver_->blocks_applied();
    // The threaded solver derives per-level work from the integer cycle count
    // (level k runs level_rate(k) substeps over E(k) per cycle), so the
    // per-level split is exact without per-level counters.
    const level_t nl = ctx_.levels->num_levels;
    s.applies_per_level.resize(static_cast<std::size_t>(nl), 0);
    for (level_t k = 1; k <= nl; ++k)
      s.applies_per_level[static_cast<std::size_t>(k - 1)] =
          solver_->cycles_done() * static_cast<std::int64_t>(level_rate(k)) *
          static_cast<std::int64_t>(
              ctx_.structure->eval_elems[static_cast<std::size_t>(k - 1)].size());
    s.integrator = std::string(solver_->integrator().name());
    s.integrator_aux = solver_->integrator().aux_state();
    s.frozen_forces = solver_->frozen_forces();
    s.cumulative = solver_->cumulative();
    return s;
  }

  void do_import_state(const ExecutorState& s) override {
    if (s.u.size() != solver_->u().size() || s.v_half.size() != s.u.size())
      LTS_RAISE(resilience::CheckpointMismatch,
                "checkpoint state has " << s.u.size() << " dofs but executor '" << name()
                                        << "' expects " << solver_->u().size());
    solver_->adopt_raw_state(s.u, s.v_half, s.time, s.cycles);
    solver_->import_accumulators(s.frozen_forces, s.cumulative);
    for (auto& t : solver_->traces()) {
      t.times.clear();
      t.values.clear();
    }
  }

  void do_adopt_state_from(const Executor& prev) override {
    // Cross-mode hand-off between threaded backends is fine (the solver's
    // adopt only requires the same operator/levels/structure; the partition
    // and scheduler may differ — that is the whole point of feedback
    // repartitioning).
    const auto* p = dynamic_cast<const ThreadedExecutor*>(&prev);
    LTS_CHECK_MSG(p, "executor '" << name() << "' cannot adopt state from '" << prev.name()
                                  << "' — backends hand off within their own kind");
    solver_->adopt_state_from(*p->solver_);
  }
  void do_refine_from_feedback() override {
    partition::FeedbackSignal sig;
    sig.busy_seconds = solver_->busy_seconds();
    sig.stall_seconds = solver_->stall_seconds();
    sig.steal_counts = solver_->steal_counts();

    partition::PartitionerConfig pc;
    pc.strategy = ctx_.cfg->partitioner;
    pc.num_parts = ctx_.cfg->num_ranks;
    part_ = partition::refine_with_feedback(*ctx_.mesh, ctx_.levels->elem_level,
                                            ctx_.levels->num_levels, part_, sig, pc);
    auto fresh = std::make_unique<runtime::ThreadedLtsSolver>(
        *ctx_.op, *ctx_.levels, *ctx_.structure, part_, mode_, ctx_.cfg->scheduler,
        solver_->integrator());
    fresh->adopt_state_from(*solver_);
    solver_ = std::move(fresh);
  }

  ExecutorContext ctx_;
  runtime::SchedulerMode mode_;
  partition::Partition part_;
  std::unique_ptr<runtime::ThreadedLtsSolver> solver_;
};

} // namespace

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

ExecutorFactory& ExecutorFactory::instance() {
  static ExecutorFactory factory;
  return factory;
}

ExecutorFactory::ExecutorFactory() {
  register_backend(
      "newmark", "global explicit Newmark at the CFL minimum step (non-LTS reference)",
      [](const ExecutorContext& ctx) -> std::unique_ptr<Executor> {
        return std::make_unique<NewmarkExecutor>("newmark", ctx);
      },
      /*uses_lts_levels=*/false);
  register_backend("serial-lts",
                   "serial multi-level LTS-Newmark (paper Sec. II-C) — the conformance baseline",
                   [](const ExecutorContext& ctx) -> std::unique_ptr<Executor> {
                     return std::make_unique<SerialLtsExecutor>("serial-lts", ctx);
                   });
  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    const std::string key = "threaded/" + runtime::to_string(mode);
    register_backend(key,
                     "rank-parallel LTS on the persistent thread pool, scheduler '" +
                         runtime::to_string(mode) + "'",
                     [key, mode](const ExecutorContext& ctx) -> std::unique_ptr<Executor> {
                       return std::make_unique<ThreadedExecutor>(key, ctx, mode);
                     });
  }
}

void ExecutorFactory::register_backend(std::string name, std::string description, Builder builder,
                                       bool uses_lts_levels) {
  LTS_CHECK_MSG(!name.empty() && builder, "executor registration needs a name and a builder");
  const auto [it, inserted] = backends_.emplace(
      std::move(name), Entry{std::move(builder), std::move(description), uses_lts_levels});
  LTS_CHECK_MSG(inserted, "executor '" << it->first << "' is already registered");
}

const ExecutorFactory::Entry& ExecutorFactory::entry_or_throw(std::string_view name) const {
  const auto it = backends_.find(name);
  if (it == backends_.end()) {
    std::ostringstream os;
    for (const auto& [key, entry] : backends_) os << "\n  " << key << " — " << entry.description;
    LTS_CHECK_MSG(false, "unknown executor '" << name << "'; registered backends:" << os.str());
  }
  return it->second;
}

std::unique_ptr<Executor> ExecutorFactory::create(std::string_view name,
                                                  const ExecutorContext& ctx) const {
  LTS_CHECK_MSG(ctx.op && ctx.levels && ctx.structure,
                "ExecutorContext needs at least op, levels and structure");
  return entry_or_throw(name).builder(ctx);
}

bool ExecutorFactory::contains(std::string_view name) const {
  return backends_.find(name) != backends_.end();
}

bool ExecutorFactory::uses_lts_levels(std::string_view name) const {
  return entry_or_throw(name).uses_lts_levels;
}

std::string ExecutorFactory::description(std::string_view name) const {
  return entry_or_throw(name).description;
}

std::vector<std::string> ExecutorFactory::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& [key, entry] : backends_) out.push_back(key);
  return out; // std::map iteration is already sorted
}

std::string resolve_executor_name(const SimulationConfig& cfg) { return cfg.executor; }

} // namespace ltswave::core
