#pragma once

/// \file executor.hpp
/// The pluggable execution-backend contract of the whole stack.
///
/// The paper's central claim is that ONE local-time-stepping scheme can be
/// driven by interchangeable execution strategies — plain barriers,
/// level-aware barriers, work stealing, multi-node MPI. `Executor` is that
/// seam as an API: a polymorphic backend that owns the dynamical state and
/// advances whole LTS cycles, created by name through `ExecutorFactory` from
/// the shared discretization (operator + levels + structure). The
/// `WaveSimulation` facade holds exactly one `Executor` and contains no
/// per-backend branching; a new backend (MPI, batched-kernel, GPU) is one
/// factory registration away and automatically appears in the conformance
/// suite, which enumerates the registry.
///
/// Contract invariants every backend must satisfy (enforced by
/// tests/test_executor.cpp against the serial-LTS baseline):
///  * set_state -> advance_cycles(n) -> state() reproduces the baseline
///    physics (to roundoff for LTS-scheme backends, to the discretization
///    tolerance for reference schemes like plain Newmark);
///  * sources registered before set_state contribute f(0) to the staggered
///    initial velocity; receivers sample at every cycle boundary;
///  * adopt_state_from(prev) continues prev's run exactly — state, clock,
///    work counters, sources and already-accumulated receiver traces all
///    carry over (the mid-run hand-off behind feedback repartitioning);
///  * state() is cached per advance: distributed backends gather once per
///    cycle, not once per call.
///
/// Ownership and thread-safety:
///  * An Executor owns its dynamical state and any worker pool it spins up;
///    the discretization objects in ExecutorContext are borrowed and must
///    outlive it (the facade owns both, so the ordering is structural there).
///  * The public API is *driving-thread only*: exactly one thread calls
///    set_state / advance_cycles / state / run_report at a time, and never
///    while an advance is in flight. Rank-parallel backends synchronize their
///    own workers internally; two executors never share mutable state, so
///    distinct instances may run on distinct threads.
///  * adopt_state_from is the hand-off seam: the adopting executor must be
///    pristine, `prev` must be quiescent (between advances) and is left
///    untouched — the caller decides when to destroy it. After adopt, the new
///    executor continues prev's clock, counters and traces exactly.

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "perf/run_report.hpp"
#include "sem/sources.hpp"

namespace ltswave::mesh {
class HexMesh;
}
namespace ltswave::partition {
struct Partition;
}
namespace ltswave::runtime {
class ThreadedLtsSolver;
}
namespace ltswave::sem {
class WaveOperator;
}

namespace ltswave::core {

struct LevelAssignment;
struct LtsStructure;
struct SimulationConfig;

/// Everything a backend may need to stand itself up. All pointers reference
/// objects owned by the caller (normally the WaveSimulation facade) and must
/// outlive the executor.
struct ExecutorContext {
  const sem::WaveOperator* op = nullptr;
  const LevelAssignment* levels = nullptr;
  const LtsStructure* structure = nullptr;
  const mesh::HexMesh* mesh = nullptr;
  const sem::SemSpace* space = nullptr;
  const SimulationConfig* cfg = nullptr;
};

/// Per-rank performance counters; empty vectors for backends without ranks
/// (the serial solvers). Sizes agree when non-empty. blocks_applied is
/// backend-wide: batched kernel calls consumed so far (every backend runs the
/// block path, so this is populated even when the per-rank vectors are not).
struct ExecutorCounters {
  std::vector<double> busy_seconds;
  std::vector<double> stall_seconds;
  std::vector<std::int64_t> steal_counts;
  std::int64_t blocks_applied = 0;

  [[nodiscard]] bool empty() const noexcept { return busy_seconds.empty(); }
};

/// The complete cross-cycle dynamical state of a backend at a cycle boundary
/// — the serializable image of what adopt_state_from hands off, minus the
/// sources/receivers (configuration, not state) and minus the drained
/// receiver traces (the facade owns those). This is what a checkpoint
/// captures (resilience/checkpoint.hpp).
///
/// `frozen_forces`/`cumulative` are the LTS schemes' per-level frozen-force
/// accumulators. They are redundant in value — every scheme recomputes them
/// from u at the start of a cycle — but their floating-point association
/// history is not: importing them bitwise makes a same-backend restore
/// reproduce the uninterrupted run bit for bit, while an import that drops
/// them (a cross-backend restore) agrees only to roundoff. Backends without
/// them (plain Newmark) leave both empty.
struct ExecutorState {
  std::vector<real_t> u;
  std::vector<real_t> v_half;
  real_t time = 0;
  real_t dt = 0; ///< the exporting backend's cycle step — restore sanity check
  /// Canonical name of the time integrator that produced this state
  /// ("newmark", "leapfrog-stab"; see core/integrator.hpp). A restore into a
  /// simulation running a different integrator is rejected — the staggered
  /// state layout is scheme-specific.
  std::string integrator = "newmark";
  /// Integrator-owned auxiliary state (empty for the built-in two-term
  /// schemes; multi-stage integrators serialize their extra registers here).
  std::vector<real_t> integrator_aux;
  std::int64_t cycles = 0;
  std::int64_t element_applies = 0;
  std::int64_t blocks_applied = 0;
  /// Per-level element applies (LTS backends; empty for single-level).
  std::vector<std::int64_t> applies_per_level;
  std::vector<std::vector<real_t>> frozen_forces; ///< A P_k u, k = 1..N-1
  std::vector<real_t> cumulative;                 ///< sum of frozen_forces

  bool operator==(const ExecutorState&) const = default;
};

class Executor {
public:
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The registry key this backend was created under ("serial-lts",
  /// "threaded/level-aware", ...).
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  /// Sets u(0) and the physical velocity du/dt(0); the backend computes its
  /// staggered internal state, folding in f(0) of already-registered sources.
  void set_state(std::span<const real_t> u0, std::span<const real_t> v0) {
    do_set_state(u0, v0);
    state_dirty_ = true;
  }

  /// Advances `cycles` coarse LTS cycles (for single-level schemes: steps).
  void advance_cycles(std::int64_t cycles) {
    if (cycles <= 0) return;
    do_advance_cycles(cycles);
    state_dirty_ = true;
  }

  /// The displacement vector, gathered from wherever the backend keeps it and
  /// cached until the next advance/set_state/adopt — repeated calls between
  /// advances cost nothing, and backends with distributed state gather once
  /// per cycle instead of once per call. Backends whose state already lives
  /// in one contiguous host vector (direct_state) skip the cache entirely:
  /// zero copies, exactly like the pre-Executor facade.
  [[nodiscard]] const std::vector<real_t>& state() const {
    if (const auto* direct = direct_state()) return *direct;
    if (state_dirty_) {
      gather_state(state_cache_);
      state_dirty_ = false;
    }
    return state_cache_;
  }

  [[nodiscard]] virtual real_t time() const = 0;
  [[nodiscard]] virtual std::int64_t element_applies() const = 0;
  /// Batched kernel calls consumed so far — element_applies' companion under
  /// the block execution layer (one call advances up to BatchPlan::width()
  /// elements). Carried across adopt_state_from like every work counter.
  [[nodiscard]] virtual std::int64_t blocks_applied() const = 0;

  /// Registers a point source. Call before set_state so the staggered initial
  /// velocity sees f(0); backends route injection however they execute (the
  /// threaded backend injects at the owning rank's level-local updates).
  void add_source(const sem::PointSource& src) {
    do_add_source(src);
    sources_.push_back(src);
  }

  /// Registers a receiver sampled at every cycle boundary; traces accumulate
  /// inside the backend until drain_receivers.
  void add_receiver(gindex_t node, int component) {
    do_add_receiver(node, component);
    receivers_.push_back({node, component});
  }

  /// Appends the accumulated per-receiver samples into `sinks` (one Receiver
  /// per add_receiver, in registration order) and clears the internal traces.
  virtual void drain_receivers(std::span<sem::Receiver> sinks) = 0;

  /// Adopts the complete run state of `prev` — dynamical state, clock, work
  /// counters, sources and receiver traces — so this executor continues
  /// prev's simulation mid-run. `prev` must be a backend of the same kind
  /// built over the same operator/levels/structure; this executor must be
  /// pristine (no sources/receivers registered, never advanced). Backends
  /// that cannot adopt throw CheckFailure with a clear message.
  void adopt_state_from(const Executor& prev) {
    LTS_CHECK_MSG(sources_.empty() && receivers_.empty(),
                  "adopt_state_from requires a pristine executor");
    do_adopt_state_from(prev);
    sources_ = prev.sources_;
    receivers_ = prev.receivers_;
    state_dirty_ = true;
  }

  /// Snapshots the complete cross-cycle dynamical state (see ExecutorState).
  /// Call between advances only.
  [[nodiscard]] ExecutorState export_state() const { return do_export_state(); }

  /// Overwrites this executor's dynamical state, clock and work counters with
  /// a snapshot — the checkpoint-restore counterpart of adopt_state_from.
  /// Unlike adopt, the target need not be pristine: sources/receivers must
  /// already be registered (they are configuration, recreated by the caller),
  /// any undrained internal receiver traces are discarded (the facade restores
  /// trace history separately), and the state may come from a *different*
  /// backend kind — frozen-force accumulators that do not fit are dropped and
  /// recomputed, exact to roundoff. Requires s.u to match this backend's
  /// problem size; throws resilience::CheckpointMismatch otherwise.
  void import_state(const ExecutorState& s) {
    do_import_state(s);
    state_dirty_ = true;
  }

  /// The staggered half-step velocity companion of state() — read-only view
  /// into the backend's live vector (HealthGuard scans it; export_state copies
  /// it). Same driving-thread-only rule as state().
  [[nodiscard]] virtual std::span<const real_t> v_half() const = 0;

  /// Coarse cycles advanced so far (steps, for single-level schemes).
  [[nodiscard]] virtual std::int64_t cycles() const = 0;

  /// Per-rank busy/stall/steal counters; empty for serial backends.
  [[nodiscard]] virtual ExecutorCounters counters() const { return {}; }

  /// Structured observability snapshot: per-phase timings, the per-rank
  /// counter vectors (identical to counters()), lifetime work counters and
  /// the plan's roofline record — the JSON-serializable record behind every
  /// BENCH_*.json. Common fields are assembled here; backends add their
  /// phases/cycles/roofline in fill_report. Call between advances only (same
  /// rule as counters()); accumulators are lifetime-monotone, so diffing two
  /// snapshots isolates an interval.
  [[nodiscard]] perf::RunReport run_report() const {
    perf::RunReport r;
    r.executor = name_;
    r.time = static_cast<double>(time());
    r.element_applies = element_applies();
    r.blocks_applied = blocks_applied();
    ExecutorCounters c = counters();
    r.rank_busy_seconds = std::move(c.busy_seconds);
    r.rank_stall_seconds = std::move(c.stall_seconds);
    r.rank_steal_counts = std::move(c.steal_counts);
    r.events = events_;
    fill_report(r);
    return r;
  }

  /// Resilience events recorded against this executor (injected faults; the
  /// Supervisor merges its own recovery events on top in the final report).
  [[nodiscard]] std::span<const perf::RunEvent> events() const noexcept { return events_; }

  /// Measured-cost repartitioning support (threaded backends).
  [[nodiscard]] virtual bool supports_feedback() const noexcept { return false; }

  /// Repartitions from the backend's own measured counters and continues the
  /// run on the refined layout. Throws CheckFailure when unsupported.
  void refine_from_feedback() {
    do_refine_from_feedback();
    state_dirty_ = true;
  }

  /// The rank-parallel solver driving this backend, when there is one —
  /// benches and examples read scheduler mode, counters and participation
  /// through this without the facade knowing backend types.
  [[nodiscard]] virtual runtime::ThreadedLtsSolver* threaded_solver() const noexcept {
    return nullptr;
  }

  /// The mesh partition driving this backend (nullptr for serial backends).
  [[nodiscard]] virtual const partition::Partition* partition() const noexcept { return nullptr; }

  /// Sources/receivers registered so far (the master record adopt copies).
  [[nodiscard]] std::span<const sem::PointSource> sources() const noexcept { return sources_; }
  struct ReceiverRecord {
    gindex_t node = 0;
    int component = 0;
  };
  [[nodiscard]] std::span<const ReceiverRecord> receivers() const noexcept { return receivers_; }

protected:
  explicit Executor(std::string name) : name_(std::move(name)) {}

  virtual void do_set_state(std::span<const real_t> u0, std::span<const real_t> v0) = 0;
  virtual void do_advance_cycles(std::int64_t cycles) = 0;
  /// Return the backend's live displacement vector when it already is one
  /// contiguous host vector (serial adapters) — state() then aliases it with
  /// no copy. Distributed backends return nullptr and gather instead.
  [[nodiscard]] virtual const std::vector<real_t>* direct_state() const { return nullptr; }
  virtual void gather_state(std::vector<real_t>& out) const = 0;
  virtual void do_add_source(const sem::PointSource& src) = 0;
  virtual void do_add_receiver(gindex_t node, int component) = 0;
  virtual void do_adopt_state_from(const Executor& prev) = 0;
  [[nodiscard]] virtual ExecutorState do_export_state() const = 0;
  virtual void do_import_state(const ExecutorState& s) = 0;
  /// Backend hook for run_report(): add phase stats, cycles and the roofline
  /// record. The default leaves the common fields as assembled.
  virtual void fill_report(perf::RunReport& /*report*/) const {}
  virtual void do_refine_from_feedback() {
    LTS_CHECK_MSG(false, "executor '" << name_ << "' does not support feedback repartitioning "
                                      << "(needs a rank-parallel backend, num_ranks > 1)");
  }
  /// Backends append resilience history (fault firings) here; shows up in
  /// run_report().events. Driving-thread only, like every public entry point.
  void record_event(perf::RunEvent event) { events_.push_back(std::move(event)); }

private:
  std::string name_;
  std::vector<perf::RunEvent> events_;
  std::vector<sem::PointSource> sources_;
  std::vector<ReceiverRecord> receivers_;
  mutable std::vector<real_t> state_cache_;
  mutable bool state_dirty_ = true;
};

/// String-keyed registry of execution backends — the only place a backend or
/// a scheduler mode is chosen. Builtins ("newmark", "serial-lts",
/// "threaded/<mode>" for every SchedulerMode) self-register on first use. The
/// three threaded modes differ only in barrier participation and stealing,
/// so they give bitwise-identical results. External backends (MPI,
/// batched-kernel, ...) call register_backend once at startup and every
/// facade, bench and conformance grid picks them up by name.
class ExecutorFactory {
public:
  using Builder = std::function<std::unique_ptr<Executor>(const ExecutorContext&)>;

  static ExecutorFactory& instance();

  /// `uses_lts_levels` declares whether the backend runs the multi-level LTS
  /// scheme (the facade then assigns real levels) or a single-level reference
  /// scheme at the global minimum step ("newmark"). Throws on duplicate name.
  void register_backend(std::string name, std::string description, Builder builder,
                        bool uses_lts_levels = true);

  /// Builds the named backend; throws CheckFailure listing every registered
  /// name when `name` is unknown. Every backend needs at least op, levels and
  /// structure; individual backends may require more and throw a CheckFailure
  /// naming the missing field (the threaded builtins need mesh and cfg to
  /// partition).
  [[nodiscard]] std::unique_ptr<Executor> create(std::string_view name,
                                                 const ExecutorContext& ctx) const;

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] bool uses_lts_levels(std::string_view name) const;
  [[nodiscard]] std::string description(std::string_view name) const;

  /// All registered backend names, sorted — the conformance suite and benches
  /// iterate this instead of hand-written lists.
  [[nodiscard]] std::vector<std::string> names() const;

private:
  ExecutorFactory();

  struct Entry {
    Builder builder;
    std::string description;
    bool uses_lts_levels = true;
  };
  const Entry& entry_or_throw(std::string_view name) const;

  std::map<std::string, Entry, std::less<>> backends_;
};

/// The registry key `cfg` selects: `cfg.executor`, the one place a backend
/// and scheduler mode are chosen.
[[nodiscard]] std::string resolve_executor_name(const SimulationConfig& cfg);

} // namespace ltswave::core
