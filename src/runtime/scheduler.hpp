#pragma once

/// \file scheduler.hpp
/// Scheduler policy for the rank-parallel LTS runtime. Split out of
/// threaded_lts.hpp so the core::Simulation facade and the benches can name
/// a mode without pulling in the whole executor.
///
/// Three modes, in increasing order of load-imbalance tolerance. They run the
/// same chunked evaluation and the same fixed (rank, chunk)-ordered
/// reduction, so every mode produces bitwise-identical results; they differ
/// only in which ranks join a level barrier and whether idle ranks steal:
///  * BarrierAll      — every rank synchronizes at every LTS substep, even
///    ranks with zero elements in the active level. This is the paper's plain
///    MPI execution model and the Fig. 1 baseline.
///  * LevelAware      — per-level participation barriers: only ranks with work
///    at level k or finer take part in level-k substep barriers, so a rank
///    that owns only coarse elements sleeps through the whole fine-level
///    recursion at a single coarse barrier instead of being woken at every
///    fine substep.
///  * LevelAwareSteal — LevelAware plus work stealing: a rank that drains its
///    own chunk queue for a level goes on to its peers' queues, which absorbs
///    the residual intra-level imbalance the partitioner leaves behind.
///
/// The mode is chosen once, by the executor registry key
/// ("threaded/<mode>"), and handed to the solver's constructor; changing the
/// mode of a running solver is deliberately impossible — build a fresh solver
/// (or executor, via adopt_state_from hand-off) to switch modes
/// mid-experiment.
///
/// SchedulerConfig carries the mode-independent runtime knobs. It is a plain
/// value type with no behaviour of its own: the solver copies it at
/// construction and never reads the caller's storage again.

#include <string>
#include <string_view>

#include "common/types.hpp"
#include "runtime/thread_pool.hpp"

namespace ltswave::runtime {

enum class SchedulerMode {
  BarrierAll,
  LevelAware,
  LevelAwareSteal,
};

/// "barrier-all", "level-aware", "level-aware+steal" — the suffix of the
/// mode's "threaded/<mode>" executor name.
[[nodiscard]] std::string to_string(SchedulerMode mode);

/// All three modes are listed here so benches can iterate them.
inline constexpr SchedulerMode kAllSchedulerModes[] = {
    SchedulerMode::BarrierAll, SchedulerMode::LevelAware, SchedulerMode::LevelAwareSteal};

[[nodiscard]] std::string to_string(Oversubscribe policy);
[[nodiscard]] Oversubscribe parse_oversubscribe(std::string_view name);

struct SchedulerConfig {
  /// More ranks than hardware threads throws by default (see thread_pool.hpp).
  Oversubscribe oversubscribe = Oversubscribe::Forbid;
  /// Stall watchdog timeout in seconds for the worker team; 0 disables it.
  /// When armed, a run_cycles call where no worker makes progress for this
  /// long throws resilience::WorkerStall instead of hanging forever.
  double watchdog_seconds = 0;

  bool operator==(const SchedulerConfig&) const = default;
};

} // namespace ltswave::runtime
