#pragma once

/// \file sim_cluster.hpp
/// Discrete-event performance simulation of one LTS cycle on a cluster.
///
/// The substep schedule is the exact trace the production solver executes
/// (eval level 1, then recursively two substeps per finer level); at every
/// substep each rank computes its share of E(k) and then synchronizes with
/// the neighbours it shares level-k interface nodes with. Load imbalance at
/// any level therefore turns directly into stall time — the phenomenon of the
/// paper's Fig. 1 — and communication costs follow the machine model.
///
/// This substitutes for the paper's Piz Daint runs: the machine model
/// (runtime/machine.hpp) stands in for their nodes and interconnect, so the
/// figures built on it (bench/fig09-fig13) reproduce scaling trends and
/// stall/communication shares, not absolute Piz Daint times.

#include "runtime/comm_graph.hpp"
#include "runtime/machine.hpp"

namespace ltswave::runtime {

/// One compute+exchange segment of one rank (used to draw Fig. 1 timelines).
struct TimelineSegment {
  rank_t rank;
  level_t level;
  double start;
  double compute_end;
  double sync_end;
};

struct SimResult {
  double cycle_seconds = 0;           ///< wall time of one Delta-t cycle
  double advance_per_wall_second = 0; ///< simulated seconds per wall second
  std::vector<double> rank_busy;      ///< compute seconds per rank
  std::vector<double> rank_stall;     ///< wait + wire seconds per rank
  double cache_hit_fraction = 0;      ///< work-weighted average (Fig. 12)
  std::vector<TimelineSegment> timeline; ///< filled when record_timeline
};

/// The substep trace of one cycle: level of each eval+exchange phase.
std::vector<level_t> cycle_trace(level_t num_levels);

/// Simulates one LTS cycle of length `dt` over the given comm graph.
SimResult simulate_cycle(const CommGraph& cg, const MachineModel& machine, real_t dt,
                         bool record_timeline = false);

} // namespace ltswave::runtime
