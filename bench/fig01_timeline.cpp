// Reproduces the paper's Fig. 1: the 1D two-partition timeline showing why a
// standard (LTS-oblivious) partition stalls. Partition A holds three of the
// four fine elements; every fine substep synchronizes both ranks, so B waits
// for A on the fine level and A waits for B on the coarse one. A per-level
// balanced partition removes the stall.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "common/table.hpp"
#include "core/lts_levels.hpp"
#include "mesh/generators.hpp"
#include "runtime/sim_cluster.hpp"
#include "runtime/threaded_lts.hpp"

using namespace ltswave;

namespace {

void show_timeline(const char* title, const runtime::SimResult& res) {
  print_section(std::cout, title);
  // ASCII Gantt: one row per rank, time discretized into 60 columns.
  const double total = res.cycle_seconds;
  constexpr int kCols = 64;
  TextTable t({"rank", "timeline (digit = computing level k, '.' = stalled)", "busy", "stall"});
  rank_t nranks = static_cast<rank_t>(res.rank_busy.size());
  for (rank_t r = 0; r < nranks; ++r) {
    std::string line(kCols, ' ');
    for (const auto& seg : res.timeline) {
      if (seg.rank != r) continue;
      const int c0 = std::min(kCols - 1, static_cast<int>(seg.start / total * kCols));
      const int c1 = std::min(kCols, static_cast<int>(seg.compute_end / total * kCols));
      const int c2 = std::min(kCols, static_cast<int>(seg.sync_end / total * kCols));
      for (int c = c0; c < c1; ++c) line[static_cast<std::size_t>(c)] = static_cast<char>('0' + seg.level);
      for (int c = c1; c < c2; ++c) line[static_cast<std::size_t>(c)] = '.';
    }
    t.row()
        .cell("proc " + std::string(1, static_cast<char>('A' + r)))
        .cell(line)
        .cell(res.rank_busy[static_cast<std::size_t>(r)] * 1e6, 1)
        .cell(res.rank_stall[static_cast<std::size_t>(r)] * 1e6, 1);
  }
  t.print(std::cout);
  std::cout << "cycle wall time: " << res.cycle_seconds * 1e6 << " us\n";
}

} // namespace

int main() {
  // The paper's setup: 8 elements in a row, the left half fine (dt/2), the
  // right half coarse (dt). Two ranks.
  const auto m = mesh::make_strip_mesh(8, 0.5, 2.0);
  const auto lv = core::assign_levels(m, 0.3);
  LTS_CHECK(lv.num_levels == 2);

  runtime::MachineModel machine;
  machine.link_latency_seconds = 0.5e-6; // keep wires thin so stall dominates

  // Naive split down the middle of the array: rank A gets 3 fine + 1 coarse,
  // rank B gets 1 fine + 3 coarse — exactly Fig. 1's imbalance.
  partition::Partition naive;
  naive.num_parts = 2;
  naive.part = {0, 0, 0, 0, 1, 1, 1, 1};
  {
    // Shift the boundary one element left so A gets 3 fine, B gets 1 fine.
    naive.part = {0, 0, 0, 1, 0, 1, 1, 1};
  }
  const auto cg_naive = runtime::build_comm_graph(m, lv.elem_level, lv.num_levels, naive);
  const auto res_naive = runtime::simulate_cycle(cg_naive, machine, lv.dt, true);
  show_timeline("Fig. 1 — standard partition (A: 3 fine + 1 coarse, B: 1 fine + 3 coarse)",
                res_naive);

  // Level-balanced partition: each rank gets 2 fine + 2 coarse.
  partition::Partition balanced;
  balanced.num_parts = 2;
  balanced.part = {0, 0, 1, 1, 0, 0, 1, 1};
  const auto cg_bal = runtime::build_comm_graph(m, lv.elem_level, lv.num_levels, balanced);
  const auto res_bal = runtime::simulate_cycle(cg_bal, machine, lv.dt, true);
  show_timeline("Per-level balanced partition (each rank: 2 fine + 2 coarse)", res_bal);

  std::cout << "\nSpeedup of the balanced partition over the naive one: "
            << res_naive.cycle_seconds / res_bal.cycle_seconds << "x\n";

  // The same two partitions on the *real* threaded executor, across the three
  // scheduler modes: the barrier-all rows reproduce the simulated stall story
  // with wall-clock; level-aware lets the coarse-heavy rank sleep through the
  // fine substeps, and stealing shifts fine work onto the idle rank.
  print_section(std::cout, "Real threaded executor on the Fig. 1 strip (2 ranks, 200 cycles)");
  sem::SemSpace space(m, 3);
  sem::AcousticOperator op(space);
  const auto st = core::build_lts_structure(space, lv);
  std::vector<real_t> u0(static_cast<std::size_t>(space.num_global_nodes()));
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g)
    u0[static_cast<std::size_t>(g)] = std::cos(M_PI * space.node_coord(g)[0]);
  const std::vector<real_t> v0(u0.size(), 0.0);

  TextTable rt({"partition", "scheduler", "fine-level ranks", "busy ms (A/B)",
                "stall ms (A/B)", "steals"});
  for (const auto& [label, part] : {std::pair{"naive", naive}, std::pair{"balanced", balanced}}) {
    for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
      runtime::SchedulerConfig scfg;
      scfg.oversubscribe = runtime::Oversubscribe::Warn;
      runtime::ThreadedLtsSolver solver(op, lv, st, part, mode, scfg);
      solver.set_state(u0, v0);
      solver.run_cycles(20); // warm-up
      solver.reset_counters();
      solver.run_cycles(200);
      const auto ms = [](double s) { return s * 1e3; };
      // One snapshot per counter (the accessors return fresh copies).
      const std::vector<double> busy = solver.busy_seconds();
      const std::vector<double> stall = solver.stall_seconds();
      const std::vector<std::int64_t> steals = solver.steal_counts();
      rt.row()
          .cell(label)
          .cell(to_string(mode))
          .cell(static_cast<std::int64_t>(solver.level_participants(2)))
          .cell(std::to_string(ms(busy[0])).substr(0, 5) + " / " +
                std::to_string(ms(busy[1])).substr(0, 5))
          .cell(std::to_string(ms(stall[0])).substr(0, 5) + " / " +
                std::to_string(ms(stall[1])).substr(0, 5))
          .cell(std::accumulate(steals.begin(), steals.end(), std::int64_t{0}));
    }
  }
  rt.print(std::cout);
  return 0;
}
