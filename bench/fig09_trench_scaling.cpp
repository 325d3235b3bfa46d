// Reproduces the paper's Fig. 9: strong scaling of the trench mesh on CPU
// nodes (top panel) and GPU nodes (bottom panel), performance normalized to
// the non-LTS CPU run at the smallest node count. Series: LTS ideal,
// SCOTCH-P, PaToH 0.01, PaToH 0.05, and the non-LTS baseline.
//
// Scale substitution: the paper runs a 2.5M-element mesh on 16-128 Piz Daint
// nodes; we run a ~74k mesh on 2-16 simulated nodes (1:8 node scale, 1:34
// mesh scale), keeping per-rank element counts in a comparable range. The
// cluster is the discrete-event simulator of src/runtime/sim_cluster.hpp.

#include <iostream>

#include "scaling_report.hpp"

using namespace ltswave;

int main() {
  const auto pm = bench::make_paper_trench();
  std::cout << "Trench mesh: " << format_count(pm.mesh.num_elems()) << " elements, "
            << pm.levels.num_levels
            << " levels, theoretical speedup = " << core::theoretical_speedup(pm.levels)
            << " (paper: 2.5M elements, predicted speedup 6.7x)\n";

  perf::ScalingExperiment exp;
  exp.mesh = &pm.mesh;
  exp.courant = bench::kCourant;
  exp.max_levels = 4;
  exp.node_counts = {2, 4, 8, 16};

  // CPU panel (8 ranks/node).
  {
    auto res = perf::run_scaling(exp, bench::standard_strategies());
    bench::print_scaling_panel(std::cout,
                               "Fig. 9 (top) — CPU performance, trench mesh "
                               "(paper: LTS 97%, non-LTS 102% at 128 nodes)",
                               res, /*paper_scale=*/8);
  }

  // GPU panel (1 rank/node), still normalized to the CPU baseline.
  {
    exp.ranks_per_node = runtime::kGpuRanksPerNode;
    exp.machine = runtime::gpu_rank_model();
    auto res = perf::run_scaling(exp, bench::standard_strategies());
    bench::print_scaling_panel(std::cout,
                               "Fig. 9 (bottom) — GPU performance vs CPU non-LTS baseline "
                               "(paper: non-LTS GPU 6.9x CPU; LTS-GPU efficiency decays to 45%)",
                               res, /*paper_scale=*/8);
    const double gpu_speedup = res.non_lts.points[0].normalized;
    std::cout << "non-LTS GPU vs non-LTS CPU at base node count: " << gpu_speedup
              << "x (paper: 6.9x)\n";
  }
  return 0;
}
