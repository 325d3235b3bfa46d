// Kernel-engine validation: every block apply (BatchPlan + block kernels,
// WaveOperator::apply_add_blocks — the operator's only apply) must reproduce
// the per-element oracle of kernel_oracle.hpp to 1e-12 for polynomial orders
// 1-9 (order 9 runs the runtime-n1 N1 == 0 instantiation), both physics,
// masked and unmasked, with ragged tail blocks and both the full-plane and
// compact-affine metric forms exercised. Plus the plan invariants the block
// path leans on (conflict-free blocks, exact element coverage, per-block
// level masks), the set_state identity sum_k K P_k u = K u through the
// solvers' level plans, and an energy-conservation smoke test driving
// LtsNewmarkSolver through the production path.
//
// SIMD backend coverage: the block kernels run on the simd::Vec lane layer
// while the oracle stays scalar, so every comparison here is a
// vector-vs-scalar cross-check at <= 1e-12. The suite is built and re-run
// per backend (native AVX-512/AVX2, the baseline-ISA CI build, and the
// simd-scalar CI job's forced-scalar build), which sweeps every width the
// dispatch in common/simd.hpp can select.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/energy.hpp"
#include "core/lts_levels.hpp"
#include "core/lts_newmark.hpp"
#include "core/simulation.hpp"
#include "graph/csr_graph.hpp"
#include "kernel_oracle.hpp"
#include "mesh/generators.hpp"
#include "partition/partitioners.hpp"
#include "runtime/threaded_lts.hpp"
#include "scenarios/scenario.hpp"
#include "sem/batch_plan.hpp"
#include "sem/wave_operator.hpp"

namespace ltswave::sem {
namespace {

std::vector<real_t> random_field(std::size_t n, Rng& rng) {
  std::vector<real_t> u(n);
  for (auto& x : u) x = rng.uniform_real(-1, 1);
  return u;
}

real_t max_rel_diff(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  real_t scale = 0;
  for (real_t v : a) scale = std::max(scale, std::abs(v));
  scale = std::max(scale, real_t{1e-30});
  real_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]) / scale);
  return d;
}

/// Warped two-material test mesh: exercises non-diagonal Jacobians and
/// per-element moduli.
mesh::HexMesh make_test_mesh() {
  mesh::Material mat;
  mat.vp = 1.9;
  mat.vs = 1.0;
  mat.rho = 1.2;
  auto m = mesh::make_uniform_box(2, 2, 2, {1.0, 0.9, 1.1}, mat);
  warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
    x += 0.05 * std::sin(2 * y + z);
    y += 0.04 * std::cos(3 * x);
    z += 0.03 * std::sin(x + 2 * y);
  });
  return m;
}

/// Synthetic two-level split (elements left of the median are level 2) used
/// for the masked-apply validation.
core::LtsStructure two_level_structure(const mesh::HexMesh& m, const SemSpace& space) {
  std::vector<level_t> elem_level(static_cast<std::size_t>(m.num_elems()), 1);
  for (index_t e = 0; e < m.num_elems(); ++e)
    if (m.centroid(e)[0] < 0.5) elem_level[static_cast<std::size_t>(e)] = 2;
  core::LevelAssignment levels;
  levels.num_levels = 2;
  levels.dt = 1e-3;
  levels.elem_level = elem_level;
  levels.level_counts.assign(2, 0);
  for (level_t l : elem_level) ++levels.level_counts[static_cast<std::size_t>(l - 1)];
  return core::build_lts_structure(space, levels);
}

/// A level plan over `st` in the production (homogeneous-first) or the
/// reference (structure) element order.
BatchPlan level_plan(const SemSpace& space, int ncomp, const core::LtsStructure& st,
                     bool homogeneous_first) {
  std::vector<BatchPlan::Group> groups;
  for (level_t k = 1; k <= st.num_levels; ++k) {
    const auto& ek = st.eval_elems[static_cast<std::size_t>(k - 1)];
    BatchPlan::Group g;
    g.elems = homogeneous_first ? order_homogeneous_first(space, ek, k, st.node_level) : ek;
    g.level = k;
    g.node_level = st.node_level;
    groups.push_back(std::move(g));
  }
  return BatchPlan(space, ncomp, std::move(groups));
}

/// Block-vs-oracle sweep on one mesh: the full apply through the operator's
/// full-mesh plan, and the level-restricted applies through level plans in
/// both element orders (per-block masks), all against the oracle at 1e-12.
/// The mesh has 36 elements, so every block width (8/16/32) gets a ragged
/// tail block; `expect_affine` asserts which metric form the plan chose
/// (compact separable constants on parallelepiped meshes, full planes on
/// warped ones), guaranteeing both kernel variants are exercised.
template <class Op>
void blocks_match_oracle(const mesh::HexMesh& m, int order, bool expect_affine) {
  SemSpace space(m, order);
  Op op(space);
  const int nc = op.ncomp();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(nc);
  auto ws = op.make_workspace();

  Rng rng(5000 + order + 10 * nc + (expect_affine ? 1 : 0));
  const auto u = random_field(ndof, rng);

  const BatchPlan& fp = op.full_plan();
  bool ragged = false, affine = false, full_metric = false;
  for (index_t b = 0; b < fp.num_blocks(); ++b) {
    ragged = ragged || fp.block_fill(b) < fp.width();
    (fp.block_affine(b) ? affine : full_metric) = true;
  }
  EXPECT_TRUE(ragged) << "sweep must cover a ragged tail block";
  EXPECT_EQ(affine, expect_affine) << "order " << order;
  EXPECT_EQ(full_metric, !expect_affine) << "order " << order;

  std::vector<real_t> out_blk(ndof, 0.0);
  op.apply_add_blocks(fp, 0, fp.num_blocks(), u.data(), out_blk.data(), ws);
  EXPECT_LT(max_rel_diff(out_blk, testing_oracle::apply(space, nc, u)), 1e-12)
      << "full, order " << order;

  const auto st = two_level_structure(m, space);
  for (const bool homogeneous_first : {true, false}) {
    const BatchPlan lp = level_plan(space, nc, st, homogeneous_first);
    for (level_t k = 1; k <= 2; ++k) {
      const auto range = lp.group_blocks(static_cast<std::size_t>(k - 1));
      std::vector<real_t> m_blk(ndof, 0.0), m_oracle(ndof, 0.0);
      op.apply_add_blocks(lp, range.first, range.last, u.data(), m_blk.data(), ws);
      testing_oracle::apply_add(space, nc, st.eval_elems[static_cast<std::size_t>(k - 1)],
                                u.data(), m_oracle.data(), st.node_level.data(), k);
      EXPECT_LT(max_rel_diff(m_blk, m_oracle), 1e-12)
          << "masked level " << k << ", order " << order
          << (homogeneous_first ? ", homogeneous-first" : ", structure order");
    }
  }
}

/// 36-element warped two-material mesh (non-affine geometry: full metric
/// planes) — a full block plus a ragged tail at every block width.
mesh::HexMesh make_sweep_mesh(bool warped) {
  mesh::Material mat;
  mat.vp = 1.9;
  mat.vs = 1.0;
  mat.rho = 1.2;
  auto m = mesh::make_uniform_box(4, 3, 3, {1.2, 0.9, 1.1}, mat);
  if (warped)
    warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
      x += 0.04 * std::sin(2 * y + z);
      y += 0.03 * std::cos(3 * x);
      z += 0.03 * std::sin(x + 2 * y);
    });
  return m;
}

TEST(Kernels, AcousticBlocksMatchOracleOrders1To9) {
  for (int order = 1; order <= 9; ++order)
    blocks_match_oracle<AcousticOperator>(make_sweep_mesh(true), order, false);
}

TEST(Kernels, ElasticBlocksMatchOracleOrders1To9) {
  for (int order = 1; order <= 9; ++order)
    blocks_match_oracle<ElasticOperator>(make_sweep_mesh(true), order, false);
}

TEST(Kernels, AffineBlocksMatchOracle) {
  // Parallelepiped mesh: every block takes the compact separable metric.
  for (int order : {1, 2, 4, 6, 9}) {
    blocks_match_oracle<AcousticOperator>(make_sweep_mesh(false), order, true);
    blocks_match_oracle<ElasticOperator>(make_sweep_mesh(false), order, true);
  }
}

/// Asserts the invariant the unchecked SIMD scatter relies on for *every*
/// block of `plan`: the real lanes touch pairwise-disjoint global node sets,
/// so the per-row scatter_add never lands two lanes on the same mesh row.
void expect_blocks_conflict_free(const BatchPlan& plan, const std::string& what) {
  const SemSpace& space = plan.space();
  const int npts = space.nodes_per_elem();
  ASSERT_GT(plan.num_blocks(), 0) << what;
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    std::set<gindex_t> seen;
    const index_t* be = plan.block_elems(b);
    for (int l = 0; l < plan.block_fill(b); ++l)
      for (int q = 0; q < npts; ++q) {
        const gindex_t node = space.elem_nodes(be[l])[q];
        ASSERT_TRUE(seen.insert(node).second)
            << what << ": block " << b << " lane " << l << " shares node " << node;
      }
  }
}

/// Serial LTS structure and operator for a registered scenario.
struct ScenarioRig {
  mesh::HexMesh mesh;
  std::unique_ptr<SemSpace> space;
  std::unique_ptr<WaveOperator> op;
  core::LevelAssignment levels;
  core::LtsStructure st;

  explicit ScenarioRig(const scenarios::ScenarioSpec& spec) : mesh(spec.build_mesh()) {
    const auto cfg = spec.config();
    space = std::make_unique<SemSpace>(mesh, cfg.order);
    if (cfg.physics == core::Physics::Acoustic)
      op = std::make_unique<AcousticOperator>(*space);
    else
      op = std::make_unique<ElasticOperator>(*space);
    levels = core::assign_levels(mesh, cfg.courant, cfg.max_levels);
    st = core::build_lts_structure(*space, levels);
  }
};

/// The registered scenario on the 2-rank threaded executor.
std::unique_ptr<core::WaveSimulation> threaded_r2(scenarios::ScenarioSpec spec) {
  spec.executor = "threaded/level-aware+steal";
  spec.num_ranks = 2;
  spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  return spec.make_simulation();
}

TEST(Kernels, ConflictFreeBlocksShareNoMeshRow) {
  // Every plan the library builds is conflict-free, so every block scatter
  // is the unchecked SIMD one: check the full plans of both sweep meshes and
  // the serial level plan and the 2-rank threaded plan of a paper scenario.
  for (const bool warped : {false, true}) {
    const auto m = make_sweep_mesh(warped);
    SemSpace space(m, 3);
    const AcousticOperator op(space);
    expect_blocks_conflict_free(op.full_plan(), warped ? "full plan warped" : "full plan box");
  }
  const auto spec = scenarios::get("trench-paper");
  const ScenarioRig rig(spec);
  const core::LtsNewmarkSolver solver(*rig.op, rig.levels, rig.st);
  expect_blocks_conflict_free(solver.plan(), "trench-paper serial level plan");
  const auto sim = threaded_r2(spec);
  ASSERT_NE(sim->threaded(), nullptr);
  expect_blocks_conflict_free(sim->threaded()->plan(), "trench-paper threaded r2 plan");
}

TEST(Kernels, ConflictFreeBinningPermutesButCoversTheGroup) {
  // Binning may reorder and split, but never drops or duplicates an element,
  // and it is deterministic: two constructions give the identical layout.
  const auto m = make_sweep_mesh(true);
  SemSpace space(m, 4);
  const auto st = two_level_structure(m, space);
  const BatchPlan plan = level_plan(space, 1, st, /*homogeneous_first=*/true);
  const BatchPlan again = level_plan(space, 1, st, /*homogeneous_first=*/true);

  ASSERT_EQ(plan.num_groups(), 2u);
  for (std::size_t gi = 0; gi < plan.num_groups(); ++gi) {
    auto elems_of = [gi](const BatchPlan& p) {
      std::vector<index_t> v;
      const auto range = p.group_blocks(gi);
      for (index_t b = range.first; b < range.last; ++b) {
        const index_t* be = p.block_elems(b);
        v.insert(v.end(), be, be + p.block_fill(b));
      }
      return v;
    };
    std::vector<index_t> a = elems_of(plan);
    EXPECT_EQ(a, elems_of(again)) << "group " << gi << ": binning not deterministic";
    std::vector<index_t> want = plan.group(gi).elems;
    std::sort(a.begin(), a.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(a, want) << "group " << gi << ": binning changed the covered element set";
  }
}

/// Oracle for the conflict-free binning: first-fit over the explicit
/// element conflict graph (every pair of elements sharing a global node,
/// merged by graph::graph_from_edges), the formulation the plan's linear-time
/// node -> element incidence must reproduce bin for bin.
std::vector<std::vector<index_t>> oracle_conflict_bins(const SemSpace& space,
                                                       std::span<const index_t> elems,
                                                       int width) {
  const auto n = static_cast<index_t>(elems.size());
  const int npts = space.nodes_per_elem();
  std::vector<std::pair<gindex_t, index_t>> touch;
  for (index_t i = 0; i < n; ++i) {
    const gindex_t* l2g = space.elem_nodes(elems[static_cast<std::size_t>(i)]);
    for (int q = 0; q < npts; ++q) touch.emplace_back(l2g[q], i);
  }
  std::sort(touch.begin(), touch.end());
  std::vector<std::tuple<index_t, index_t, graph::weight_t>> edges;
  for (std::size_t a = 0; a < touch.size();) {
    std::size_t b = a + 1;
    while (b < touch.size() && touch[b].first == touch[a].first) ++b;
    for (std::size_t i = a; i < b; ++i)
      for (std::size_t j = i + 1; j < b; ++j)
        if (touch[i].second != touch[j].second)
          edges.emplace_back(touch[i].second, touch[j].second, 1);
    a = b;
  }
  const graph::CsrGraph g = graph::graph_from_edges(n, edges);

  std::vector<std::vector<index_t>> bins;
  std::vector<index_t> bin_of(static_cast<std::size_t>(n), -1);
  std::vector<index_t> forbidden_at;
  for (index_t i = 0; i < n; ++i) {
    for (const index_t nb : g.neighbors(i)) {
      const index_t bn = bin_of[static_cast<std::size_t>(nb)];
      if (bn >= 0) forbidden_at[static_cast<std::size_t>(bn)] = i;
    }
    index_t chosen = -1;
    for (std::size_t bn = 0; bn < bins.size(); ++bn)
      if (forbidden_at[bn] != i && static_cast<int>(bins[bn].size()) < width) {
        chosen = static_cast<index_t>(bn);
        break;
      }
    if (chosen < 0) {
      chosen = static_cast<index_t>(bins.size());
      bins.emplace_back();
      forbidden_at.push_back(-1);
    }
    bins[static_cast<std::size_t>(chosen)].push_back(elems[static_cast<std::size_t>(i)]);
    bin_of[static_cast<std::size_t>(i)] = chosen;
  }
  return bins;
}

/// Checks every group of a conflict-free plan against the oracle: masked
/// groups bin their homogeneous prefix and the rest separately, in order.
void expect_bins_match_oracle(const BatchPlan& plan, const std::string& what) {
  const SemSpace& space = plan.space();
  ASSERT_GT(plan.num_groups(), 1u) << what;
  for (std::size_t gi = 0; gi < plan.num_groups(); ++gi) {
    const auto& grp = plan.group(gi);
    const std::span<const index_t> all(grp.elems);
    std::size_t split = all.size();
    if (grp.level > 0) {
      const auto homogeneous = [&](index_t e) {
        const gindex_t* l2g = space.elem_nodes(e);
        for (int q = 0; q < space.nodes_per_elem(); ++q)
          if (grp.node_level[static_cast<std::size_t>(l2g[q])] != grp.level) return false;
        return true;
      };
      split = 0;
      while (split < all.size() && homogeneous(all[split])) ++split;
    }
    std::vector<std::vector<index_t>> want;
    for (const auto segment : {all.subspan(0, split), all.subspan(split)})
      if (!segment.empty())
        for (auto& bin : oracle_conflict_bins(space, segment, plan.width()))
          want.push_back(std::move(bin));

    const auto range = plan.group_blocks(gi);
    ASSERT_EQ(static_cast<std::size_t>(range.count()), want.size()) << what << " group " << gi;
    for (index_t b = range.first; b < range.last; ++b) {
      const index_t* be = plan.block_elems(b);
      EXPECT_EQ(std::vector<index_t>(be, be + plan.block_fill(b)),
                want[static_cast<std::size_t>(b - range.first)])
          << what << " group " << gi << " block " << b;
    }
  }
}

TEST(Kernels, ConflictFreeBinsMatchConflictGraphOracle) {
  for (const char* name : {"trench-paper", "embedding-paper"}) {
    const auto spec = scenarios::get(name);
    // Serial plan: one group per LTS level.
    {
      const ScenarioRig rig(spec);
      const core::LtsNewmarkSolver solver(*rig.op, rig.levels, rig.st);
      expect_bins_match_oracle(solver.plan(), std::string(name) + " serial");
    }
    // Threaded plan on 2 ranks: (rank, level) groups.
    const auto sim = threaded_r2(spec);
    ASSERT_NE(sim->threaded(), nullptr);
    expect_bins_match_oracle(sim->threaded()->plan(), std::string(name) + " threaded r2");
  }
}

TEST(Kernels, LevelPlanMasksClassifyElements) {
  // Per-block level masks of a solver-style level plan: a mixed block's
  // real-lane mask is exactly [node_level == k] (padded lanes all zero), and
  // a block without a mask holds only elements homogeneous at level k.
  const auto m = make_test_mesh();
  SemSpace space(m, 3);
  const auto st = two_level_structure(m, space);
  const BatchPlan plan = level_plan(space, 1, st, /*homogeneous_first=*/true);
  const int npts = space.nodes_per_elem();
  const int W = plan.width();
  int homogeneous = 0, mixed = 0;
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    const level_t k = plan.block_level(b);
    const index_t* be = plan.block_elems(b);
    const real_t* mk = plan.mask(b);
    (mk == nullptr ? homogeneous : mixed) += 1;
    bool all_homogeneous = true;
    for (int l = 0; l < W; ++l)
      for (int q = 0; q < npts; ++q) {
        const bool is_k = st.node_level[static_cast<std::size_t>(space.elem_nodes(be[l])[q])] == k;
        if (l < plan.block_fill(b)) all_homogeneous = all_homogeneous && is_k;
        if (mk != nullptr) {
          EXPECT_EQ(mk[q * W + l], l < plan.block_fill(b) && is_k ? 1.0 : 0.0)
              << "block " << b << " lane " << l << " node " << q;
        }
      }
    if (mk == nullptr) {
      EXPECT_TRUE(all_homogeneous) << "unmasked block " << b << " is mixed";
    } else {
      EXPECT_FALSE(all_homogeneous) << "homogeneous block " << b << " carries a mask";
    }
  }
  // The synthetic split has both bulk and level-interface blocks.
  EXPECT_GT(homogeneous, 0);
  EXPECT_GT(mixed, 0);
}

/// v^{-1/2} = v0 - dt/2 Minv (f(0) - K u0) with K u0 from the oracle.
std::vector<real_t> expected_v_half(const SemSpace& space, int nc, real_t dt,
                                    const std::vector<real_t>& u0, const std::vector<real_t>& v0,
                                    const PointSource& src) {
  const auto ku = testing_oracle::apply(space, nc, u0);
  std::vector<real_t> f(u0.size(), 0.0);
  src.accumulate(0.0, nc, f.data());
  std::vector<real_t> v(v0.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = v0[i] - 0.5 * dt * space.inv_mass()[i / static_cast<std::size_t>(nc)] * (f[i] - ku[i]);
  return v;
}

TEST(Kernels, SetStateAppliesEveryLevelPlanBlock) {
  // set_state computes K u0 as the sum of every block of the solver's own
  // level plan (sum_k K P_k u over E(k) = K u, since sum_k P_k = I): v_half
  // must match the oracle's staggered start, and no work counter may move.
  // Skipping any (rank, level) group breaks the identity by O(1).
  const auto m = mesh::make_strip_mesh(16, 0.3, 4.0);
  SemSpace space(m, 3);
  const auto levels = core::assign_levels(m, 0.05);
  ASSERT_GE(levels.num_levels, 3);
  const auto st = core::build_lts_structure(space, levels);
  partition::PartitionerConfig pcfg;
  pcfg.num_parts = 2;
  const auto part = partition::partition_mesh(m, levels.elem_level, levels.num_levels, pcfg);

  for (const bool elastic : {false, true}) {
    std::unique_ptr<WaveOperator> op;
    if (elastic)
      op = std::make_unique<ElasticOperator>(space);
    else
      op = std::make_unique<AcousticOperator>(space);
    const int nc = op->ncomp();
    const std::size_t ndof =
        static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(nc);
    Rng rng(elastic ? 31 : 17);
    const auto u0 = random_field(ndof, rng);
    auto v0 = random_field(ndof, rng);
    for (auto& x : v0) x *= 1e-3;
    // Early Ricker delay so f(0) is O(1) and the source term is checked too.
    PointSource src = PointSource::at(space, {0.5, 0.5, 0.5}, 2.0, {0.3, -0.5, 0.8});
    src.wavelet = RickerWavelet(2.0, 0.05);
    const auto want = expected_v_half(space, nc, levels.dt, u0, v0, src);
    const std::string phys = elastic ? "elastic" : "acoustic";

    core::LtsNewmarkSolver serial(*op, levels, st);
    serial.add_source(src);
    serial.set_state(u0, v0);
    EXPECT_LT(max_rel_diff(want, serial.v_half()), 1e-13) << phys << " serial";
    EXPECT_EQ(serial.element_applies(), 0) << phys;
    EXPECT_EQ(serial.blocks_applied(), 0) << phys;

    for (const auto mode : {runtime::SchedulerMode::BarrierAll, runtime::SchedulerMode::LevelAware,
                            runtime::SchedulerMode::LevelAwareSteal}) {
      runtime::SchedulerConfig cfg;
      cfg.mode = mode;
      cfg.oversubscribe = runtime::Oversubscribe::Warn;
      runtime::ThreadedLtsSolver threaded(*op, levels, st, part, cfg);
      threaded.add_source(src);
      threaded.set_state(u0, v0);
      const std::vector<real_t> v(threaded.v_half().begin(), threaded.v_half().end());
      EXPECT_LT(max_rel_diff(want, v), 1e-13) << phys << " threaded " << to_string(mode);
      EXPECT_EQ(threaded.element_applies(), 0) << phys << " " << to_string(mode);
      EXPECT_EQ(threaded.blocks_applied(), 0) << phys << " " << to_string(mode);
    }
  }
}

TEST(Kernels, EnergyConservedThroughSolverOnSpecializedPaths) {
  // LTS-Newmark smoke test on the production kernel path (specialized
  // dispatch + per-block level masks): the staggered energy must stay in a tight
  // band over a few hundred cycles — any kernel/mask inconsistency between
  // levels destroys this immediately.
  const auto m = mesh::make_strip_mesh(16, 0.3, 4.0);
  SemSpace space(m, 4);
  AcousticOperator op(space);
  const auto levels = core::assign_levels(m, 0.05);
  ASSERT_GE(levels.num_levels, 2);
  const auto st = core::build_lts_structure(space, levels);
  core::LtsNewmarkSolver solver(op, levels, st);

  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u0(n);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    u0[static_cast<std::size_t>(g)] =
        std::cos(M_PI * x[0]) * std::cos(M_PI * x[1]) * std::cos(M_PI * x[2]);
  }
  solver.set_state(u0, std::vector<real_t>(n, 0.0));

  std::vector<real_t> energies;
  std::vector<real_t> u_prev;
  for (int step = 0; step < 200; ++step) {
    u_prev = solver.u();
    solver.step();
    energies.push_back(core::staggered_energy(op, u_prev, solver.u(), solver.v_half()));
    ASSERT_GT(energies.back(), 0);
  }
  // Bounded O(dt^2) fluctuation, and no systematic drift between the early
  // and late windows.
  const real_t e0 = energies.front();
  for (std::size_t i = 0; i < energies.size(); ++i)
    ASSERT_NEAR(energies[i], e0, 0.05 * e0) << "energy band violated at step " << i;
  auto mean = [&](std::size_t lo, std::size_t hi) {
    real_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += energies[i];
    return acc / static_cast<real_t>(hi - lo);
  };
  EXPECT_NEAR(mean(energies.size() - 20, energies.size()), mean(0, 20), 2e-3 * e0);
}

} // namespace
} // namespace ltswave::sem
