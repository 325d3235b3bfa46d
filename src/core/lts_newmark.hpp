#pragma once

/// \file lts_newmark.hpp
/// Multi-level LTS-Newmark (paper Sec. II, Algorithm 1 generalized to N
/// levels). Two implementations:
///
///  * LtsNewmarkReference — a direct transcription of the recursive scheme on
///    full-length global vectors. Every substep evaluates A P_k u with column
///    masking but updates *all* rows, exactly as the algebra is written. Used
///    as the ground truth in tests; O(levels) full vectors of memory and
///    O(N_dof) work per substep, so it enjoys no LTS speedup.
///
///  * LtsNewmarkSolver — the production scheme (paper Sec. II-C: "working out
///    the minimal set of required numerical operations ... requires great
///    care"). Per level k it touches only:
///      - E(k) elements for force evaluations (own + halo elements),
///      - R(k+1) rows for the velocity reconstruction,
///      - S(k) rows for the collapsed leapfrog update (rows whose forces are
///        frozen during finer substeps evolve exactly as a single leapfrog
///        step with that frozen force, so the fine recursion is skipped).
///    Work per cycle is sum_k p_k |E(k)| element applies, matching the
///    speedup model (Eq. 9) up to the halo overhead.
///
/// Both advance a full Delta-t cycle per step() and agree to roundoff; with a
/// single level both reduce to the global Newmark scheme exactly.

#include <vector>

#include "core/integrator.hpp"
#include "core/lts_levels.hpp"
#include "core/newmark.hpp"
#include "perf/run_report.hpp"

namespace ltswave::core {

/// Production multi-level LTS-Newmark solver.
class LtsNewmarkSolver {
public:
  /// `integ` selects the deepest-level substep rule (see integrator.hpp);
  /// the default reproduces the historical Newmark scheme bit-for-bit.
  LtsNewmarkSolver(const sem::WaveOperator& op, const LevelAssignment& levels,
                   const LtsStructure& structure, Integrator integ = Integrator::newmark());

  [[nodiscard]] const Integrator& integrator() const noexcept { return integ_; }

  void set_state(std::span<const real_t> u0, std::span<const real_t> v0);
  void add_source(const sem::PointSource& src);
  void set_fixed_nodes(std::span<const gindex_t> nodes);

  /// Overwrites the raw staggered state (u, v^{t-dt/2}), the clock and the
  /// work counters — the executor hand-off used by Executor::adopt_state_from.
  /// Exact at cycle boundaries: the frozen force / cumulative buffers are
  /// recomputed from u at the start of every cycle (see step()), so (u, v,
  /// time) is the solver's complete cross-cycle dynamical state.
  void adopt_raw_state(std::span<const real_t> u, std::span<const real_t> v_half, real_t time,
                       std::int64_t applies_total, std::span<const std::int64_t> applies_per_level,
                       std::int64_t blocks_applied);

  /// Restores the frozen per-level forces and the cumulative sum captured by
  /// a checkpoint of the same level structure. Recompute-from-u at the next
  /// cycle start already makes a restore *numerically* exact; importing the
  /// accumulators additionally makes it *bitwise* exact, because the
  /// incremental fold `cumulative += fresh - frozen` reassociates differently
  /// from zeroed buffers. Shape mismatches (a cross-scheme checkpoint) are
  /// silently ignored — recompute semantics then apply.
  void import_accumulators(const std::vector<std::vector<real_t>>& forces,
                           std::span<const real_t> cumulative);

  [[nodiscard]] const std::vector<std::vector<real_t>>& frozen_forces() const noexcept {
    return forces_;
  }
  [[nodiscard]] const std::vector<real_t>& cumulative() const noexcept { return cumulative_; }

  /// Advances one LTS cycle (one coarse step Delta-t).
  void step();

  [[nodiscard]] real_t time() const noexcept { return time_; }
  [[nodiscard]] real_t dt() const noexcept { return dt_; }
  [[nodiscard]] const std::vector<real_t>& u() const noexcept { return u_; }
  /// Mutable state access for the fault-injection harness (NaN pokes).
  [[nodiscard]] std::vector<real_t>& u() noexcept { return u_; }
  [[nodiscard]] const std::vector<real_t>& v_half() const noexcept { return v_; }
  [[nodiscard]] level_t num_levels() const noexcept { return levels_->num_levels; }

  /// Element applies so far, total and per level (work counters used by the
  /// serial-efficiency bench and by the machine-model calibration).
  [[nodiscard]] std::int64_t element_applies() const noexcept { return applies_total_; }
  [[nodiscard]] const std::vector<std::int64_t>& applies_per_level() const noexcept {
    return applies_per_level_;
  }
  /// Batched kernel calls so far (every force evaluation runs the block path).
  [[nodiscard]] std::int64_t blocks_applied() const noexcept { return blocks_applied_; }

  /// The level-grouped batched execution plan (roofline accounting).
  [[nodiscard]] const sem::BatchPlan& plan() const noexcept { return plan_; }

  /// Appends this solver's phase accumulators — "eval.L<k>" (per-level block
  /// kernel time), "reduce" (Minv scaling + cumulative-force folds) and
  /// "update" (row updates + reconstructions), plus "sources" when any are
  /// registered — onto `report`. Lifetime-monotone, timed at phase boundaries
  /// only (never inside apply_add_blocks).
  void fill_phases(perf::RunReport& report) const;

private:
  void recompute_force(level_t k);
  void apply_level_blocks(level_t k);
  void run_level(level_t k, real_t t0);
  void collapsed_update(level_t k, std::span<const gindex_t> rows, bool first, SubstepCoeffs cs,
                        real_t t_sub, std::vector<real_t>& vt, const real_t* extra);
  void apply_sources_to(level_t k, real_t t_sub, std::vector<real_t>& force_accum);
  void clear_source_scratch();

  const sem::WaveOperator* op_;
  const LevelAssignment* levels_;
  const LtsStructure* structure_;
  Integrator integ_;
  real_t dt_;
  real_t time_ = 0;
  real_t cycle_t0_ = 0; ///< start of the current cycle; sources freeze here
  int ncomp_;

  std::vector<real_t> inv_mass_; // one entry per node (components share it);
                                 // Dirichlet nodes zeroed
  std::vector<real_t> u_, v_;
  std::vector<real_t> scratch_;               // K-apply target
  std::vector<real_t> cumulative_;            // C = sum_{j<=N-1} forces[j]
  std::vector<std::vector<real_t>> forces_;   // frozen A P_k u, k = 1..N-1
  std::vector<std::vector<real_t>> vt_;       // aux velocities, k = 2..N
  std::vector<std::vector<real_t>> usave_;    // parent field save, k = 1..N-1
  std::vector<std::vector<sem::PointSource>> sources_by_level_; // by rho(node)
  std::vector<sem::PointSource> sources_;
  std::vector<real_t> src_scratch_;      // persistently zero between uses
  std::vector<std::size_t> src_dirty_;   // dofs touched in src_scratch_

  sem::KernelWorkspace ws_;
  /// Level-grouped batched execution plan: group k-1 holds E(k)'s blocks,
  /// level-homogeneous elements first so the leading blocks are mask-free.
  sem::BatchPlan plan_;
  std::int64_t applies_total_ = 0;
  std::vector<std::int64_t> applies_per_level_;
  std::int64_t blocks_applied_ = 0;

  // Phase accumulators (fill_phases). One WallTimer read per phase region per
  // substep — nothing inside the block kernels themselves.
  std::vector<double> eval_seconds_;          // per level
  std::vector<std::int64_t> eval_count_;      // per level
  double reduce_seconds_ = 0;
  std::int64_t reduce_count_ = 0;
  double update_seconds_ = 0;
  std::int64_t update_count_ = 0;
  double source_seconds_ = 0;
  std::int64_t source_count_ = 0;
};

/// Reference implementation (tests only).
class LtsNewmarkReference {
public:
  LtsNewmarkReference(const sem::WaveOperator& op, const LevelAssignment& levels,
                      const LtsStructure& structure, Integrator integ = Integrator::newmark());

  void set_state(std::span<const real_t> u0, std::span<const real_t> v0);
  void step();

  [[nodiscard]] real_t time() const noexcept { return time_; }
  [[nodiscard]] real_t dt() const noexcept { return dt_; }
  [[nodiscard]] const std::vector<real_t>& u() const noexcept { return u_; }
  [[nodiscard]] const std::vector<real_t>& v_half() const noexcept { return v_; }

private:
  std::vector<real_t> apply_level(level_t k, const std::vector<real_t>& field);
  std::vector<real_t> run_level(level_t k, const std::vector<real_t>& u0,
                                const std::vector<real_t>& frozen);

  const sem::WaveOperator* op_;
  const LevelAssignment* levels_;
  const LtsStructure* structure_;
  Integrator integ_;
  real_t dt_;
  real_t time_ = 0;
  int ncomp_;
  std::vector<real_t> inv_mass_;
  std::vector<real_t> u_, v_;
  sem::KernelWorkspace ws_;
  /// Level plan over E(k) in structure order (no homogeneous-first
  /// reordering), so its blocks and masks differ from the production plan's.
  sem::BatchPlan plan_;
};

} // namespace ltswave::core
