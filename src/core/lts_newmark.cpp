#include "core/lts_newmark.hpp"

#include <algorithm>
#include <string>

#include "common/timer.hpp"

namespace ltswave::core {

// The lumped inverse mass is shared by all field components, so both solvers
// keep one entry per *node* (not per dof) and index it by g inside the
// component loops — one third of the mass-vector traffic on every elastic row
// update. Dirichlet rows are realized by zeroing the node's entry
// (set_fixed_nodes), which zeroes every component at once, exactly as the
// former per-dof expansion did.

namespace {

/// A serial level plan: one group per level over E(k), in level order (rank
/// is trivially 0 here). The production solver moves the level-homogeneous
/// elements first so the bulk of each group's blocks take the mask-free fast
/// path and only the trailing level-boundary blocks carry masks; the
/// reference keeps E(k) in structure order, so its blocks and masks differ.
sem::BatchPlan make_level_plan(const sem::WaveOperator& op, const LtsStructure& structure,
                               bool homogeneous_first) {
  std::vector<sem::BatchPlan::Group> groups;
  groups.reserve(static_cast<std::size_t>(structure.num_levels));
  for (level_t k = 1; k <= structure.num_levels; ++k) {
    const auto& elems = structure.eval_elems[static_cast<std::size_t>(k - 1)];
    sem::BatchPlan::Group g;
    g.elems = homogeneous_first
                  ? sem::order_homogeneous_first(op.space(), elems, k, structure.node_level)
                  : elems;
    g.level = k;
    g.node_level = structure.node_level;
    groups.push_back(std::move(g));
  }
  return sem::BatchPlan(op.space(), op.ncomp(), std::move(groups));
}

} // namespace

// ===========================================================================
// Production solver
// ===========================================================================

LtsNewmarkSolver::LtsNewmarkSolver(const sem::WaveOperator& op, const LevelAssignment& levels,
                                   const LtsStructure& structure, Integrator integ)
    : op_(&op),
      levels_(&levels),
      structure_(&structure),
      integ_(integ),
      dt_(levels.dt),
      ncomp_(op.ncomp()),
      ws_(op.make_workspace()),
      plan_(make_level_plan(op, structure, /*homogeneous_first=*/true)) {
  const auto& space = op.space();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(ncomp_);
  inv_mass_ = space.inv_mass();
  u_.assign(ndof, 0.0);
  v_.assign(ndof, 0.0);
  scratch_.assign(ndof, 0.0);
  const level_t nl = levels.num_levels;
  if (nl > 1) {
    cumulative_.assign(ndof, 0.0);
    forces_.assign(static_cast<std::size_t>(nl - 1), std::vector<real_t>(ndof, 0.0));
    usave_.assign(static_cast<std::size_t>(nl - 1), std::vector<real_t>(ndof, 0.0));
    vt_.assign(static_cast<std::size_t>(nl - 1), std::vector<real_t>(ndof, 0.0)); // vt_[k-2] for level k
  }
  sources_by_level_.assign(static_cast<std::size_t>(nl), {});
  src_scratch_.assign(ndof, 0.0);
  applies_per_level_.assign(static_cast<std::size_t>(nl), 0);
  eval_seconds_.assign(static_cast<std::size_t>(nl), 0.0);
  eval_count_.assign(static_cast<std::size_t>(nl), 0);
}

void LtsNewmarkSolver::fill_phases(perf::RunReport& report) const {
  for (level_t k = 1; k <= levels_->num_levels; ++k) {
    report.add_phase("eval.L" + std::to_string(k), eval_seconds_[static_cast<std::size_t>(k - 1)],
                     eval_count_[static_cast<std::size_t>(k - 1)]);
  }
  report.add_phase("reduce", reduce_seconds_, reduce_count_);
  report.add_phase("update", update_seconds_, update_count_);
  if (!sources_.empty()) report.add_phase("sources", source_seconds_, source_count_);
}

void LtsNewmarkSolver::add_source(const sem::PointSource& src) {
  sources_.push_back(src);
  const level_t rho = structure_->node_rho[static_cast<std::size_t>(src.node)];
  sources_by_level_[static_cast<std::size_t>(rho - 1)].push_back(src);
}

void LtsNewmarkSolver::set_fixed_nodes(std::span<const gindex_t> nodes) {
  for (gindex_t g : nodes) inv_mass_[static_cast<std::size_t>(g)] = 0.0;
}

void LtsNewmarkSolver::set_state(std::span<const real_t> u0, std::span<const real_t> v0) {
  LTS_CHECK(u0.size() == u_.size() && v0.size() == v_.size());
  std::copy(u0.begin(), u0.end(), u_.begin());
  // v^{-1/2} = v(0) - dt/2 * a(0), a(0) = Minv (f(0) - K u0), accumulated
  // as scratch_ = K u0 - f(0). K u0 is every block of the level plan:
  // sum_k K P_k u over E(k) = K u since sum_k P_k = I. The operator's
  // full-mesh plan would duplicate every metric slab the level plan already
  // holds. Neither work counter includes this apply (set_state is not cycle
  // work), matching element_applies' convention.
  std::fill(scratch_.begin(), scratch_.end(), 0.0);
  op_->apply_add_blocks(plan_, 0, plan_.num_blocks(), u_.data(), scratch_.data(), ws_);
  for (sem::PointSource s : sources_) {
    s.amplitude = -s.amplitude;
    s.accumulate(0.0, ncomp_, scratch_.data());
  }
  for (gindex_t g = 0; g < op_->space().num_global_nodes(); ++g) {
    const real_t im = inv_mass_[static_cast<std::size_t>(g)];
    for (int c = 0; c < ncomp_; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
      v_[i] = v0[i] + 0.5 * dt_ * im * scratch_[i];
    }
  }
  time_ = 0;
}

void LtsNewmarkSolver::adopt_raw_state(std::span<const real_t> u, std::span<const real_t> v_half,
                                       real_t time, std::int64_t applies_total,
                                       std::span<const std::int64_t> applies_per_level,
                                       std::int64_t blocks_applied) {
  LTS_CHECK(u.size() == u_.size() && v_half.size() == v_.size());
  LTS_CHECK(applies_per_level.size() == applies_per_level_.size());
  std::copy(u.begin(), u.end(), u_.begin());
  std::copy(v_half.begin(), v_half.end(), v_.begin());
  time_ = time;
  cycle_t0_ = time;
  applies_total_ = applies_total;
  std::copy(applies_per_level.begin(), applies_per_level.end(), applies_per_level_.begin());
  blocks_applied_ = blocks_applied;
}

void LtsNewmarkSolver::import_accumulators(const std::vector<std::vector<real_t>>& forces,
                                           std::span<const real_t> cumulative) {
  if (forces.size() != forces_.size() || cumulative.size() != cumulative_.size()) return;
  for (std::size_t k = 0; k < forces.size(); ++k)
    if (forces[k].size() != forces_[k].size()) return;
  for (std::size_t k = 0; k < forces.size(); ++k)
    std::copy(forces[k].begin(), forces[k].end(), forces_[k].begin());
  std::copy(cumulative.begin(), cumulative.end(), cumulative_.begin());
}

void LtsNewmarkSolver::apply_sources_to(level_t k, real_t t_sub,
                                        std::vector<real_t>& force_accum) {
  // Adds -Minv f(t) into the force accumulator so the common update
  // v -= delta * F realizes v += delta * Minv f. Touched dofs are recorded so
  // the (full-length, persistently zero) accumulator can be cleared in O(#src).
  for (const auto& s : sources_by_level_[static_cast<std::size_t>(k - 1)]) {
    const real_t val = s.amplitude * s.wavelet(t_sub);
    const real_t im = inv_mass_[static_cast<std::size_t>(s.node)];
    for (int c = 0; c < ncomp_; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(s.node) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
      force_accum[i] -= im * val * s.direction[static_cast<std::size_t>(c)];
      src_dirty_.push_back(i);
    }
  }
}

void LtsNewmarkSolver::clear_source_scratch() {
  for (std::size_t i : src_dirty_) src_scratch_[i] = 0.0;
  src_dirty_.clear();
}

void LtsNewmarkSolver::recompute_force(level_t k) {
  // forces_[k-1] <- Minv K P_k u on rows(E(k)); cumulative_ updated by delta.
  const auto& elems = structure_->eval_elems[static_cast<std::size_t>(k - 1)];
  const auto& rows = structure_->eval_rows[static_cast<std::size_t>(k - 1)];
  auto& fk = forces_[static_cast<std::size_t>(k - 1)];

  for (gindex_t g : rows)
    for (int c = 0; c < ncomp_; ++c)
      scratch_[static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c)] = 0.0;

  apply_level_blocks(k);
  applies_total_ += static_cast<std::int64_t>(elems.size());
  applies_per_level_[static_cast<std::size_t>(k - 1)] += static_cast<std::int64_t>(elems.size());

  const WallTimer timer;
  for (gindex_t g : rows) {
    const real_t im = inv_mass_[static_cast<std::size_t>(g)];
    for (int c = 0; c < ncomp_; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
      const real_t fresh = im * scratch_[i];
      cumulative_[i] += fresh - fk[i];
      fk[i] = fresh;
    }
  }
  reduce_seconds_ += timer.seconds();
  ++reduce_count_;
}

void LtsNewmarkSolver::apply_level_blocks(level_t k) {
  // scratch_ += K P_k u through the level's block group — the batched
  // production path (per-block masks, homogeneous-block fast gather).
  const auto range = plan_.group_blocks(static_cast<std::size_t>(k - 1));
  const WallTimer timer;
  op_->apply_add_blocks(plan_, range.first, range.last, u_.data(), scratch_.data(), ws_);
  eval_seconds_[static_cast<std::size_t>(k - 1)] += timer.seconds();
  ++eval_count_[static_cast<std::size_t>(k - 1)];
  blocks_applied_ += range.count();
}

void LtsNewmarkSolver::collapsed_update(level_t k, std::span<const gindex_t> rows, bool first,
                                        SubstepCoeffs cs, real_t t_sub, std::vector<real_t>& vt,
                                        const real_t* extra) {
  // Rows whose forces are all frozen at this depth: one leapfrog substep with
  // F = cumulative (+ extra, the level's own fresh evaluation) (+ sources).
  //
  // Sources are sampled at the *cycle start* time, not the substep time: the
  // velocity reconstruction (Eq. 14) folds the inner evolution through a
  // (dt - tau)-shaped kernel, so only an even-in-tau source term — i.e. one
  // frozen over the cycle — preserves the scheme's second-order accuracy
  // (this mirrors the time-reversibility requirement on Eq. 11). A constant
  // source passes through every nested reconstruction exactly, which makes
  // the whole cycle a midpoint rule in the source, exactly like the non-LTS
  // Newmark step at Delta-t.
  (void)t_sub;
  const bool has_sources = !sources_by_level_[static_cast<std::size_t>(k - 1)].empty();
  if (has_sources) {
    const WallTimer src_timer;
    apply_sources_to(k, cycle_t0_, src_scratch_);
    source_seconds_ += src_timer.seconds();
    ++source_count_;
  }
  const WallTimer timer;
  for (gindex_t g : rows) {
    for (int c = 0; c < ncomp_; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
      real_t F = cumulative_[i];
      if (extra) F += extra[i];
      if (has_sources) F += src_scratch_[i];
      if (first)
        vt[i] = -cs.kick * F;
      else
        vt[i] -= cs.kick * F;
      u_[i] += cs.drift * vt[i];
    }
  }
  update_seconds_ += timer.seconds();
  ++update_count_;
  if (has_sources) clear_source_scratch();
}

void LtsNewmarkSolver::run_level(level_t k, real_t t0) {
  const level_t nl = levels_->num_levels;
  const real_t delta = dt_ / static_cast<real_t>(level_rate(k));
  auto& vt = vt_[static_cast<std::size_t>(k - 2)];

  for (int m = 0; m < 2; ++m) {
    const bool first = (m == 0);
    const real_t tm = t0 + static_cast<real_t>(m) * delta;

    if (k == nl) {
      // Deepest level: leapfrog with fresh A P_N u plus frozen forces.
      const auto& elems = structure_->eval_elems[static_cast<std::size_t>(k - 1)];
      const auto& rows = structure_->eval_rows[static_cast<std::size_t>(k - 1)];
      for (gindex_t g : rows)
        for (int c = 0; c < ncomp_; ++c)
          scratch_[static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c)] = 0.0;
      apply_level_blocks(k);
      applies_total_ += static_cast<std::int64_t>(elems.size());
      applies_per_level_[static_cast<std::size_t>(k - 1)] += static_cast<std::int64_t>(elems.size());
      // Scale K u by Minv in place (rows only).
      {
        const WallTimer timer;
        for (gindex_t g : rows) {
          const real_t im = inv_mass_[static_cast<std::size_t>(g)];
          for (int c = 0; c < ncomp_; ++c)
            scratch_[static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c)] *= im;
        }
        reduce_seconds_ += timer.seconds();
        ++reduce_count_;
      }
      collapsed_update(k, structure_->update_rows[static_cast<std::size_t>(k - 1)], first,
                       integ_.coeffs(k, nl, first, delta), tm, vt, scratch_.data());
      continue;
    }

    // Freeze this level's own force contribution, save the field where the
    // child will evolve it, then recurse.
    recompute_force(k);
    const auto& recon = structure_->recon_rows[static_cast<std::size_t>(k - 1)];
    auto& save = usave_[static_cast<std::size_t>(k - 1)];
    {
      const WallTimer timer;
      for (gindex_t g : recon)
        for (int c = 0; c < ncomp_; ++c) {
          const std::size_t i =
              static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
          save[i] = u_[i];
        }
      update_seconds_ += timer.seconds();
      ++update_count_;
    }

    run_level(k + 1, tm);

    // Velocity reconstruction on the rows the child evolved (Algorithm 1's
    // v~_{m+1/2} update), then reset u to the reconstructed value.
    {
      const WallTimer timer;
      for (gindex_t g : recon)
        for (int c = 0; c < ncomp_; ++c) {
          const std::size_t i =
              static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
          if (first)
            vt[i] = (u_[i] - save[i]) / delta;
          else
            vt[i] += 2.0 * (u_[i] - save[i]) / delta;
          u_[i] = save[i] + delta * vt[i];
        }
      update_seconds_ += timer.seconds();
      ++update_count_;
    }

    // Rows frozen during the child's run advance by one collapsed leapfrog
    // step with F = sum_{j<=k} forces (== cumulative on these rows).
    // Non-deepest levels always use the baseline coefficients — coeffs()
    // perturbs only the deepest level, so this is the literal historical
    // update for every integrator.
    collapsed_update(k, structure_->update_rows[static_cast<std::size_t>(k - 1)], first,
                     integ_.coeffs(k, nl, first, delta), tm, vt, nullptr);
  }
}

void LtsNewmarkSolver::step() {
  const level_t nl = levels_->num_levels;
  if (nl == 1) {
    // Plain Newmark. The single-level plan group covers every element and is
    // entirely homogeneous, so the blocks apply the unmasked gather.
    const auto& elems = structure_->eval_elems[0];
    std::fill(scratch_.begin(), scratch_.end(), 0.0);
    apply_level_blocks(1);
    applies_total_ += static_cast<std::int64_t>(elems.size());
    applies_per_level_[0] += static_cast<std::int64_t>(elems.size());
    const bool has_sources = !sources_.empty();
    if (has_sources) {
      const WallTimer src_timer;
      apply_sources_to(1, time_, src_scratch_);
      source_seconds_ += src_timer.seconds();
      ++source_count_;
    }
    const WallTimer timer;
    for (gindex_t g = 0; g < op_->space().num_global_nodes(); ++g) {
      const real_t im = inv_mass_[static_cast<std::size_t>(g)];
      for (int c = 0; c < ncomp_; ++c) {
        const std::size_t i =
            static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
        real_t F = im * scratch_[i];
        if (has_sources) F += src_scratch_[i];
        v_[i] -= dt_ * F;
        u_[i] += dt_ * v_[i];
      }
    }
    update_seconds_ += timer.seconds();
    ++update_count_;
    if (has_sources) clear_source_scratch();
    time_ += dt_;
    return;
  }

  const real_t t0 = time_;
  cycle_t0_ = t0;
  recompute_force(1);

  const auto& recon = structure_->recon_rows[0]; // R(2)
  auto& save = usave_[0];
  for (gindex_t g : recon)
    for (int c = 0; c < ncomp_; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
      save[i] = u_[i];
    }

  run_level(2, t0);

  // Level-1 reconstruction with the *physical* staggered velocity (Eq. 14):
  // v^{n+1/2} = v^{n-1/2} + 2 (u~(dt) - u^n)/dt, u^{n+1} = u^n + dt v^{n+1/2}.
  {
    const WallTimer timer;
    for (gindex_t g : recon)
      for (int c = 0; c < ncomp_; ++c) {
        const std::size_t i =
            static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
        v_[i] += 2.0 * (u_[i] - save[i]) / dt_;
        u_[i] = save[i] + dt_ * v_[i];
      }
    update_seconds_ += timer.seconds();
    ++update_count_;
  }

  // Far-coarse rows: one standard Newmark step with the frozen level-1 force.
  {
    const auto& rows = structure_->update_rows[0]; // S(1)
    const bool has_sources = !sources_by_level_[0].empty();
    if (has_sources) {
      const WallTimer src_timer;
      apply_sources_to(1, t0, src_scratch_);
      source_seconds_ += src_timer.seconds();
      ++source_count_;
    }
    const WallTimer timer;
    for (gindex_t g : rows)
      for (int c = 0; c < ncomp_; ++c) {
        const std::size_t i =
            static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c);
        real_t F = cumulative_[i];
        if (has_sources) F += src_scratch_[i];
        v_[i] -= dt_ * F;
        u_[i] += dt_ * v_[i];
      }
    update_seconds_ += timer.seconds();
    ++update_count_;
    if (has_sources) clear_source_scratch();
  }
  time_ = t0 + dt_;
}

// ===========================================================================
// Reference solver
// ===========================================================================

LtsNewmarkReference::LtsNewmarkReference(const sem::WaveOperator& op,
                                         const LevelAssignment& levels,
                                         const LtsStructure& structure, Integrator integ)
    : op_(&op),
      levels_(&levels),
      structure_(&structure),
      integ_(integ),
      dt_(levels.dt),
      ncomp_(op.ncomp()),
      ws_(op.make_workspace()),
      plan_(make_level_plan(op, structure, /*homogeneous_first=*/false)) {
  const auto& space = op.space();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(ncomp_);
  inv_mass_ = space.inv_mass();
  u_.assign(ndof, 0.0);
  v_.assign(ndof, 0.0);
}

void LtsNewmarkReference::set_state(std::span<const real_t> u0, std::span<const real_t> v0) {
  LTS_CHECK(u0.size() == u_.size() && v0.size() == v_.size());
  std::copy(u0.begin(), u0.end(), u_.begin());
  std::vector<real_t> ku(u_.size(), 0.0);
  op_->apply_add_blocks(plan_, 0, plan_.num_blocks(), u_.data(), ku.data(), ws_);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
    const real_t im = inv_mass_[g];
    for (std::size_t c = 0; c < nc; ++c) v_[g * nc + c] = v0[g * nc + c] + 0.5 * dt_ * im * ku[g * nc + c];
  }
  time_ = 0;
}

std::vector<real_t> LtsNewmarkReference::apply_level(level_t k, const std::vector<real_t>& field) {
  std::vector<real_t> out(field.size(), 0.0);
  const auto range = plan_.group_blocks(static_cast<std::size_t>(k - 1));
  op_->apply_add_blocks(plan_, range.first, range.last, field.data(), out.data(), ws_);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
    const real_t im = inv_mass_[g];
    for (std::size_t c = 0; c < nc; ++c) out[g * nc + c] *= im;
  }
  return out;
}

std::vector<real_t> LtsNewmarkReference::run_level(level_t k, const std::vector<real_t>& u0,
                                                   const std::vector<real_t>& frozen) {
  const level_t nl = levels_->num_levels;
  const real_t delta = dt_ / static_cast<real_t>(level_rate(k));
  std::vector<real_t> ut = u0;
  std::vector<real_t> vt(u0.size(), 0.0);

  for (int m = 0; m < 2; ++m) {
    const bool first = (m == 0);
    if (k == nl) {
      const SubstepCoeffs cs = integ_.coeffs(k, nl, first, delta);
      auto F = apply_level(k, ut);
      for (std::size_t i = 0; i < F.size(); ++i) F[i] += frozen[i];
      for (std::size_t i = 0; i < ut.size(); ++i) {
        if (first)
          vt[i] = -cs.kick * F[i];
        else
          vt[i] -= cs.kick * F[i];
        ut[i] += cs.drift * vt[i];
      }
    } else {
      auto fk = apply_level(k, ut);
      for (std::size_t i = 0; i < fk.size(); ++i) fk[i] += frozen[i];
      const auto child = run_level(k + 1, ut, fk);
      for (std::size_t i = 0; i < ut.size(); ++i) {
        if (first)
          vt[i] = (child[i] - ut[i]) / delta;
        else
          vt[i] += 2.0 * (child[i] - ut[i]) / delta;
        ut[i] += delta * vt[i];
      }
    }
  }
  return ut;
}

void LtsNewmarkReference::step() {
  const level_t nl = levels_->num_levels;
  if (nl == 1) {
    auto F = apply_level(1, u_);
    for (std::size_t i = 0; i < u_.size(); ++i) {
      v_[i] -= dt_ * F[i];
      u_[i] += dt_ * v_[i];
    }
    time_ += dt_;
    return;
  }
  const auto f1 = apply_level(1, u_);
  const auto fine = run_level(2, u_, f1);
  for (std::size_t i = 0; i < u_.size(); ++i) {
    v_[i] += 2.0 * (fine[i] - u_[i]) / dt_;
    u_[i] += dt_ * v_[i];
  }
  time_ += dt_;
}

} // namespace ltswave::core
