#pragma once

/// \file wave_operator.hpp
/// Matrix-free application of the SEM stiffness matrix K (paper Eq. 3):
/// acoustic (scalar) and isotropic elastic (3-component) variants.
///
/// Three entry points matter for LTS:
///  * apply_add:        out += K u over a subset of elements (all columns);
///  * apply_add_level:  out += K P_k u — the *column-restricted* apply that
///    reads only degrees of freedom belonging to LTS level k (paper Sec. II-C:
///    "the action of A P u~ only contributes to nodes in P" in DG; in the SEM
///    the columns are restricted but the rows still spread into neighbours).
///    The LevelMask overload is the production path: homogeneous elements
///    skip masking entirely and mixed elements use precomputed multiplicative
///    masks (no per-node branch). The raw node_level overload is the generic
///    fallback kept for ad-hoc callers and cross-validation.
///
///  * apply_add_blocks:  the batched production path — out += K (P_k) u over
///    the blocks of a precomputed sem::BatchPlan (one kernel call per block
///    of W elements, lane-interleaved slabs, per-block baked masks with a
///    homogeneous-block fast path). All three solvers default to this; the
///    per-element entry points above remain as the cross-check reference.
///
/// The per-element arithmetic is dispatched into the order-specialized kernel
/// engine (sem/kernels.hpp); the operators own the gather/scatter against the
/// global vectors and the resolved kernel function pointers. Every operator
/// also exposes a lazily built BatchPlan over all its elements in natural
/// order (full_plan) — the block form of the unrestricted apply.
///
/// Kernels are written against a caller-owned scratch workspace so that the
/// same operator object can be used concurrently from many threads (one
/// workspace per thread), which the rank-parallel executor relies on.

#include <memory>
#include <span>
#include <vector>

#include "sem/batch_plan.hpp"
#include "sem/kernels.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::sem {

/// Scratch buffers for one concurrent kernel evaluation, sized once per
/// (order, block width) — large enough for a full BatchPlan block slab per
/// buffer, so the same workspace serves every level and every apply without
/// re-derivation. The backing store is over-allocated so that buffer(0)
/// starts on a 64-byte boundary; the per-buffer stride is a whole number of
/// cache lines (block slabs are W*npts doubles with W a multiple of 8), so
/// every block slab stays 64-byte aligned. Past the kernel buffers sits one
/// element's metrics (SemSpace::element_metrics in the single-element kernel
/// layout), which the per-element applies evaluate per element.
class KernelWorkspace {
public:
  explicit KernelWorkspace(const SemSpace& space, int ncomp);

  [[nodiscard]] real_t* buffer(int which) noexcept {
    return aligned_base() + static_cast<std::size_t>(which) * stride_;
  }

  /// One element's metrics: 6 * npts values (acoustic gmat) or 18 * npts
  /// (elastic jinv then wjinv).
  [[nodiscard]] real_t* metrics() noexcept { return buffer(num_buffers_); }

private:
  [[nodiscard]] real_t* aligned_base() noexcept {
    auto p = reinterpret_cast<std::uintptr_t>(buf_.data());
    return reinterpret_cast<real_t*>((p + 63u) & ~std::uintptr_t{63u});
  }

  std::size_t stride_;
  int num_buffers_;
  std::vector<real_t> buf_;
};

/// Kernel selection policy: Auto resolves the compile-time specialization for
/// the space's order (falling back to the generic kernel for orders beyond
/// kernels::kMaxSpecializedNodes1d); Generic forces the runtime-n1 kernel —
/// used by tests to cross-validate the specializations.
enum class KernelMode { Auto, Generic };

/// Abstract stiffness operator; `ncomp` field components per global node,
/// fields stored interleaved (value of component c at node g is u[g*ncomp+c]).
class WaveOperator {
public:
  virtual ~WaveOperator() = default;

  [[nodiscard]] virtual int ncomp() const noexcept = 0;
  [[nodiscard]] const SemSpace& space() const noexcept { return *space_; }

  /// out += K u restricted to the given elements.
  virtual void apply_add(std::span<const index_t> elems, const real_t* u, real_t* out,
                         KernelWorkspace& ws) const = 0;

  /// out += K P_level u: gathers only columns g with node_level[g] == level.
  /// node_level has one entry per *global* node. Generic (per-node branch)
  /// path; prefer the LevelMask overload on hot paths.
  virtual void apply_add_level(std::span<const index_t> elems, const level_t* node_level,
                               level_t level, const real_t* u, real_t* out,
                               KernelWorkspace& ws) const = 0;

  /// out += K P_level u with a precomputed LevelMask: branch-free masking
  /// with a homogeneous-element fast path (the single-element LTS gather,
  /// kept as the batched path's cross-check).
  virtual void apply_add_level(std::span<const index_t> elems, const LevelMask& mask,
                               level_t level, const real_t* u, real_t* out,
                               KernelWorkspace& ws) const = 0;

  /// The batched production apply: out += K (P_k) u over plan blocks
  /// [b0, b1). Column restriction is baked into the plan per block (level-k
  /// groups carry masks only on mixed blocks; homogeneous blocks take the
  /// plain gather); padded tail lanes are computed but never scattered. The
  /// plan must be built over this operator's space with matching ncomp.
  virtual void apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1, const real_t* u,
                                real_t* out, KernelWorkspace& ws) const = 0;

  /// All-elements unmasked BatchPlan in natural element order — the block
  /// form of `apply_add` over every element. Built lazily on first call (the
  /// LTS solvers hold their own level-grouped plans and never need this one,
  /// so building it eagerly would duplicate all resident metric slabs for
  /// nothing). Not thread-safe on the *first* call: callers are the solvers'
  /// set_state / NewmarkSolver::step and bench setup, all of which run on
  /// the driving thread while any worker pool is idle.
  [[nodiscard]] const BatchPlan& full_plan() const;

  [[nodiscard]] KernelWorkspace make_workspace() const {
    return KernelWorkspace(*space_, ncomp());
  }

protected:
  explicit WaveOperator(const SemSpace& space) : space_(&space) {}

private:
  const SemSpace* space_;
  /// Lazily materialized by full_plan(). Shared so operator copies stay
  /// cheap and keep working.
  mutable std::shared_ptr<const BatchPlan> full_plan_;
};

/// Scalar acoustic wave: rho u_tt = div(kappa grad u), kappa = rho vp^2.
class AcousticOperator final : public WaveOperator {
public:
  explicit AcousticOperator(const SemSpace& space, KernelMode mode = KernelMode::Auto);

  [[nodiscard]] int ncomp() const noexcept override { return 1; }
  void apply_add(std::span<const index_t> elems, const real_t* u, real_t* out,
                 KernelWorkspace& ws) const override;
  void apply_add_level(std::span<const index_t> elems, const level_t* node_level, level_t level,
                       const real_t* u, real_t* out, KernelWorkspace& ws) const override;
  void apply_add_level(std::span<const index_t> elems, const LevelMask& mask, level_t level,
                       const real_t* u, real_t* out, KernelWorkspace& ws) const override;
  void apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1, const real_t* u,
                        real_t* out, KernelWorkspace& ws) const override;

private:
  template <class Gather>
  void apply_impl(std::span<const index_t> elems, real_t* out, KernelWorkspace& ws,
                  Gather&& gather) const;

  std::vector<real_t> kappa_; // per element
  kernels::AcousticElemFn kernel_;
  kernels::AcousticBlockFn block_kernel_;
  kernels::AcousticBlockAffineFn affine_kernel_;
};

/// Isotropic elastic wave (paper Eq. 1-2 with isotropic C):
/// rho u_tt = div sigma, sigma = lambda tr(eps) I + 2 mu eps.
class ElasticOperator final : public WaveOperator {
public:
  explicit ElasticOperator(const SemSpace& space, KernelMode mode = KernelMode::Auto);

  [[nodiscard]] int ncomp() const noexcept override { return 3; }
  void apply_add(std::span<const index_t> elems, const real_t* u, real_t* out,
                 KernelWorkspace& ws) const override;
  void apply_add_level(std::span<const index_t> elems, const level_t* node_level, level_t level,
                       const real_t* u, real_t* out, KernelWorkspace& ws) const override;
  void apply_add_level(std::span<const index_t> elems, const LevelMask& mask, level_t level,
                       const real_t* u, real_t* out, KernelWorkspace& ws) const override;
  void apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1, const real_t* u,
                        real_t* out, KernelWorkspace& ws) const override;

private:
  template <class Gather>
  void apply_impl(std::span<const index_t> elems, real_t* out, KernelWorkspace& ws,
                  Gather&& gather) const;

  std::vector<real_t> lambda_; // per element
  std::vector<real_t> mu_;     // per element
  kernels::ElasticElemFn kernel_;
  kernels::ElasticBlockFn block_kernel_;
  kernels::ElasticBlockAffineFn affine_kernel_;
};

} // namespace ltswave::sem
