#pragma once

/// \file kernels.hpp
/// Order-specialized SEM kernel engine. The wave operators
/// (sem/wave_operator.*) dispatch the per-element stiffness apply — the unit
/// of work in the paper's LTS cost model — into this layer, which provides:
///
///  * compile-time order specialization: the tensor gradient/divergence
///    contractions and the full acoustic/elastic element applies are templated
///    on the 1D node count N1 and explicitly instantiated for N1 = 2..9
///    (polynomial orders 1-8). All loop bounds become compile-time constants,
///    so the inner `m`-contractions unroll and vectorize. A runtime-`n1`
///    fallback (the N1 == 0 instantiation of the *same* code) serves exotic
///    orders and acts as the reference for cross-validation tests;
///
///  * fused metric tensors: the acoustic element apply consumes the symmetric
///    3x3 matrix G = wdet * Jinv * Jinv^T (6 doubles per quadrature point),
///    collapsing the former two 3x3 applies per point into a single
///    symmetric apply. The elastic apply keeps Jinv for the displacement
///    gradient but takes the flux through the product wdet * Jinv. All three
///    come from SemSpace::element_metrics: the single-element paths evaluate
///    them per element into the workspace, the block paths read the copy a
///    BatchPlan lays out;
///
///  * branch-free level masking: LevelMask precomputes, per element, either a
///    "homogeneous level" (all nodes share one LTS level — the vast majority
///    of interior elements, which then skip masking entirely) or a per-level
///    0/1 multiplicative mask, so the column-restricted apply never branches
///    on node_level[g] inside the gather loop.
///
///  * element-block batched applies: the production path since the BatchPlan
///    refactor. A block kernel advances a whole block of W elements
///    (W = block_width_for(n1), see batch_plan.hpp) per call on
///    lane-interleaved slabs — entry (q, l) at [q*W + l] — so every inner
///    loop carries a unit-stride lane dimension of compile-time width and the
///    tensor contractions vectorize across *elements* instead of across the
///    short n1 axis. The single-element kernels remain as the cross-check
///    reference path.
///
/// Kernel functions operate on element- or block-local, 64-byte-aligned
/// workspace buffers (KernelWorkspace in wave_operator.hpp); gather/scatter
/// against the global vectors stays in the operators.

#include <span>
#include <vector>

#include "sem/sem_space.hpp"

namespace ltswave::sem {

namespace kernels {

/// Full acoustic element stiffness apply on local buffers:
///   out = B^T G_kappa B ul
/// where B is the reference gradient and G_kappa = kappa * G the fused metric.
///  n1    : nodes per direction (ignored by specialized instantiations);
///  D     : collocation derivative matrix, row-major n1 x n1;
///  Dt    : its transpose;
///  gmat  : fused metric planes for the element (6 planes of npts, the
///          SemSpace::element_metrics layout);
///  ul    : gathered (possibly column-masked) field, npts;
///  out   : element contribution, npts (overwritten);
///  s1-s3 : scratch, npts each.
using AcousticElemFn = void (*)(int n1, const real_t* D, const real_t* Dt, const real_t* gmat,
                                real_t kappa, const real_t* ul, real_t* out, real_t* s1,
                                real_t* s2, real_t* s3);

/// Full isotropic elastic element stiffness apply on local buffers.
///  jinv  : inverse Jacobians, 9 per quadrature point (row-major 3x3, the
///          SemSpace::element_metrics layout);
///  wjinv : wdet * jinv, 9 per quadrature point;
///  ul    : the three gathered displacement components, npts each;
///  out   : the three element contributions, npts each (overwritten);
///  gr    : nine scratch planes (reference gradients / fluxes), npts each.
using ElasticElemFn = void (*)(int n1, const real_t* D, const real_t* Dt, const real_t* jinv,
                               const real_t* wjinv, real_t lam, real_t mu,
                               const real_t* const* ul, real_t* const* out, real_t* const* gr);

/// Lanes per block for n1 nodes per direction: wide blocks for small elements
/// (whose slabs stay tiny), narrower for high orders so the workspace slabs
/// stay cache-resident. Always a multiple of 8, so every lane-interleaved
/// slab of width * npts doubles is a whole number of cache lines.
[[nodiscard]] constexpr int block_width_for(int n1) noexcept {
  const int npts = n1 * n1 * n1;
  if (npts <= 27) return 32;
  if (npts <= 216) return 16;
  return 8;
}

/// Upper bound on block_width_for over all orders (for stack lane arrays).
inline constexpr int kMaxBlockWidth = 32;

/// Full acoustic *block* stiffness apply: one call advances a whole
/// BatchPlan block of `bw` elements on lane-interleaved slabs (entry (q, l)
/// of a slab at [q*bw + l]).
///  n1, bw : nodes per direction and lane count (both ignored by specialized
///           instantiations, which bake block_width_for(N1) in);
///  D      : collocation derivative matrix, row-major n1 x n1 (the lane axis
///           is the vector axis, so no transposed copy is needed);
///  gmat   : the block's fused metric: 6 lane-interleaved planes of bw*npts
///           (BatchPlan::gmat);
///  kappa  : per-lane moduli, bw entries (padded lanes replicated);
///  ul     : gathered (possibly mask-multiplied) field slab, bw*npts;
///  out    : block contribution slab, bw*npts (overwritten; padded lanes are
///           garbage and must not be scattered);
///  s1-s3  : scratch slabs, bw*npts each.
using AcousticBlockFn = void (*)(int n1, int bw, const real_t* D, const real_t* gmat,
                                 const real_t* kappa, const real_t* ul, real_t* out, real_t* s1,
                                 real_t* s2, real_t* s3);

/// Full isotropic elastic block stiffness apply on lane-interleaved slabs.
///  jinv  : 9 lane-interleaved planes of bw*npts, row-major (r,d) plane order
///          (BatchPlan::jinv);
///  wjinv : wdet * jinv, same layout (BatchPlan::wjinv);
///  lam/mu: per-lane moduli, bw entries each;
///  ul    : the three gathered displacement slabs, bw*npts each;
///  out   : the three block contribution slabs (overwritten);
///  gr    : nine scratch slabs (reference gradients / fluxes), bw*npts each.
using ElasticBlockFn = void (*)(int n1, int bw, const real_t* D, const real_t* jinv,
                                const real_t* wjinv, const real_t* lam, const real_t* mu,
                                const real_t* const* ul, real_t* const* out, real_t* const* gr);

/// Acoustic block apply for *affine* blocks: the fused metric factors as
/// G(q) = w3[q] * C per lane, so the kernel streams no metric planes at all —
/// `cmat` is 6 lane-constant rows (6*bw, BatchPlan::gmat_affine) and `w3` the
/// shared 3D quadrature weights (npts).
using AcousticBlockAffineFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                       const real_t* cmat, const real_t* kappa, const real_t* ul,
                                       real_t* out, real_t* s1, real_t* s2, real_t* s3);

/// Elastic block apply for affine blocks: `cji` (9*bw) holds the constant
/// Jinv lanes and `cwj` (9*bw) the separable wdet*Jinv constants
/// (wjinv(q) = w3[q] * cwj).
using ElasticBlockAffineFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                      const real_t* cji, const real_t* cwj, const real_t* lam,
                                      const real_t* mu, const real_t* const* ul,
                                      real_t* const* out, real_t* const* gr);

/// Largest 1D node count with a compile-time specialization (order 8).
inline constexpr int kMaxSpecializedNodes1d = 9;

/// Returns the element kernel for `n1` nodes per direction: the compile-time
/// specialization for 2 <= n1 <= kMaxSpecializedNodes1d, otherwise the
/// runtime-n1 generic kernel.
[[nodiscard]] AcousticElemFn acoustic_element_kernel(int n1);
[[nodiscard]] ElasticElemFn elastic_element_kernel(int n1);

/// The runtime-n1 fallback kernels (used directly by cross-validation tests).
[[nodiscard]] AcousticElemFn acoustic_element_kernel_generic();
[[nodiscard]] ElasticElemFn elastic_element_kernel_generic();

/// Block-kernel dispatch, mirroring the single-element resolution rules. The
/// specialized instantiations require bw == block_width_for(n1) (the layout
/// BatchPlan builds); the generic fallback takes any runtime (n1, bw).
[[nodiscard]] AcousticBlockFn acoustic_block_kernel(int n1);
[[nodiscard]] ElasticBlockFn elastic_block_kernel(int n1);
[[nodiscard]] AcousticBlockFn acoustic_block_kernel_generic();
[[nodiscard]] ElasticBlockFn elastic_block_kernel_generic();
[[nodiscard]] AcousticBlockAffineFn acoustic_block_kernel_affine(int n1);
[[nodiscard]] ElasticBlockAffineFn elastic_block_kernel_affine(int n1);
[[nodiscard]] AcousticBlockAffineFn acoustic_block_kernel_affine_generic();
[[nodiscard]] ElasticBlockAffineFn elastic_block_kernel_affine_generic();

} // namespace kernels

/// Precomputed branch-free column masks for the level-restricted apply
/// (paper Sec. II-C: out += K P_k u gathers only level-k columns).
///
/// Elements whose nodes all share one level — the interior bulk of every
/// level region — are flagged "homogeneous" and take the unmasked gather.
/// Mixed elements (level-boundary shells) get one 0/1 double mask per level
/// present among their nodes, turning the per-node level test into a
/// multiplication the vectorizer folds into the gather.
class LevelMask {
public:
  LevelMask() = default;
  LevelMask(const SemSpace& space, std::span<const level_t> node_level, level_t num_levels);

  [[nodiscard]] bool empty() const noexcept { return homog_.empty(); }

  /// Level shared by every node of element e, or 0 if the element is mixed.
  [[nodiscard]] level_t homogeneous(index_t e) const noexcept {
    return homog_[static_cast<std::size_t>(e)];
  }

  /// For a mixed element: 0/1 mask (nodes_per_elem doubles) selecting the
  /// level-k columns, or nullptr when e carries no level-k node (the
  /// element's contribution is exactly zero). Only valid when
  /// homogeneous(e) == 0.
  [[nodiscard]] const real_t* mask(index_t e, level_t k) const noexcept {
    const index_t mid = mixed_id_[static_cast<std::size_t>(e)];
    const std::ptrdiff_t off =
        mask_off_[static_cast<std::size_t>(mid) * static_cast<std::size_t>(num_levels_) +
                  static_cast<std::size_t>(k - 1)];
    return off < 0 ? nullptr : mask_data_.data() + off;
  }

private:
  level_t num_levels_ = 0;
  std::vector<level_t> homog_;         ///< per element; 0 = mixed
  std::vector<index_t> mixed_id_;      ///< per element: dense id among mixed elements, or -1
  std::vector<std::ptrdiff_t> mask_off_; ///< [mid * num_levels + k-1] -> offset or -1
  std::vector<real_t> mask_data_;      ///< npts-sized 0/1 masks, back to back
};

} // namespace ltswave::sem
