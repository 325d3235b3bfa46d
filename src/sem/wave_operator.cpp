#include "sem/wave_operator.hpp"

#include "common/simd.hpp"

namespace ltswave::sem {

KernelWorkspace::KernelWorkspace(const SemSpace& space, int ncomp) {
  const auto npts = static_cast<std::size_t>(space.nodes_per_elem());
  const auto width = static_cast<std::size_t>(kernels::block_width_for(space.ref().nodes_1d()));
  // One buffer holds a full lane-interleaved block slab (width * npts, a
  // whole number of cache lines since width is a multiple of 8); the
  // single-element kernels use a prefix of the same buffers. Sized once here
  // per (order, block width) and reused across every level and apply.
  stride_ = width * ((npts + 7u) & ~std::size_t{7u});
  // Buffers: acoustic needs gather + output + 3 scratch slabs (5); elastic
  // needs 3 gathers + 9 gradient/flux slabs + 3 outputs (15). Then the
  // element metrics (6 or 18 planes of npts), and 8 doubles so the base can
  // be rounded up to a 64-byte boundary.
  num_buffers_ = ncomp == 1 ? 5 : 15;
  const std::size_t metric_words = npts * (ncomp == 1 ? 6u : 18u);
  buf_.assign(stride_ * static_cast<std::size_t>(num_buffers_) + metric_words + 8u, 0.0);
}

namespace {

/// Returns the kernel-selection node count: the real n1 in Auto mode, or a
/// value outside the specialized range to force the runtime-n1 fallback.
int dispatch_n1(const SemSpace& space, KernelMode mode) {
  return mode == KernelMode::Auto ? space.ref().nodes_1d() : 0;
}

} // namespace

const BatchPlan& WaveOperator::full_plan() const {
  if (!full_plan_) {
    BatchPlan::Group all;
    all.elems.resize(static_cast<std::size_t>(space().num_elems()));
    for (std::size_t e = 0; e < all.elems.size(); ++e) all.elems[e] = static_cast<index_t>(e);
    std::vector<BatchPlan::Group> groups;
    groups.push_back(std::move(all));
    full_plan_ = std::make_shared<const BatchPlan>(space(), ncomp(), std::move(groups));
  }
  return *full_plan_;
}

// ---------------------------------------------------------------------------
// Acoustic
// ---------------------------------------------------------------------------

AcousticOperator::AcousticOperator(const SemSpace& space, KernelMode mode)
    : WaveOperator(space),
      kernel_(kernels::acoustic_element_kernel(dispatch_n1(space, mode))),
      block_kernel_(kernels::acoustic_block_kernel(dispatch_n1(space, mode))),
      affine_kernel_(kernels::acoustic_block_kernel_affine(dispatch_n1(space, mode))) {
  const auto& m = space.mesh();
  kappa_.resize(static_cast<std::size_t>(m.num_elems()));
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const auto& mat = m.material(e);
    kappa_[static_cast<std::size_t>(e)] = mat.rho * mat.vp * mat.vp;
  }
}

template <class Gather>
void AcousticOperator::apply_impl(std::span<const index_t> elems, real_t* out,
                                  KernelWorkspace& ws, Gather&& gather) const {
  const SemSpace& sp = space();
  const int n1 = sp.ref().nodes_1d();
  const int npts = sp.nodes_per_elem();
  const real_t* D = sp.ref().deriv_matrix().data();
  const real_t* Dt = sp.ref().deriv_matrix_t().data();

  real_t* ul = ws.buffer(0);
  real_t* ol = ws.buffer(1);
  real_t* s1 = ws.buffer(2);
  real_t* s2 = ws.buffer(3);
  real_t* s3 = ws.buffer(4);

  real_t* gmat = ws.metrics();

  for (index_t e : elems) {
    const gindex_t* l2g = sp.elem_nodes(e);
    if (!gather(e, l2g, ul)) continue;
    sp.element_metrics(e, nullptr, gmat, nullptr);
    kernel_(n1, D, Dt, gmat, kappa_[static_cast<std::size_t>(e)], ul, ol, s1, s2, s3);
    for (int q = 0; q < npts; ++q) out[l2g[q]] += ol[q];
  }
}

void AcousticOperator::apply_add(std::span<const index_t> elems, const real_t* u, real_t* out,
                                 KernelWorkspace& ws) const {
  const int npts = space().nodes_per_elem();
  apply_impl(elems, out, ws, [&](index_t, const gindex_t* l2g, real_t* ul) {
    for (int q = 0; q < npts; ++q) ul[q] = u[l2g[q]];
    return true;
  });
}

void AcousticOperator::apply_add_level(std::span<const index_t> elems, const level_t* node_level,
                                       level_t level, const real_t* u, real_t* out,
                                       KernelWorkspace& ws) const {
  const int npts = space().nodes_per_elem();
  apply_impl(elems, out, ws, [&](index_t, const gindex_t* l2g, real_t* ul) {
    for (int q = 0; q < npts; ++q) {
      const gindex_t g = l2g[q];
      ul[q] = (node_level[g] == level) ? u[g] : 0.0;
    }
    return true;
  });
}

void AcousticOperator::apply_add_level(std::span<const index_t> elems, const LevelMask& mask,
                                       level_t level, const real_t* u, real_t* out,
                                       KernelWorkspace& ws) const {
  const int npts = space().nodes_per_elem();
  apply_impl(elems, out, ws, [&](index_t e, const gindex_t* l2g, real_t* ul) {
    const level_t h = mask.homogeneous(e);
    if (h != 0) {
      // Homogeneous element: all columns share one level — either the whole
      // element participates (plain gather) or none of it does.
      if (h != level) return false;
      for (int q = 0; q < npts; ++q) ul[q] = u[l2g[q]];
      return true;
    }
    const real_t* mk = mask.mask(e, level);
    if (mk == nullptr) return false;
    for (int q = 0; q < npts; ++q) ul[q] = mk[q] * u[l2g[q]];
    return true;
  });
}

void AcousticOperator::apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1,
                                        const real_t* u, real_t* out, KernelWorkspace& ws) const {
  const SemSpace& sp = space();
  const int n1 = sp.ref().nodes_1d();
  const int npts = sp.nodes_per_elem();
  const int W = plan.width();
  const int pts = npts * W;
  const real_t* D = sp.ref().deriv_matrix().data();

  real_t* ul = ws.buffer(0);
  real_t* ol = ws.buffer(1);
  real_t* s1 = ws.buffer(2);
  real_t* s2 = ws.buffer(3);
  real_t* s3 = ws.buffer(4);
  alignas(64) real_t kap[kernels::kMaxBlockWidth];

  for (index_t b = b0; b < b1; ++b) {
    const gindex_t* gth = plan.gather(b);
    if (const real_t* mk = plan.mask(b)) {
      for (int t = 0; t < pts; ++t) ul[t] = mk[t] * u[gth[t]];
    } else {
      for (int t = 0; t < pts; ++t) ul[t] = u[gth[t]];
    }
    const index_t* eids = plan.block_elems(b);
    for (int l = 0; l < W; ++l) kap[l] = kappa_[static_cast<std::size_t>(eids[l])];

    if (plan.block_affine(b))
      affine_kernel_(n1, W, D, plan.weights3(), plan.gmat_affine(b), kap, ul, ol, s1, s2, s3);
    else
      block_kernel_(n1, W, D, plan.gmat(b), kap, ul, ol, s1, s2, s3);

    // Scatter real lanes only (padded tail lanes replicate a real element and
    // would double-count). Conflict-free blocks guarantee pairwise-distinct
    // indices within each q-row, so the scatter-add runs unchecked at vector
    // width; otherwise lanes can share global rows and the loop stays scalar.
    const int ne = plan.block_fill(b);
    if (plan.block_conflict_free(b)) {
      using V = simd::RealVec;
      constexpr int VW = simd::kWidth;
      for (int q = 0; q < npts; ++q) {
        const int base = q * W;
        int l = 0;
        for (; l + VW <= ne; l += VW) V::load(ol + base + l).scatter_add(out, gth + base + l);
        for (; l < ne; ++l) out[gth[base + l]] += ol[base + l];
      }
    } else {
      for (int q = 0; q < npts; ++q) {
        const int base = q * W;
        for (int l = 0; l < ne; ++l) out[gth[base + l]] += ol[base + l];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Elastic
// ---------------------------------------------------------------------------

ElasticOperator::ElasticOperator(const SemSpace& space, KernelMode mode)
    : WaveOperator(space),
      kernel_(kernels::elastic_element_kernel(dispatch_n1(space, mode))),
      block_kernel_(kernels::elastic_block_kernel(dispatch_n1(space, mode))),
      affine_kernel_(kernels::elastic_block_kernel_affine(dispatch_n1(space, mode))) {
  const auto& m = space.mesh();
  lambda_.resize(static_cast<std::size_t>(m.num_elems()));
  mu_.resize(static_cast<std::size_t>(m.num_elems()));
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const auto& mat = m.material(e);
    mu_[static_cast<std::size_t>(e)] = mat.rho * mat.vs * mat.vs;
    lambda_[static_cast<std::size_t>(e)] = mat.rho * (mat.vp * mat.vp - 2 * mat.vs * mat.vs);
    LTS_CHECK_MSG(lambda_[static_cast<std::size_t>(e)] + 2 * mu_[static_cast<std::size_t>(e)] > 0,
                  "non-physical elastic moduli in element " << e);
  }
}

template <class Gather>
void ElasticOperator::apply_impl(std::span<const index_t> elems, real_t* out,
                                 KernelWorkspace& ws, Gather&& gather) const {
  const SemSpace& sp = space();
  const int n1 = sp.ref().nodes_1d();
  const int npts = sp.nodes_per_elem();
  const real_t* D = sp.ref().deriv_matrix().data();
  const real_t* Dt = sp.ref().deriv_matrix_t().data();

  // Buffer layout: gather (buffers 0..2), ref-gradients / fluxes (3..11),
  // output (12..14), then the element's metrics.
  real_t* ul[3] = {ws.buffer(0), ws.buffer(1), ws.buffer(2)};
  real_t* gr[9];
  for (int b = 0; b < 9; ++b) gr[b] = ws.buffer(3 + b);
  real_t* ol[3] = {ws.buffer(12), ws.buffer(13), ws.buffer(14)};

  real_t* jinv = ws.metrics();
  real_t* wjinv = jinv + static_cast<std::size_t>(npts) * 9;

  for (index_t e : elems) {
    const gindex_t* l2g = sp.elem_nodes(e);
    if (!gather(e, l2g, ul)) continue;
    sp.element_metrics(e, jinv, nullptr, wjinv);
    kernel_(n1, D, Dt, jinv, wjinv, lambda_[static_cast<std::size_t>(e)],
            mu_[static_cast<std::size_t>(e)], ul, ol, gr);
    for (int q = 0; q < npts; ++q) {
      const std::size_t b = static_cast<std::size_t>(l2g[q]) * 3;
      out[b] += ol[0][q];
      out[b + 1] += ol[1][q];
      out[b + 2] += ol[2][q];
    }
  }
}

void ElasticOperator::apply_add(std::span<const index_t> elems, const real_t* u, real_t* out,
                                KernelWorkspace& ws) const {
  const int npts = space().nodes_per_elem();
  apply_impl(elems, out, ws, [&](index_t, const gindex_t* l2g, real_t* const* ul) {
    for (int q = 0; q < npts; ++q) {
      const std::size_t b = static_cast<std::size_t>(l2g[q]) * 3;
      ul[0][q] = u[b];
      ul[1][q] = u[b + 1];
      ul[2][q] = u[b + 2];
    }
    return true;
  });
}

void ElasticOperator::apply_add_level(std::span<const index_t> elems, const level_t* node_level,
                                      level_t level, const real_t* u, real_t* out,
                                      KernelWorkspace& ws) const {
  const int npts = space().nodes_per_elem();
  apply_impl(elems, out, ws, [&](index_t, const gindex_t* l2g, real_t* const* ul) {
    for (int q = 0; q < npts; ++q) {
      const gindex_t g = l2g[q];
      const bool take = node_level[g] == level;
      const std::size_t b = static_cast<std::size_t>(g) * 3;
      ul[0][q] = take ? u[b] : 0.0;
      ul[1][q] = take ? u[b + 1] : 0.0;
      ul[2][q] = take ? u[b + 2] : 0.0;
    }
    return true;
  });
}

void ElasticOperator::apply_add_level(std::span<const index_t> elems, const LevelMask& mask,
                                      level_t level, const real_t* u, real_t* out,
                                      KernelWorkspace& ws) const {
  const int npts = space().nodes_per_elem();
  apply_impl(elems, out, ws, [&](index_t e, const gindex_t* l2g, real_t* const* ul) {
    const level_t h = mask.homogeneous(e);
    if (h != 0) {
      if (h != level) return false;
      for (int q = 0; q < npts; ++q) {
        const std::size_t b = static_cast<std::size_t>(l2g[q]) * 3;
        ul[0][q] = u[b];
        ul[1][q] = u[b + 1];
        ul[2][q] = u[b + 2];
      }
      return true;
    }
    const real_t* mk = mask.mask(e, level);
    if (mk == nullptr) return false;
    for (int q = 0; q < npts; ++q) {
      const std::size_t b = static_cast<std::size_t>(l2g[q]) * 3;
      const real_t m = mk[q];
      ul[0][q] = m * u[b];
      ul[1][q] = m * u[b + 1];
      ul[2][q] = m * u[b + 2];
    }
    return true;
  });
}

void ElasticOperator::apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1,
                                       const real_t* u, real_t* out, KernelWorkspace& ws) const {
  const SemSpace& sp = space();
  const int n1 = sp.ref().nodes_1d();
  const int npts = sp.nodes_per_elem();
  const int W = plan.width();
  const int pts = npts * W;
  const real_t* D = sp.ref().deriv_matrix().data();

  // Buffer layout as in the single-element path: gathers 0..2, gradients /
  // fluxes 3..11, outputs 12..14 — each now a full block slab.
  real_t* ul[3] = {ws.buffer(0), ws.buffer(1), ws.buffer(2)};
  real_t* gr[9];
  for (int b = 0; b < 9; ++b) gr[b] = ws.buffer(3 + b);
  real_t* ol[3] = {ws.buffer(12), ws.buffer(13), ws.buffer(14)};
  alignas(64) real_t lam[kernels::kMaxBlockWidth];
  alignas(64) real_t mu[kernels::kMaxBlockWidth];

  for (index_t b = b0; b < b1; ++b) {
    const gindex_t* gth = plan.gather(b);
    if (const real_t* mk = plan.mask(b)) {
      for (int t = 0; t < pts; ++t) {
        const std::size_t base = static_cast<std::size_t>(gth[t]) * 3;
        const real_t m = mk[t];
        ul[0][t] = m * u[base];
        ul[1][t] = m * u[base + 1];
        ul[2][t] = m * u[base + 2];
      }
    } else {
      for (int t = 0; t < pts; ++t) {
        const std::size_t base = static_cast<std::size_t>(gth[t]) * 3;
        ul[0][t] = u[base];
        ul[1][t] = u[base + 1];
        ul[2][t] = u[base + 2];
      }
    }
    const index_t* eids = plan.block_elems(b);
    for (int l = 0; l < W; ++l) {
      lam[l] = lambda_[static_cast<std::size_t>(eids[l])];
      mu[l] = mu_[static_cast<std::size_t>(eids[l])];
    }

    if (plan.block_affine(b))
      affine_kernel_(n1, W, D, plan.weights3(), plan.jinv_affine(b), plan.wjinv_affine(b), lam,
                     mu, ul, ol, gr);
    else
      block_kernel_(n1, W, D, plan.jinv(b), plan.wjinv(b), lam, mu, ul, ol, gr);

    // As in the acoustic scatter: conflict-free blocks take the unchecked
    // SIMD scatter-add (per-component, with the row index rescaled to the
    // 3-interleaved layout), everything else stays scalar.
    const int ne = plan.block_fill(b);
    if (plan.block_conflict_free(b)) {
      using V = simd::RealVec;
      constexpr int VW = simd::kWidth;
      alignas(64) gindex_t idx3[simd::kWidth];
      for (int q = 0; q < npts; ++q) {
        const int base = q * W;
        int l = 0;
        for (; l + VW <= ne; l += VW) {
          for (int i = 0; i < VW; ++i) idx3[i] = gth[base + l + i] * 3;
          V::load(ol[0] + base + l).scatter_add(out, idx3);
          V::load(ol[1] + base + l).scatter_add(out + 1, idx3);
          V::load(ol[2] + base + l).scatter_add(out + 2, idx3);
        }
        for (; l < ne; ++l) {
          const std::size_t o = static_cast<std::size_t>(gth[base + l]) * 3;
          out[o] += ol[0][base + l];
          out[o + 1] += ol[1][base + l];
          out[o + 2] += ol[2][base + l];
        }
      }
    } else {
      for (int q = 0; q < npts; ++q) {
        const int base = q * W;
        for (int l = 0; l < ne; ++l) {
          const std::size_t o = static_cast<std::size_t>(gth[base + l]) * 3;
          out[o] += ol[0][base + l];
          out[o + 1] += ol[1][base + l];
          out[o + 2] += ol[2][base + l];
        }
      }
    }
  }
}

} // namespace ltswave::sem
