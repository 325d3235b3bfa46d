#include "sem/batch_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace ltswave::sem {

namespace {

/// Ulp-scale tolerance of the affine-metric detection: a metric plane is
/// separable when |value - w_q * C| stays within this relative band of the
/// plane's magnitude. Elements that miss it (warped geometry, or merely
/// unlucky rounding) take the full-plane path, so the test is purely a
/// bandwidth optimization and never a correctness gate.
constexpr real_t kAffineTol = 64 * std::numeric_limits<real_t>::epsilon();

/// True when every node of element e carries exactly `level`.
bool elem_homogeneous_at(const SemSpace& space, index_t e, level_t level,
                         std::span<const level_t> node_level) {
  const gindex_t* l2g = space.elem_nodes(e);
  const int npts = space.nodes_per_elem();
  for (int q = 0; q < npts; ++q)
    if (node_level[static_cast<std::size_t>(l2g[q])] != level) return false;
  return true;
}

/// Checks that plane[q] == w3[q] * C for C = plane[0] / w3[0] within
/// kAffineTol * scale (C is what the affine kernel will reconstruct the plane
/// from). `scale` is the magnitude of the whole metric tensor, not of this
/// plane: an off-diagonal plane of an axis-aligned element is zero up to
/// rounding junk, and that junk is "zero" relative to the element's metric.
bool plane_separable(const real_t* plane, int stride, int npts, const real_t* w3,
                     real_t scale) {
  const real_t c = plane[0] / w3[0];
  const real_t tol = kAffineTol * scale;
  for (int q = 1; q < npts; ++q)
    if (std::abs(plane[q * stride] - w3[q] * c) > tol) return false;
  return true;
}

/// Checks that plane[q] is constant over the element (the affine Jinv).
bool plane_constant(const real_t* plane, int stride, int npts, real_t scale) {
  const real_t c = plane[0];
  const real_t tol = kAffineTol * scale;
  for (int q = 1; q < npts; ++q)
    if (std::abs(plane[q * stride] - c) > tol) return false;
  return true;
}

/// Largest |value| across `nplanes` interleaved planes of an element metric.
real_t metric_scale(const real_t* data, int nplanes, int npts) {
  real_t scale = 0;
  for (int i = 0; i < nplanes * npts; ++i) scale = std::max(scale, std::abs(data[i]));
  return std::max(scale, real_t{1e-300});
}

/// True when element e's metrics factor exactly as the compact affine form
/// stores them: acoustic G(q) = w3[q] * C, elastic Jinv(q) = const and
/// wdet*Jinv(q) = w3[q] * C'. `scratch` holds 18 * npts values.
bool elem_affine(const SemSpace& space, int ncomp, index_t e, const real_t* w3,
                 real_t* scratch) {
  const int npts = space.nodes_per_elem();
  bool affine = true;
  if (ncomp == 1) {
    real_t* g = scratch; // 6 SoA planes of npts
    space.element_metrics(e, nullptr, g, nullptr);
    // Separability against w3 needs the weight scale divided out of the
    // bound: g carries a factor w3[q], so compare at the constant's scale.
    const real_t scale = metric_scale(g, 6, npts) / w3[0];
    for (int p = 0; p < 6 && affine; ++p)
      affine = plane_separable(g + p * npts, 1, npts, w3, scale);
  } else {
    real_t* ji = scratch;
    real_t* wj = scratch + 9 * npts;
    space.element_metrics(e, ji, nullptr, wj);
    const real_t jscale = metric_scale(ji, 9, npts);
    const real_t wscale = metric_scale(wj, 9, npts) / w3[0];
    for (int p = 0; p < 9 && affine; ++p)
      affine = plane_constant(ji + p, 9, npts, jscale) &&
               plane_separable(wj + p, 9, npts, w3, wscale);
  }
  return affine;
}

/// Bins `elems` into groups of at most `width` pairwise node-disjoint
/// elements: first-fit in the caller's element order (deterministic — no
/// hashing, no randomized tie-breaks). Two elements conflict when any global
/// node appears in both of their local-to-global maps; elements of one bin
/// therefore write disjoint global rows and the block scatter needs no
/// lane-vs-lane conflict handling.
///
/// Linear in the segment's node incidences: a node -> element incidence
/// list, built by counting sort over the segment's distinct nodes, holds
/// each node's elements in segment order, so an element's conflicts with
/// already-binned elements are the earlier entries on its nodes' lists.
/// `node_slot` (one entry per global node, all -1 on entry) numbers the
/// touched nodes densely and is restored to -1 before returning.
std::vector<std::vector<index_t>> bin_conflict_free(const SemSpace& space,
                                                    std::span<const index_t> elems, int width,
                                                    std::vector<index_t>& node_slot) {
  const auto n = static_cast<index_t>(elems.size());
  const int npts = space.nodes_per_elem();
  auto nodes_of = [&](index_t i) { return space.elem_nodes(elems[static_cast<std::size_t>(i)]); };

  // Counting sort over the touched nodes: dense slot ids in first-touch
  // order, incidence counts per slot, then each slot's element list filled in
  // segment order. Every array is allocated once at its final size: growing
  // them fragmented the heap across repeated plan builds and raised peak RSS.
  index_t nslots = 0;
  for (index_t i = 0; i < n; ++i) {
    const gindex_t* l2g = nodes_of(i);
    for (int q = 0; q < npts; ++q) {
      index_t& slot = node_slot[static_cast<std::size_t>(l2g[q])];
      if (slot < 0) slot = nslots++;
    }
  }
  const auto slot_of = [&](gindex_t g) {
    return static_cast<std::size_t>(node_slot[static_cast<std::size_t>(g)]);
  };
  std::vector<index_t> start(static_cast<std::size_t>(nslots) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    const gindex_t* l2g = nodes_of(i);
    for (int q = 0; q < npts; ++q) ++start[slot_of(l2g[q]) + 1];
  }
  for (std::size_t s = 1; s < start.size(); ++s) start[s] += start[s - 1];
  std::vector<index_t> incident(static_cast<std::size_t>(start.back()));
  std::vector<index_t> cursor(start.begin(), start.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    const gindex_t* l2g = nodes_of(i);
    for (int q = 0; q < npts; ++q)
      incident[static_cast<std::size_t>(cursor[slot_of(l2g[q])]++)] = i;
  }

  // First-fit with capacity `width`. Strict color classes would strand
  // near-empty blocks per color; capacity-bounded bins keep blocks full while
  // preserving the no-shared-row invariant. `open` lists the non-full bins in
  // ascending order (full bins never reopen), so the scan skips them.
  std::vector<std::vector<index_t>> bins;
  std::vector<index_t> bin_of(static_cast<std::size_t>(n), -1);
  std::vector<index_t> forbidden_at; // bin -> last element that forbade it
  std::vector<index_t> open;
  for (index_t i = 0; i < n; ++i) {
    const gindex_t* l2g = nodes_of(i);
    for (int q = 0; q < npts; ++q) {
      const std::size_t slot = slot_of(l2g[q]);
      for (index_t t = start[slot]; t < start[slot + 1]; ++t) {
        const index_t j = incident[static_cast<std::size_t>(t)];
        if (j >= i) break; // later elements are not binned yet
        forbidden_at[static_cast<std::size_t>(bin_of[static_cast<std::size_t>(j)])] = i;
      }
    }
    std::size_t k = 0;
    while (k < open.size() && forbidden_at[static_cast<std::size_t>(open[k])] == i) ++k;
    if (k == open.size()) {
      open.push_back(static_cast<index_t>(bins.size()));
      bins.emplace_back();
      forbidden_at.push_back(-1);
    }
    const index_t chosen = open[k];
    auto& bin = bins[static_cast<std::size_t>(chosen)];
    bin.push_back(elems[static_cast<std::size_t>(i)]);
    bin_of[static_cast<std::size_t>(i)] = chosen;
    if (static_cast<int>(bin.size()) == width)
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
  }

  for (index_t i = 0; i < n; ++i) {
    const gindex_t* l2g = nodes_of(i);
    for (int q = 0; q < npts; ++q) node_slot[static_cast<std::size_t>(l2g[q])] = -1;
  }
  return bins;
}

} // namespace

std::vector<index_t> order_homogeneous_first(const SemSpace& space,
                                             std::span<const index_t> elems, level_t level,
                                             std::span<const level_t> node_level) {
  std::vector<index_t> out(elems.begin(), elems.end());
  std::stable_partition(out.begin(), out.end(), [&](index_t e) {
    return elem_homogeneous_at(space, e, level, node_level);
  });
  return out;
}

BatchPlan::BatchPlan(const SemSpace& space, int ncomp, std::vector<Group> groups, Fill fill)
    : space_(&space),
      ncomp_(ncomp),
      width_(kernels::block_width_for(space.ref().nodes_1d())),
      npts_(space.nodes_per_elem()),
      groups_(std::move(groups)) {
  LTS_CHECK_MSG(ncomp_ == 1 || ncomp_ == 3, "BatchPlan ncomp must be 1 (acoustic) or 3 (elastic)");

  // The separable factor of the compact affine metric: the same 3D quadrature
  // weight product SemSpace::element_metrics folds into wdet.
  const auto& w1 = space.ref().weights();
  const int n1 = space.ref().nodes_1d();
  w3_.resize(static_cast<std::size_t>(npts_));
  for (int k = 0; k < n1; ++k)
    for (int j = 0; j < n1; ++j)
      for (int i = 0; i < n1; ++i)
        w3_[static_cast<std::size_t>((k * n1 + j) * n1 + i)] =
            w1[static_cast<std::size_t>(i)] * w1[static_cast<std::size_t>(j)] *
            w1[static_cast<std::size_t>(k)];
  // Per-element affinity, evaluated once per element on first use (an
  // element may sit in several groups).
  // 0 unknown, 1 affine, 2 not.
  std::vector<std::uint8_t> affine_of(static_cast<std::size_t>(space.num_elems()), 0);
  std::vector<real_t> scratch(static_cast<std::size_t>(npts_) * 18);
  const auto affine = [&](index_t e) {
    auto& known = affine_of[static_cast<std::size_t>(e)];
    if (known == 0) known = elem_affine(space, ncomp_, e, w3_.data(), scratch.data()) ? 1 : 2;
    return known == 1;
  };
  // bin_conflict_free's node numbering scratch, all -1 between calls.
  std::vector<index_t> node_slot(static_cast<std::size_t>(space.num_global_nodes()), -1);

  // Metric words per block: compact lane constants for affine blocks, full
  // lane-interleaved planes otherwise.
  const std::size_t full_words = slab_size() * (ncomp_ == 1 ? 6u : 18u);
  const std::size_t compact_words = static_cast<std::size_t>(width_) * (ncomp_ == 1 ? 6u : 18u);

  // Pass 1: block layout. Groups never share a block, so every block belongs
  // to one (group, level) and a group's blocks are contiguous in plan order.
  const auto append_block = [&](index_t g, std::span<const index_t> belems) {
    const auto& grp = groups_[static_cast<std::size_t>(g)];
    Block blk;
    blk.group = g;
    blk.fill = static_cast<int>(belems.size());
    blk.level = grp.level;
    if (grp.level > 0) {
      bool homogeneous = true;
      for (int l = 0; l < blk.fill && homogeneous; ++l)
        homogeneous = elem_homogeneous_at(*space_, belems[static_cast<std::size_t>(l)],
                                          grp.level, grp.node_level);
      if (!homogeneous) {
        blk.mask_off = static_cast<std::ptrdiff_t>(mask_count_);
        mask_count_ += slab_size();
      }
    }
    blk.affine = true;
    for (int l = 0; l < blk.fill && blk.affine; ++l)
      blk.affine = affine(belems[static_cast<std::size_t>(l)]);
    blk.metric_off = metric_count_;
    metric_count_ += blk.affine ? compact_words : full_words;
    for (int l = 0; l < width_; ++l)
      elem_ids_.push_back(belems[static_cast<std::size_t>(std::min(l, blk.fill - 1))]);
    blocks_.push_back(blk);
  };

  group_range_.reserve(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& grp = groups_[g];
    LTS_CHECK_MSG(grp.level == 0 || grp.node_level.size() ==
                                        static_cast<std::size_t>(space.num_global_nodes()),
                  "level-masked BatchPlan group needs node_level over all global nodes");
    BlockRange range{num_blocks(), num_blocks()};
    // Bin the node-homogeneous elements of a masked group separately from
    // the mixed ones: a bin mixing both kinds would need a mask slab for
    // elements that don't, shrinking the mask-free fast path.
    std::span<const index_t> all(grp.elems);
    std::size_t split = all.size();
    if (grp.level > 0) {
      split = 0;
      while (split < all.size() &&
             elem_homogeneous_at(space, all[split], grp.level, grp.node_level))
        ++split;
      // Callers order homogeneous-first (order_homogeneous_first); if any
      // homogeneous elements trail the first mixed one, keep them with the
      // mixed segment — correctness never depends on the split.
    }
    for (const auto segment : {all.subspan(0, split), all.subspan(split)}) {
      if (segment.empty()) continue;
      for (const auto& bin : bin_conflict_free(space, segment, width_, node_slot))
        append_block(static_cast<index_t>(g), bin);
    }
    range.last = num_blocks();
    group_range_.push_back(range);
  }

  // Arena allocation: uninitialized, so no page is touched until fill().
  gather_.allocate(slab_offset(num_blocks()));
  mask_.allocate(mask_count_);
  metric_.allocate(metric_count_);

  if (fill == Fill::Now) this->fill(0, num_blocks());
}

void BatchPlan::fill(index_t b0, index_t b1) {
  const SemSpace& sp = *space_;
  const int W = width_;
  const int npts = npts_;
  const std::size_t slab = slab_size();
  // Per call, not per plan: fills of disjoint ranges may run concurrently.
  std::vector<real_t> scratch(static_cast<std::size_t>(npts) * 18);

  for (index_t b = b0; b < b1; ++b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    const index_t* elems = block_elems(b);

    gindex_t* gth = gather_.get() + slab_offset(b);
    for (int l = 0; l < W; ++l) {
      const gindex_t* l2g = sp.elem_nodes(elems[l]);
      for (int q = 0; q < npts; ++q) gth[q * W + l] = l2g[q];
    }

    if (blk.mask_off >= 0) {
      const auto& node_level = groups_[static_cast<std::size_t>(blk.group)].node_level;
      real_t* mk = mask_.get() + blk.mask_off;
      for (int l = 0; l < W; ++l) {
        // Padded lanes get an all-zero mask: their kernel output is garbage
        // either way (never scattered), but zeros keep it finite.
        const bool real_lane = l < blk.fill;
        const gindex_t* l2g = sp.elem_nodes(elems[l]);
        for (int q = 0; q < npts; ++q)
          mk[q * W + l] =
              real_lane && node_level[static_cast<std::size_t>(l2g[q])] == blk.level ? 1.0 : 0.0;
      }
    }

    // Metrics are evaluated from the geometry per lane, straight into the
    // block's lane-interleaved planes: plane p of the block at
    // [p * slab + q * W + l]. Affine blocks keep the point-q0 constants.
    real_t* mt = metric_.get() + blk.metric_off;
    for (int l = 0; l < W; ++l) {
      const index_t e = elems[l];
      if (!blk.affine) {
        const SemSpace::MetricOut out{mt + l, static_cast<std::size_t>(W), slab};
        if (ncomp_ == 1)
          sp.element_metrics(e, {}, out, {});
        else
          sp.element_metrics(e, out, {}, {mt + slab * 9 + l, static_cast<std::size_t>(W), slab});
        continue;
      }
      // Compact: lane-constant rows C_p[l] = metric_p(q0) / w3[q0] for the
      // w3-separable planes (G, wdet*Jinv); the constant Jinv as is.
      if (ncomp_ == 1) {
        sp.element_metrics(e, nullptr, scratch.data(), nullptr);
        for (std::size_t p = 0; p < 6; ++p)
          mt[p * static_cast<std::size_t>(W) + static_cast<std::size_t>(l)] =
              scratch[p * static_cast<std::size_t>(npts)] / w3_[0];
      } else {
        real_t* ji = scratch.data();
        real_t* wj = ji + 9 * npts;
        sp.element_metrics(e, ji, nullptr, wj);
        for (std::size_t p = 0; p < 9; ++p) {
          mt[p * static_cast<std::size_t>(W) + static_cast<std::size_t>(l)] = ji[p];
          mt[(9 + p) * static_cast<std::size_t>(W) + static_cast<std::size_t>(l)] =
              wj[p] / w3_[0];
        }
      }
    }
  }
}

std::int64_t BatchPlan::elements_in(index_t b0, index_t b1) const noexcept {
  std::int64_t n = 0;
  for (index_t b = b0; b < b1; ++b) n += blocks_[static_cast<std::size_t>(b)].fill;
  return n;
}

std::size_t BatchPlan::slab_bytes() const noexcept {
  return slab_offset(num_blocks()) * sizeof(gindex_t) + mask_count_ * sizeof(real_t) +
         metric_count_ * sizeof(real_t);
}

} // namespace ltswave::sem
