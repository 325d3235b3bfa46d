#pragma once

/// \file batch_plan.hpp
/// Element-block batched execution plan for the SEM kernel engine.
///
/// The per-element apply (kernels.hpp) leaves two costs on the table that the
/// LTS hot loop pays millions of times: one indirect kernel dispatch per
/// element, and inner loops whose trip count is the 1D node count n1 = 2..9 —
/// far below the machine's vector width. A BatchPlan removes both by grouping
/// elements into fixed-width blocks of W lanes (W = 8..32, order-dependent,
/// kernels::block_width_for) and storing every per-point input
/// *lane-interleaved*: entry (q, l) of a block slab lives at [q*W + l], so
/// every kernel loop carries a unit-stride innermost lane dimension of
/// compile-time width. One kernel call then advances W elements, and the
/// tensor contractions vectorize across elements instead of across the short
/// n1 axis.
///
/// A plan is an ordered list of *groups*, each a caller-supplied element
/// sequence chunked into blocks (blocks may be ragged: padded lanes replicate
/// the last real element's gather indices and are never scattered). Groups
/// carry an optional LTS level: level-k groups bake the
/// branch-free column mask per block — blocks whose elements are all
/// node-homogeneous at level k (the interior bulk, which (rank, level)
/// ordering makes the common case) carry no mask at all and take the plain
/// gather, mixed blocks carry one interleaved 0/1 mask slab. This is the
/// per-block form of sem::LevelMask; the per-element LevelMask remains as the
/// single-element cross-check path.
///
/// Per block the plan stores contiguous, 64-byte-aligned slabs of everything
/// the kernel streams: gather indices, the fused acoustic metric G (6 planes)
/// or the elastic Jinv / wdet*Jinv planes (9 + 9), and the optional mask.
///
/// Blocks whose elements are all *affine* (parallelepiped geometry — the bulk
/// of generated paper meshes) store the metric in compact separable form
/// instead: the fused metrics of such an element factor exactly as
/// G(q) = w_q * C with one constant 6-tuple (respectively 9+9 for elastic)
/// per element, so the kernel streams 6*W constants instead of 6*W*npts plane
/// values — the apply's main-memory traffic collapses to the field gather and
/// scatter. Affinity is detected numerically on the element's metrics
/// (evaluated from the geometry, SemSpace::element_metrics) with an ulp-level
/// tolerance and falls back to full slabs, so the compact path is a pure
/// bandwidth optimization (metric values agree to ~1e-14 relative, far
/// inside every cross-path test tolerance).
///
/// The plan's slabs are the only resident copy of the per-point metrics:
/// SemSpace stores none, and fill() evaluates them per lane straight into
/// the block planes.
///
/// By default (Coloring::ConflictFree) the chunking is *conflict-free*: each
/// group's elements are binned by first-fit over the element node-sharing
/// conflicts (found through a node -> element incidence built by counting
/// sort, linear in the group size), so no two real lanes of one block touch
/// the same global mesh row. The scatter of such a block can
/// then use SIMD indexed scatter-add with no lane-vs-lane conflict checking —
/// within one q-row of the block, all gather indices are pairwise distinct.
/// The binning is deterministic (first-fit over the caller's element order),
/// so plan block order — and therefore the accumulation order every solver
/// inherits — is run-to-run identical. Level-masked groups bin their
/// node-homogeneous elements separately from the mixed ones so the mask-free
/// fast path keeps whole blocks. Coloring::None reproduces the plain strided
/// chunking (exactly the caller's order, only the last block per group
/// ragged) for A/B measurement.
///
/// Construction can defer the slab fill (Fill::Deferred) so a rank-parallel
/// owner first-touches its own blocks from its own pool thread — the NUMA
/// placement the threaded runtime relies on.
///
/// Ownership and thread-safety: a plan *borrows* the SemSpace (and, for
/// masked groups, the node_level span) it was built from — both must outlive
/// it; it never copies the space. Once every block's slabs are filled the
/// plan is immutable, and immutability is the concurrency contract: any
/// number of threads may iterate one shared plan concurrently (the threaded
/// solver's ranks and its work stealing do exactly that), as long as all
/// per-apply mutable state — accumulation buffers, kernel workspaces — lives
/// outside the plan, in per-thread storage. The only mutating call is
/// fill(b0, b1), which under Fill::Deferred must be called exactly once per
/// block, with disjoint ranges if called from several threads, and must
/// happen-before any concurrent use of those blocks (the threaded runtime
/// orders this with its startup barrier). fill() only reads the space
/// (element_metrics is const and thread-safe), so concurrent fills of
/// disjoint ranges are safe.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sem/kernels.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::sem {

class BatchPlan {
public:
  /// One caller-ordered element sequence to be chunked into blocks.
  /// level == 0: unmasked full apply. level > 0: the blocks serve the
  /// column-restricted apply K P_level u and need node_level (one entry per
  /// global node, must outlive the plan when the fill is deferred).
  struct Group {
    std::vector<index_t> elems;
    level_t level = 0;
    std::span<const level_t> node_level = {};
  };

  /// Block id range [first, last) of one group, in plan block numbering.
  struct BlockRange {
    index_t first = 0;
    index_t last = 0;
    [[nodiscard]] index_t count() const noexcept { return last - first; }
  };

  enum class Fill {
    Now,      ///< fill every slab during construction (serial owners)
    Deferred, ///< allocate untouched; owner calls fill() per block range so
              ///< pages are first-touched by the thread that will use them
  };

  enum class Coloring {
    None,         ///< strided chunking in caller order (conflicting lanes OK)
    ConflictFree, ///< first-fit conflict-graph binning: no two real lanes of
                  ///< a block share a global mesh row (SIMD scatter safe)
  };

  /// `ncomp` selects which metric slabs the plan materializes: 1 builds the
  /// fused acoustic G planes, 3 builds the elastic jinv/wjinv planes.
  BatchPlan(const SemSpace& space, int ncomp, std::vector<Group> groups,
            Fill fill = Fill::Now, Coloring coloring = Coloring::ConflictFree);

  [[nodiscard]] const SemSpace& space() const noexcept { return *space_; }
  [[nodiscard]] int ncomp() const noexcept { return ncomp_; }
  /// Lanes per block (kernels::block_width_for of the space's order).
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int npts() const noexcept { return npts_; }
  [[nodiscard]] index_t num_blocks() const noexcept {
    return static_cast<index_t>(blocks_.size());
  }
  [[nodiscard]] std::size_t num_groups() const noexcept { return group_range_.size(); }
  /// Group g as passed to the constructor (caller element order and level).
  [[nodiscard]] const Group& group(std::size_t g) const { return groups_.at(g); }
  [[nodiscard]] BlockRange group_blocks(std::size_t g) const { return group_range_.at(g); }

  /// Real (unpadded) lanes of block b; padded lanes replicate the last real
  /// element's gather indices and must not be scattered.
  [[nodiscard]] int block_fill(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].fill;
  }
  /// Element ids of block b, width() entries (padded lanes replicated).
  [[nodiscard]] const index_t* block_elems(index_t b) const noexcept {
    return elem_ids_.data() + static_cast<std::size_t>(b) * static_cast<std::size_t>(width_);
  }
  /// LTS level the block's group was built for (0 = unmasked).
  [[nodiscard]] level_t block_level(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].level;
  }
  /// True when the block was built conflict-free: its real lanes share no
  /// global mesh row, so within every q-row of the gather slab the indices of
  /// real lanes are pairwise distinct and the scatter may run as an
  /// unchecked SIMD scatter-add.
  [[nodiscard]] bool block_conflict_free(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].conflict_free;
  }
  /// Total elements (real lanes) across blocks [b0, b1).
  [[nodiscard]] std::int64_t elements_in(index_t b0, index_t b1) const noexcept;

  /// Gather indices of block b, width()*npts() entries, lane-interleaved:
  /// lane l's node q at [q*width + l].
  [[nodiscard]] const gindex_t* gather(index_t b) const noexcept {
    return gather_.get() + slab_offset(b);
  }
  /// 0/1 column mask slab (lane-interleaved) for a mixed block, or nullptr
  /// when the block is level-homogeneous (or its group is unmasked) — the
  /// mask-free fast path.
  [[nodiscard]] const real_t* mask(index_t b) const noexcept {
    const auto off = blocks_[static_cast<std::size_t>(b)].mask_off;
    return off < 0 ? nullptr : mask_.get() + off;
  }

  /// True when every element of block b is affine: the kernels then read the
  /// compact separable metric (the *_affine accessors) instead of full planes.
  [[nodiscard]] bool block_affine(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].affine;
  }
  /// 3D quadrature weights w_q (npts values) — the separable factor of the
  /// compact affine metric.
  [[nodiscard]] const real_t* weights3() const noexcept { return w3_.data(); }

  /// Acoustic fused metric slab of block b: 6 lane-interleaved planes
  /// (G00,G01,G02,G11,G12,G22), each width()*npts(). Requires ncomp == 1 and
  /// !block_affine(b).
  [[nodiscard]] const real_t* gmat(index_t b) const noexcept {
    return metric_.get() + blocks_[static_cast<std::size_t>(b)].metric_off;
  }
  /// Compact acoustic metric of an affine block: 6 lane constant rows
  /// (6 * width(); G(q)[l] = w3[q] * row_p[l]). Requires block_affine(b).
  [[nodiscard]] const real_t* gmat_affine(index_t b) const noexcept {
    return metric_.get() + blocks_[static_cast<std::size_t>(b)].metric_off;
  }
  /// Elastic inverse-Jacobian slab: 9 lane-interleaved planes in row-major
  /// (r,d) order. Requires ncomp == 3 and !block_affine(b).
  [[nodiscard]] const real_t* jinv(index_t b) const noexcept {
    return metric_.get() + blocks_[static_cast<std::size_t>(b)].metric_off;
  }
  /// Elastic flux-factor slab wdet*Jinv, layout as jinv().
  [[nodiscard]] const real_t* wjinv(index_t b) const noexcept {
    return jinv(b) + slab_size() * 9;
  }
  /// Compact elastic metrics of an affine block: jinv as 9 lane constant
  /// rows (Jinv is constant over the element), wdet*jinv as 9 lane constant
  /// rows scaled by w3[q] at apply time.
  [[nodiscard]] const real_t* jinv_affine(index_t b) const noexcept {
    return metric_.get() + blocks_[static_cast<std::size_t>(b)].metric_off;
  }
  [[nodiscard]] const real_t* wjinv_affine(index_t b) const noexcept {
    return jinv_affine(b) + static_cast<std::size_t>(width_) * 9;
  }

  /// Writes gather/metric/mask data into the slabs of blocks [b0, b1). With
  /// Fill::Deferred the owning thread calls this exactly once per block; the
  /// write is the first touch of those pages.
  void fill(index_t b0, index_t b1);

  /// Resident slab bytes (gather + metrics + masks), for benches.
  [[nodiscard]] std::size_t slab_bytes() const noexcept;

private:
  struct Block {
    index_t group = 0;
    int fill = 0;                 ///< real lanes
    level_t level = 0;            ///< 0 = unmasked
    bool affine = false;          ///< compact separable metric
    bool conflict_free = false;   ///< real lanes share no global mesh row
    std::ptrdiff_t mask_off = -1; ///< into mask_, -1 = homogeneous/unmasked
    std::size_t metric_off = 0;   ///< into metric_
  };

  [[nodiscard]] std::size_t slab_size() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(npts_);
  }
  [[nodiscard]] std::size_t slab_offset(index_t b) const noexcept {
    return static_cast<std::size_t>(b) * slab_size();
  }

  const SemSpace* space_;
  int ncomp_;
  int width_;
  int npts_;
  std::vector<Group> groups_;
  std::vector<BlockRange> group_range_;
  std::vector<Block> blocks_;
  std::vector<index_t> elem_ids_; ///< width_ per block, padded replicated

  // Slab arenas. Allocated uninitialized (make_unique_for_overwrite) so pages
  // are first-touched by whichever thread runs fill() — operator new itself
  // touches nothing. Arena bases land 64-byte aligned via new[]'s extended
  // alignment for the over-aligned struct below.
  struct alignas(64) CacheLine {
    unsigned char bytes[64];
  };
  template <typename T>
  struct Arena {
    std::unique_ptr<CacheLine[]> store;
    T* data = nullptr;
    [[nodiscard]] T* get() const noexcept { return data; }
    void allocate(std::size_t n) {
      if (n == 0) return;
      store = std::make_unique_for_overwrite<CacheLine[]>((n * sizeof(T) + 63) / 64);
      data = reinterpret_cast<T*>(store.get());
    }
  };
  Arena<gindex_t> gather_;
  Arena<real_t> mask_;
  /// One arena for all metric data; per-block offset and size depend on the
  /// block's affinity (compact constants vs full lane-interleaved planes).
  Arena<real_t> metric_;
  std::size_t mask_count_ = 0;
  std::size_t metric_count_ = 0;
  std::vector<real_t> w3_; ///< 3D quadrature weights, npts
};

/// Returns a copy of `elems` with the elements that are node-homogeneous at
/// `level` (every node of the element has node_level == level) moved to the
/// front, original relative order preserved on both sides. Feeding this to a
/// level-k Group maximizes the run of mask-free blocks, since only the
/// trailing blocks then contain mixed elements.
[[nodiscard]] std::vector<index_t> order_homogeneous_first(const SemSpace& space,
                                                           std::span<const index_t> elems,
                                                           level_t level,
                                                           std::span<const level_t> node_level);

} // namespace ltswave::sem
