#pragma once

/// \file sem_space.hpp
/// Global spectral-element discretization of a conforming hex mesh:
/// continuous global GLL-node numbering (vertex/edge/face/interior entities),
/// node coordinates, the diagonal (lumped) global mass matrix (paper
/// Sec. I-B), and per-quadrature-point geometric factors evaluated on demand
/// (element_metrics). The space keeps no per-point metrics resident: the
/// production applies read the copy a BatchPlan lays out for its kernels.
///
/// Unlike DG codes, the SEM *shares* nodes between neighbouring elements; this
/// sharing is exactly what complicates LTS (paper Sec. II-C) and what the
/// level/halo machinery in src/core handles.

#include <array>
#include <cstddef>
#include <vector>

#include "mesh/hex_mesh.hpp"
#include "sem/reference_element.hpp"

namespace ltswave::sem {

class SemSpace {
public:
  /// Builds the discretization. Throws if an element's trilinear geometry is
  /// inverted (non-positive Jacobian at a quadrature point) or a lumped mass
  /// is not positive.
  SemSpace(const mesh::HexMesh& mesh, int order);

  [[nodiscard]] const mesh::HexMesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] const ReferenceElement& ref() const noexcept { return ref_; }
  [[nodiscard]] int order() const noexcept { return ref_.order(); }
  [[nodiscard]] int nodes_per_elem() const noexcept { return ref_.nodes_per_elem(); }

  [[nodiscard]] gindex_t num_global_nodes() const noexcept { return num_global_; }
  [[nodiscard]] index_t num_elems() const noexcept { return mesh_->num_elems(); }

  /// Element-local -> global node map; length nodes_per_elem().
  [[nodiscard]] const gindex_t* elem_nodes(index_t e) const {
    return local_to_global_.data() + static_cast<std::size_t>(e) * static_cast<std::size_t>(nodes_per_elem());
  }

  /// Physical coordinates of global node g (xyz).
  [[nodiscard]] std::array<real_t, 3> node_coord(gindex_t g) const {
    const std::size_t b = static_cast<std::size_t>(g) * 3;
    return {coords_[b], coords_[b + 1], coords_[b + 2]};
  }

  /// Global node nearest to a physical point. Served by a coarse uniform-grid
  /// spatial index (built once at construction) with an expanding-ring
  /// search, so source/receiver placement stays fast on large meshes.
  [[nodiscard]] gindex_t nearest_node(std::array<real_t, 3> x) const;

  /// Destination of one metric in element_metrics: entry (plane p, point q)
  /// lands at data[p * plane + q * point]; a null `data` skips the metric.
  struct MetricOut {
    real_t* data = nullptr;
    std::size_t point = 0; ///< stride between quadrature points
    std::size_t plane = 0; ///< stride between metric entries (planes)
  };

  /// Geometric factors of element e at all nodes_per_elem() quadrature
  /// points, evaluated on demand from the element's trilinear map in
  /// tensor-product form (nothing per point is stored). Three metrics:
  ///  * jinv  — 9 planes, the inverse Jacobian in row-major (r,d) order,
  ///    entry (r,d) = d xi_r / d x_d (the elastic gradient factor);
  ///  * gmat  — 6 planes, the fused symmetric acoustic metric
  ///    G = wdet * Jinv * Jinv^T in the order G00, G01, G02, G11, G12, G22;
  ///  * wjinv — 9 planes, wdet * Jinv (the elastic flux factor);
  /// with wdet = w_i w_j w_k det J the quadrature weight of the point. The
  /// strides let a caller write straight into its own layout, e.g. a
  /// BatchPlan's lane-interleaved slabs. Const and free of shared mutable
  /// state, so any number of threads may call it concurrently.
  void element_metrics(index_t e, MetricOut jinv, MetricOut gmat, MetricOut wjinv) const;

  /// element_metrics in compact per-element layouts: jinv and wjinv as npts
  /// row-major 3x3 blocks (9 * npts values), gmat as 6 SoA planes of npts
  /// values. Any pointer may be null.
  void element_metrics(index_t e, real_t* jinv, real_t* gmat, real_t* wjinv) const;

  /// Diagonal global mass matrix (length num_global_nodes()); strictly
  /// positive. Shared by all field components.
  [[nodiscard]] const std::vector<real_t>& mass() const noexcept { return mass_; }

  /// 1 / mass, precomputed (used on every right-hand-side evaluation).
  [[nodiscard]] const std::vector<real_t>& inv_mass() const noexcept { return inv_mass_; }

  /// Total mesh volume as integrated by the quadrature (for sanity tests).
  [[nodiscard]] real_t quadrature_volume() const;

private:
  void build_numbering();
  void build_geometry();
  void build_node_grid();

  const mesh::HexMesh* mesh_;
  ReferenceElement ref_;
  std::vector<gindex_t> local_to_global_;
  gindex_t num_global_ = 0;
  std::vector<real_t> coords_; // 3 * num_global_
  std::vector<real_t> mass_;
  std::vector<real_t> inv_mass_;
  real_t quad_volume_ = 0;

  // Coarse uniform grid over the node cloud for nearest_node queries.
  std::array<int, 3> grid_dims_ = {1, 1, 1};
  std::array<real_t, 3> grid_lo_ = {0, 0, 0};
  std::array<real_t, 3> grid_cell_ = {1, 1, 1};
  std::vector<std::size_t> grid_start_; // CSR offsets, dims product + 1
  std::vector<gindex_t> grid_nodes_;    // node ids bucketed by cell
};

} // namespace ltswave::sem
