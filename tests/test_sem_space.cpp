// SemSpace tests: global numbering correctness on conforming meshes
// (including rotated element orientations exercising the canonical face/edge
// maps), geometric factors, and the lumped mass matrix. The on-demand
// tensor-product geometry is checked against an independent per-corner
// evaluation of the trilinear map kept here as an oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <string>

#include "mesh/generators.hpp"
#include "scenarios/scenario.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::sem {
namespace {

class SpaceOrder : public testing::TestWithParam<int> {};

TEST_P(SpaceOrder, StructuredBoxNodeCount) {
  const int N = GetParam();
  const index_t nx = 3, ny = 2, nz = 2;
  const auto m = mesh::make_uniform_box(nx, ny, nz);
  SemSpace space(m, N);
  // Conforming tensor grid: (N*nx+1)(N*ny+1)(N*nz+1) unique nodes.
  const gindex_t expected = static_cast<gindex_t>(N * nx + 1) * (N * ny + 1) * (N * nz + 1);
  EXPECT_EQ(space.num_global_nodes(), expected);
}

TEST_P(SpaceOrder, QuadratureVolumeMatchesBox) {
  const auto m = mesh::make_uniform_box(2, 3, 2, {2.0, 1.0, 1.5});
  SemSpace space(m, GetParam());
  EXPECT_NEAR(space.quadrature_volume(), 3.0, 1e-10);
}

TEST_P(SpaceOrder, MassSumsToRhoVolume) {
  mesh::Material mat;
  mat.rho = 2.5;
  const auto m = mesh::make_uniform_box(2, 2, 2, {1.0, 1.0, 1.0}, mat);
  SemSpace space(m, GetParam());
  real_t total = 0;
  for (real_t v : space.mass()) total += v;
  EXPECT_NEAR(total, 2.5, 1e-10);
}

TEST_P(SpaceOrder, MassPositiveOnWarpedMesh) {
  auto m = mesh::make_trench_mesh({.n = 6, .nz = 4, .squeeze = 4.0, .trench_halfwidth = 0.1,
                                   .depth_power = 2.0, .mat = {}});
  SemSpace space(m, GetParam());
  for (real_t v : space.mass()) EXPECT_GT(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Orders, SpaceOrder, testing::Values(1, 2, 3, 4, 5));

TEST(SemSpace, SharedFaceNodesHaveConsistentCoordinates) {
  // On a conforming mesh, every global node must map to a single physical
  // location; verify by recomputing per-element node positions and comparing.
  auto m = mesh::make_embedding_mesh({.n = 5, .squeeze = 3.0, .radius = 0.4,
                                      .center = {0.5, 0.5, 0.5}, .mat = {}});
  SemSpace space(m, 4);
  const int npts = space.nodes_per_elem();
  std::vector<char> seen(static_cast<std::size_t>(space.num_global_nodes()), 0);
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const gindex_t* l2g = space.elem_nodes(e);
    for (int q = 0; q < npts; ++q) seen[static_cast<std::size_t>(l2g[q])] = 1;
  }
  // Every global node is referenced by at least one element.
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(SemSpace, RotatedNeighborSharesFaceNodes) {
  // Two unit cubes sharing the x=1 face, with the second element's corner
  // ordering rotated 90 degrees about the x axis. The canonical face map must
  // still identify the 2 elements' face nodes, giving the conforming count.
  std::vector<real_t> coords;
  auto push = [&](real_t x, real_t y, real_t z) {
    coords.push_back(x);
    coords.push_back(y);
    coords.push_back(z);
  };
  // 12 nodes of a 2x1x1 two-cube strip.
  for (int ix = 0; ix <= 2; ++ix)
    for (int iy = 0; iy <= 1; ++iy)
      for (int iz = 0; iz <= 1; ++iz) push(ix, iy, iz);
  auto id = [&](int ix, int iy, int iz) { return static_cast<index_t>(iz + 2 * (iy + 2 * ix)); };

  // Element 0: standard orientation (corner = i + 2j + 4k).
  std::vector<index_t> conn = {id(0, 0, 0), id(1, 0, 0), id(0, 1, 0), id(1, 1, 0),
                               id(0, 0, 1), id(1, 0, 1), id(0, 1, 1), id(1, 1, 1)};
  // Element 1: local frame rotated about x: local y' = global z, z' = -global y.
  // Map local (i,j,k) -> global node (1+i, 1-k, j).
  for (int c = 0; c < 8; ++c) {
    const int i = c & 1, j = (c >> 1) & 1, k = (c >> 2) & 1;
    conn.push_back(id(1 + i, 1 - k, j));
  }
  mesh::HexMesh m(coords, conn, {mesh::Material{}, mesh::Material{}});
  m.validate();

  const int order = 4;
  SemSpace space(m, order);
  // Conforming count: two cubes share one (order+1)^2 face.
  const gindex_t per_cube = static_cast<gindex_t>(order + 1) * (order + 1) * (order + 1);
  const gindex_t shared = static_cast<gindex_t>(order + 1) * (order + 1);
  EXPECT_EQ(space.num_global_nodes(), 2 * per_cube - shared);

  // The shared nodes must agree geometrically: nodes of element 0 on x=1 and
  // element 1 nodes at x=1 are the same set of global indices.
  std::set<gindex_t> face0, face1;
  const auto& ref = space.ref();
  for (int b = 0; b <= order; ++b)
    for (int a = 0; a <= order; ++a) {
      face0.insert(space.elem_nodes(0)[ref.local_index(order, a, b)]);
      face1.insert(space.elem_nodes(1)[ref.local_index(0, a, b)]);
    }
  EXPECT_EQ(face0, face1);
}

TEST(SemSpace, JacobianFactorsOnStretchedBrick) {
  // A single brick [0,2]x[0,1]x[0,0.5]: jinv diagonal = (1, 2, 4) since
  // xi = x - 1 on [-1,1] etc.
  const auto m = mesh::make_uniform_box(1, 1, 1, {2.0, 1.0, 0.5});
  SemSpace space(m, 3);
  std::vector<real_t> jinv(static_cast<std::size_t>(space.nodes_per_elem()) * 9);
  space.element_metrics(0, jinv.data(), nullptr, nullptr);
  const real_t* ji = jinv.data() + 5 * 9;
  EXPECT_NEAR(ji[0], 1.0, 1e-12);
  EXPECT_NEAR(ji[4], 2.0, 1e-12);
  EXPECT_NEAR(ji[8], 4.0, 1e-12);
  EXPECT_NEAR(ji[1], 0.0, 1e-12);
}

/// Oracle geometry: the trilinear map evaluated per quadrature point as a
/// sum over the 8 corner shape functions, with the metrics derived from it
/// per point — the arithmetic the space's tensor-product evaluator replaces.
struct OracleGeometry {
  std::vector<real_t> jinv, gmat, wjinv; ///< per element, kernel layouts
  std::vector<real_t> coords, mass;      ///< per global node
  real_t volume = 0;
};

OracleGeometry oracle_geometry(const SemSpace& space) {
  const auto& m = space.mesh();
  const auto& ref = space.ref();
  const int n1 = ref.nodes_1d();
  const auto npts = static_cast<std::size_t>(space.nodes_per_elem());
  const auto ne = static_cast<std::size_t>(space.num_elems());
  const auto& xi = ref.points();
  const auto& w = ref.weights();
  OracleGeometry o;
  o.jinv.resize(ne * npts * 9);
  o.gmat.resize(ne * npts * 6);
  o.wjinv.resize(ne * npts * 9);
  o.coords.resize(static_cast<std::size_t>(space.num_global_nodes()) * 3);
  o.mass.assign(static_cast<std::size_t>(space.num_global_nodes()), 0.0);
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const index_t* c = m.corners(e);
    const auto eb = static_cast<std::size_t>(e) * npts;
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j)
        for (int i = 0; i < n1; ++i) {
          const auto q = static_cast<std::size_t>(ref.local_index(i, j, k));
          const real_t X = xi[static_cast<std::size_t>(i)], Y = xi[static_cast<std::size_t>(j)],
                       Z = xi[static_cast<std::size_t>(k)];
          real_t pos[3] = {0, 0, 0};
          real_t J[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
          for (int corner = 0; corner < 8; ++corner) {
            const real_t sx = (corner & 1) ? 1.0 : -1.0;
            const real_t sy = (corner & 2) ? 1.0 : -1.0;
            const real_t sz = (corner & 4) ? 1.0 : -1.0;
            const real_t fx = (1 + sx * X) / 2, fy = (1 + sy * Y) / 2, fz = (1 + sz * Z) / 2;
            const real_t dN[3] = {sx / 2 * fy * fz, fx * sy / 2 * fz, fx * fy * sz / 2};
            const real_t* xc = m.node(c[corner]);
            for (int d = 0; d < 3; ++d) {
              pos[d] += fx * fy * fz * xc[d];
              for (int r = 0; r < 3; ++r) J[d][r] += xc[d] * dN[r];
            }
          }
          const real_t det = J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1]) -
                             J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0]) +
                             J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]);
          real_t* ji = o.jinv.data() + (eb + q) * 9;
          ji[0] = (J[1][1] * J[2][2] - J[1][2] * J[2][1]) / det;
          ji[1] = (J[0][2] * J[2][1] - J[0][1] * J[2][2]) / det;
          ji[2] = (J[0][1] * J[1][2] - J[0][2] * J[1][1]) / det;
          ji[3] = (J[1][2] * J[2][0] - J[1][0] * J[2][2]) / det;
          ji[4] = (J[0][0] * J[2][2] - J[0][2] * J[2][0]) / det;
          ji[5] = (J[0][2] * J[1][0] - J[0][0] * J[1][2]) / det;
          ji[6] = (J[1][0] * J[2][1] - J[1][1] * J[2][0]) / det;
          ji[7] = (J[0][1] * J[2][0] - J[0][0] * J[2][1]) / det;
          ji[8] = (J[0][0] * J[1][1] - J[0][1] * J[1][0]) / det;
          const real_t wq = w[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(j)] *
                            w[static_cast<std::size_t>(k)];
          const real_t wd = wq * det;
          o.volume += wd;
          std::size_t plane = 0;
          for (int r = 0; r < 3; ++r)
            for (int t = r; t < 3; ++t, ++plane)
              o.gmat[eb * 6 + plane * npts + q] =
                  wd * (ji[r * 3] * ji[t * 3] + ji[r * 3 + 1] * ji[t * 3 + 1] +
                        ji[r * 3 + 2] * ji[t * 3 + 2]);
          for (std::size_t t = 0; t < 9; ++t) o.wjinv[(eb + q) * 9 + t] = wd * ji[t];
          const auto g = static_cast<std::size_t>(space.elem_nodes(e)[q]);
          for (std::size_t d = 0; d < 3; ++d) o.coords[g * 3 + d] = pos[d];
          o.mass[g] += m.material(e).rho * wd;
        }
  }
  return o;
}

/// Largest |got - want| over `n` entries, relative to the largest |want|.
real_t rel_diff(const real_t* got, const real_t* want, std::size_t n) {
  real_t scale = 0, diff = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scale = std::max(scale, std::abs(want[i]));
    diff = std::max(diff, std::abs(got[i] - want[i]));
  }
  return diff / std::max(scale, real_t{1e-300});
}

void expect_geometry_matches_oracle(const mesh::HexMesh& m, int order, const std::string& what) {
  constexpr real_t kTol = 1e-13;
  const SemSpace space(m, order);
  const OracleGeometry o = oracle_geometry(space);
  const auto npts = static_cast<std::size_t>(space.nodes_per_elem());
  std::vector<real_t> ji(npts * 9), gm(npts * 6), wj(npts * 9);
  real_t worst[3] = {0, 0, 0};
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const auto eb = static_cast<std::size_t>(e) * npts;
    space.element_metrics(e, ji.data(), gm.data(), wj.data());
    worst[0] = std::max(worst[0], rel_diff(ji.data(), o.jinv.data() + eb * 9, npts * 9));
    worst[1] = std::max(worst[1], rel_diff(gm.data(), o.gmat.data() + eb * 6, npts * 6));
    worst[2] = std::max(worst[2], rel_diff(wj.data(), o.wjinv.data() + eb * 9, npts * 9));
  }
  EXPECT_LE(worst[0], kTol) << what << ": jinv";
  EXPECT_LE(worst[1], kTol) << what << ": gmat";
  EXPECT_LE(worst[2], kTol) << what << ": wjinv";

  std::vector<real_t> coords(o.coords.size());
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    std::copy(x.begin(), x.end(), coords.begin() + static_cast<std::ptrdiff_t>(g) * 3);
  }
  EXPECT_LE(rel_diff(coords.data(), o.coords.data(), coords.size()), kTol) << what << ": coords";
  for (std::size_t g = 0; g < o.mass.size(); ++g)
    ASSERT_LE(std::abs(space.mass()[g] - o.mass[g]), kTol * o.mass[g]) << what << ": mass " << g;
  EXPECT_LE(std::abs(space.quadrature_volume() - o.volume), kTol * o.volume) << what << ": volume";
}

TEST(SemSpace, GeometryMatchesPerCornerOracle) {
  for (const char* name : {"trench-paper", "embedding-paper"}) {
    const auto spec = scenarios::get(name);
    expect_geometry_matches_oracle(spec.build_mesh(), spec.order, name);
  }
  for (int order : {1, 3, 5})
    expect_geometry_matches_oracle(mesh::make_uniform_box(3, 2, 2, {2.0, 1.0, 1.5}), order,
                                   "affine box order " + std::to_string(order));
}

TEST(SemSpace, StridedMetricsMatchKernelLayout) {
  // The strided form writes the same values into any layout, e.g. a
  // lane-interleaved block slab (lane 2 of 4): entry (p, q) at p*4*npts + q*4.
  const auto spec = scenarios::get("trench-paper");
  const auto m = spec.build_mesh();
  const SemSpace space(m, spec.order);
  const auto npts = static_cast<std::size_t>(space.nodes_per_elem());
  std::vector<real_t> ji(npts * 9), gm(npts * 6), wj(npts * 9);
  std::vector<real_t> sji(npts * 9 * 4), sgm(npts * 6 * 4), swj(npts * 9 * 4);
  const index_t e = space.num_elems() / 2;
  space.element_metrics(e, ji.data(), gm.data(), wj.data());
  space.element_metrics(e, {sji.data() + 2, 4, 4 * npts}, {sgm.data() + 2, 4, 4 * npts},
                        {swj.data() + 2, 4, 4 * npts});
  for (std::size_t q = 0; q < npts; ++q) {
    for (std::size_t p = 0; p < 9; ++p) {
      EXPECT_EQ(sji[p * 4 * npts + q * 4 + 2], ji[q * 9 + p]);
      EXPECT_EQ(swj[p * 4 * npts + q * 4 + 2], wj[q * 9 + p]);
    }
    for (std::size_t p = 0; p < 6; ++p) EXPECT_EQ(sgm[p * 4 * npts + q * 4 + 2], gm[p * npts + q]);
  }
}

TEST(SemSpace, NearestNodeFindsCorner) {
  const auto m = mesh::make_uniform_box(2, 2, 2);
  SemSpace space(m, 2);
  const gindex_t g = space.nearest_node({0.0, 0.0, 0.0});
  const auto x = space.node_coord(g);
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  EXPECT_NEAR(x[2], 0.0, 1e-12);
}

TEST(SemSpace, NearestNodeMatchesBruteForce) {
  // The grid-indexed search must agree with an exhaustive scan, including for
  // queries outside the mesh bounding box and on an anisotropic warped mesh.
  auto m = mesh::make_uniform_box(4, 3, 2, {2.0, 1.0, 0.4});
  warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
    x += 0.03 * std::sin(5 * y);
    z += 0.02 * std::cos(4 * x + y);
  });
  SemSpace space(m, 3);

  auto brute = [&](std::array<real_t, 3> x) {
    gindex_t best = 0;
    real_t best_d = std::numeric_limits<real_t>::max();
    for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
      const auto p = space.node_coord(g);
      const real_t d = (p[0] - x[0]) * (p[0] - x[0]) + (p[1] - x[1]) * (p[1] - x[1]) +
                       (p[2] - x[2]) * (p[2] - x[2]);
      if (d < best_d) {
        best_d = d;
        best = g;
      }
    }
    return best;
  };

  std::mt19937 rng(123);
  std::uniform_real_distribution<real_t> ux(-0.5, 2.5), uy(-0.5, 1.5), uz(-0.5, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::array<real_t, 3> x = {ux(rng), uy(rng), uz(rng)};
    const gindex_t got = space.nearest_node(x);
    const gindex_t want = brute(x);
    // Ties (equidistant nodes) may resolve differently; compare distances.
    const auto pg = space.node_coord(got);
    const auto pw = space.node_coord(want);
    const real_t dg = (pg[0] - x[0]) * (pg[0] - x[0]) + (pg[1] - x[1]) * (pg[1] - x[1]) +
                      (pg[2] - x[2]) * (pg[2] - x[2]);
    const real_t dw = (pw[0] - x[0]) * (pw[0] - x[0]) + (pw[1] - x[1]) * (pw[1] - x[1]) +
                      (pw[2] - x[2]) * (pw[2] - x[2]);
    EXPECT_NEAR(dg, dw, 1e-12) << "query " << x[0] << "," << x[1] << "," << x[2];
  }
}

TEST(SemSpace, RejectsInvertedElement) {
  // Swap two corners to invert the reference orientation.
  std::vector<real_t> coords = {0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0,
                                0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1};
  std::vector<index_t> conn = {1, 0, 3, 2, 5, 4, 7, 6}; // mirrored in x
  mesh::HexMesh m(coords, conn, {mesh::Material{}});
  EXPECT_THROW(SemSpace(m, 2), CheckFailure);
}

} // namespace
} // namespace ltswave::sem
