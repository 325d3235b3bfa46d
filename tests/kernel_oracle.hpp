#pragma once

/// \file kernel_oracle.hpp
/// Per-element stiffness apply with runtime n1 — the test oracle every
/// block apply (WaveOperator::apply_add_blocks) is compared against. Plain
/// scalar loops straight from the weak form: reference gradients through the
/// collocation derivative matrix D, the pointwise metric algebra on
/// SemSpace::element_metrics, then the weak divergence through D^T. No
/// specialization, no lane layout, no SIMD, so it shares nothing with the
/// block kernels but the geometry.

#include <span>
#include <vector>

#include "sem/sem_space.hpp"

namespace ltswave::testing_oracle {

/// out += K P_level u over `elems` for `ncomp` = 1 (acoustic, kappa = rho
/// vp^2) or 3 (isotropic elastic). With node_level == nullptr every column is
/// taken; otherwise only columns g with node_level[g] == level.
inline void apply_add(const sem::SemSpace& space, int ncomp, std::span<const index_t> elems,
                      const real_t* u, real_t* out, const level_t* node_level = nullptr,
                      level_t level = 0) {
  const int n1 = space.ref().nodes_1d();
  const int npts = space.nodes_per_elem();
  const auto& Dm = space.ref().deriv_matrix();
  const auto D = [&](int a, int b) { return Dm[static_cast<std::size_t>(a * n1 + b)]; };
  const auto at = [n1](int i, int j, int k) {
    return static_cast<std::size_t>((k * n1 + j) * n1 + i);
  };
  const auto n = static_cast<std::size_t>(npts);

  std::vector<real_t> ul(3 * n), grad(9 * n), flux(9 * n);
  std::vector<real_t> jinv(9 * n), gmat(6 * n), wjinv(9 * n);
  for (index_t e : elems) {
    const gindex_t* l2g = space.elem_nodes(e);
    for (std::size_t q = 0; q < n; ++q) {
      const bool take = node_level == nullptr || node_level[l2g[q]] == level;
      for (int c = 0; c < ncomp; ++c)
        ul[c * n + q] = take ? u[static_cast<std::size_t>(l2g[q]) * ncomp + c] : 0.0;
    }
    // grad[(3c + r) n + q] = d ul_c / d xi_r at q.
    for (int c = 0; c < ncomp; ++c)
      for (int k = 0; k < n1; ++k)
        for (int j = 0; j < n1; ++j)
          for (int i = 0; i < n1; ++i) {
            real_t g0 = 0, g1 = 0, g2 = 0;
            for (int m = 0; m < n1; ++m) {
              g0 += D(i, m) * ul[c * n + at(m, j, k)];
              g1 += D(j, m) * ul[c * n + at(i, m, k)];
              g2 += D(k, m) * ul[c * n + at(i, j, m)];
            }
            const std::size_t q = at(i, j, k);
            grad[(3 * c) * n + q] = g0;
            grad[(3 * c + 1) * n + q] = g1;
            grad[(3 * c + 2) * n + q] = g2;
          }

    const auto& mat = space.mesh().material(e);
    if (ncomp == 1) {
      // Reference flux = kappa * G grad, G symmetric (G00,G01,G02,G11,G12,G22).
      space.element_metrics(e, nullptr, gmat.data(), nullptr);
      const real_t kappa = mat.rho * mat.vp * mat.vp;
      const int sym[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
      for (std::size_t q = 0; q < n; ++q)
        for (int r = 0; r < 3; ++r) {
          real_t f = 0;
          for (int s = 0; s < 3; ++s) f += gmat[sym[r][s] * n + q] * grad[s * n + q];
          flux[r * n + q] = kappa * f;
        }
    } else {
      // Strain from Jinv, isotropic stress, reference flux through wdet*Jinv.
      space.element_metrics(e, jinv.data(), nullptr, wjinv.data());
      const real_t mu = mat.rho * mat.vs * mat.vs;
      const real_t lam = mat.rho * (mat.vp * mat.vp - 2 * mat.vs * mat.vs);
      for (std::size_t q = 0; q < n; ++q) {
        const real_t* ji = jinv.data() + 9 * q;
        const real_t* wj = wjinv.data() + 9 * q;
        real_t H[3][3] = {};
        for (int c = 0; c < 3; ++c)
          for (int d = 0; d < 3; ++d)
            for (int r = 0; r < 3; ++r) H[c][d] += ji[r * 3 + d] * grad[(3 * c + r) * n + q];
        const real_t tr = H[0][0] + H[1][1] + H[2][2];
        for (int c = 0; c < 3; ++c)
          for (int r = 0; r < 3; ++r) {
            real_t f = 0;
            for (int d = 0; d < 3; ++d)
              f += wj[r * 3 + d] * (mu * (H[c][d] + H[d][c]) + (c == d ? lam * tr : 0.0));
            flux[(3 * c + r) * n + q] = f;
          }
      }
    }

    // Weak divergence: out_c(a) += sum_m D(m,a_r) F_{c,r} along each axis r.
    for (int c = 0; c < ncomp; ++c)
      for (int k = 0; k < n1; ++k)
        for (int j = 0; j < n1; ++j)
          for (int i = 0; i < n1; ++i) {
            real_t acc = 0;
            for (int m = 0; m < n1; ++m)
              acc += D(m, i) * flux[(3 * c) * n + at(m, j, k)] +
                     D(m, j) * flux[(3 * c + 1) * n + at(i, m, k)] +
                     D(m, k) * flux[(3 * c + 2) * n + at(i, j, m)];
            out[static_cast<std::size_t>(l2g[at(i, j, k)]) * ncomp + c] += acc;
          }
  }
}

/// K u over every element.
inline std::vector<real_t> apply(const sem::SemSpace& space, int ncomp,
                                 std::span<const real_t> u) {
  std::vector<index_t> all(static_cast<std::size_t>(space.num_elems()));
  for (std::size_t e = 0; e < all.size(); ++e) all[e] = static_cast<index_t>(e);
  std::vector<real_t> out(u.size(), 0.0);
  apply_add(space, ncomp, all, u.data(), out.data());
  return out;
}

} // namespace ltswave::testing_oracle
