// Time-integrator axis tests (core/integrator.hpp):
//  * parsing/canonicalization and the config/scenario plumbing of the
//    `integrator=` key;
//  * the substep coefficient tables — Newmark everywhere, and the
//    Grote/Michel/Sauter stabilized-leapfrog pair on the deepest LTS level
//    (kick/drift sum preserved so parent reconstructions are untouched);
//  * discrete energy conservation: both integrators must hold the staggered
//    energy of their own cycle map to roundoff on the sourceless "layered"
//    scenario (the stabilized scheme's selling point — stability without
//    dissipation at resonant level-rate ratios);
//  * observed convergence order: both integrators are second order in dt on a
//    dt-refinement sweep of the sourceless "strip" scenario.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/energy.hpp"
#include "core/integrator.hpp"
#include "core/simulation.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::core {
namespace {

// ---------------------------------------------------------------------------
// Parsing and plumbing
// ---------------------------------------------------------------------------

TEST(Integrator, ParseAndCanonicalNames) {
  EXPECT_EQ(Integrator::parse("").kind(), IntegratorKind::Newmark);
  EXPECT_EQ(Integrator::parse("newmark").kind(), IntegratorKind::Newmark);
  EXPECT_EQ(Integrator::parse("leapfrog-stab").kind(), IntegratorKind::LeapfrogStab);
  EXPECT_EQ(Integrator::parse("stabilized-leapfrog").kind(), IntegratorKind::LeapfrogStab);
  EXPECT_EQ(Integrator::newmark().name(), "newmark");
  EXPECT_EQ(Integrator::leapfrog_stab().name(), "leapfrog-stab");
  EXPECT_THROW((void)Integrator::parse("rk4"), CheckFailure);
  EXPECT_EQ(Integrator::parse("newmark"), Integrator::newmark());
  EXPECT_NE(Integrator::parse("leapfrog-stab"), Integrator::newmark());
}

TEST(Integrator, ConfigKeyRoundTripsAndCanonicalizes) {
  SimulationConfig cfg;
  // The echo always names the integrator that runs, the default included.
  EXPECT_NE(to_string(cfg).find(" integrator=newmark "), std::string::npos) << to_string(cfg);

  EXPECT_TRUE(try_simulation_config_key(cfg, "integrator", "stabilized-leapfrog"));
  EXPECT_EQ(cfg.integrator, "leapfrog-stab") << "aliases must canonicalize at parse time";
  EXPECT_EQ(parse_simulation_config(to_string(cfg)), cfg);
  EXPECT_THROW((void)parse_simulation_config("integrator=rk4"), CheckFailure);

  scenarios::ScenarioSpec spec = scenarios::get("strip");
  spec.apply_override("integrator", "leapfrog-stab");
  EXPECT_EQ(spec.integrator, "leapfrog-stab");
  EXPECT_EQ(spec.config().integrator, "leapfrog-stab");
}

TEST(Integrator, NewmarkBackendRejectsLeapfrogStab) {
  auto spec = scenarios::get("strip").with_executor("newmark").with_integrator("leapfrog-stab");
  EXPECT_THROW((void)spec.make_simulation(), CheckFailure);
}

// ---------------------------------------------------------------------------
// Substep coefficient tables
// ---------------------------------------------------------------------------

TEST(Integrator, NewmarkCoeffsAreTheBaselineEverywhere) {
  const Integrator in = Integrator::newmark();
  const real_t d = real_t(0.125);
  for (level_t nl = 1; nl <= 4; ++nl)
    for (level_t k = 1; k <= nl; ++k) {
      const SubstepCoeffs first = in.coeffs(k, nl, true, d);
      const SubstepCoeffs later = in.coeffs(k, nl, false, d);
      EXPECT_EQ(first.kick, real_t(0.5) * d);
      EXPECT_EQ(first.drift, d);
      EXPECT_EQ(later.kick, d);
      EXPECT_EQ(later.drift, d);
    }
}

TEST(Integrator, LeapfrogStabPerturbsOnlyTheDeepestLevel) {
  const Integrator in = Integrator::leapfrog_stab();
  const real_t d = real_t(0.125);
  const real_t nu = Integrator::kNu;
  for (level_t nl = 2; nl <= 4; ++nl) {
    for (level_t k = 1; k < nl; ++k) {
      // Non-deepest levels: bitwise the Newmark baseline.
      EXPECT_EQ(in.coeffs(k, nl, true, d).kick, real_t(0.5) * d);
      EXPECT_EQ(in.coeffs(k, nl, true, d).drift, d);
      EXPECT_EQ(in.coeffs(k, nl, false, d).kick, d);
      EXPECT_EQ(in.coeffs(k, nl, false, d).drift, d);
    }
    const SubstepCoeffs s1 = in.coeffs(nl, nl, true, d);
    const SubstepCoeffs s2 = in.coeffs(nl, nl, false, d);
    EXPECT_EQ(s1.kick, real_t(0.5) * (real_t(1) + nu) * d);
    EXPECT_EQ(s1.drift, (real_t(1) + nu) * d);
    EXPECT_EQ(s2.kick, d);
    EXPECT_EQ(s2.drift, (real_t(1) - nu) * d);
    // The drift pair still spans exactly 2*delta, so the parent-level
    // reconstruction (which assumes the child covered its whole window) is
    // untouched by the stabilization.
    EXPECT_EQ(s1.drift + s2.drift, 2 * d);
  }
  // Single level: plain leapfrog, identical to Newmark.
  EXPECT_EQ(in.coeffs(1, 1, true, d).kick, real_t(0.5) * d);
  EXPECT_EQ(in.coeffs(1, 1, false, d).drift, d);
}

TEST(Integrator, LeapfrogStabStabilityPolynomialIsStrictlyInsideTheUnitDisk) {
  // One deepest-level double-substep advances the scalar test equation
  // u'' = -w^2 u by the polynomial map with companion-matrix eigenvalues on
  // the unit circle for 0 < X < X_max. The stabilized coefficients give
  //   Phi(X) = 1 - 2X + C X^2,  C = (1+nu)^2 (1-nu) / 2,
  // and C > 1/2 is exactly the condition that kills the resonance tangencies
  // |Phi| = 1 in the interior which the plain scheme (C = 1/2) suffers.
  const double nu = static_cast<double>(Integrator::kNu);
  const double C = (1 + nu) * (1 + nu) * (1 - nu) / 2;
  EXPECT_GT(C, 0.5);
  // Trace of the double-substep map: |Phi(X)| < 1 strictly inside (0, X_max),
  // X = (w*delta)^2 / 2.  X_max solves Phi(X) = -1.
  const double x_max = (2 - std::sqrt(4 - 8 * C)) / (2 * C) * 2; // smaller root of CX^2-2X+2
  for (double x = 1e-3; x < x_max - 1e-3; x += 1e-3) {
    const double phi = 1 - 2 * x + C * x * x;
    ASSERT_LT(std::abs(phi), 1.0) << "resonance tangency at X=" << x;
  }
}

// ---------------------------------------------------------------------------
// Discrete energy conservation (both integrators, sourceless layered medium)
// ---------------------------------------------------------------------------

/// <a, M b> over interleaved components with the diagonal SEM mass.
double mass_inner(const sem::SemSpace& space, int ncomp, const std::vector<real_t>& a,
                  const std::vector<real_t>& b) {
  double e = 0;
  const auto& mass = space.mass();
  for (std::size_t g = 0; g < mass.size(); ++g) {
    double s = 0;
    for (int c = 0; c < ncomp; ++c) {
      const std::size_t i = g * static_cast<std::size_t>(ncomp) + static_cast<std::size_t>(c);
      s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    e += static_cast<double>(mass[g]) * s;
  }
  return e;
}

/// Staggered energy of the one-cycle map from three consecutive boundary
/// snapshots — needs only the mass matrix: with the cycle map written as
/// u^{n+1} = 2u^n - u^{n-1} - dt^2 A_eff u^n, the potential term
/// (1/2) <u^{n+1}, K_eff u^n> becomes
/// (1/2) <u^{n+1}, M (2u^n - u^{n-1} - u^{n+1})> / dt^2, and the kinetic term
/// uses v^{n+1/2} = (u^{n+1} - u^n)/dt. Exactly conserved whenever M A_eff is
/// symmetric — which is what this test asserts about both integrators' LTS
/// cycle maps.
double cycle_energy(const sem::SemSpace& space, int ncomp, double dt,
                    const std::vector<real_t>& um1, const std::vector<real_t>& u0,
                    const std::vector<real_t>& up1) {
  std::vector<real_t> v(u0.size()), ku(u0.size());
  for (std::size_t i = 0; i < u0.size(); ++i) {
    v[i] = static_cast<real_t>((static_cast<double>(up1[i]) - static_cast<double>(u0[i])) / dt);
    ku[i] = static_cast<real_t>(2 * static_cast<double>(u0[i]) - static_cast<double>(um1[i]) -
                                static_cast<double>(up1[i]));
  }
  return 0.5 * mass_inner(space, ncomp, v, v) +
         0.5 * mass_inner(space, ncomp, up1, ku) / (dt * dt);
}

void expect_energy_conserved(const std::string& integrator) {
  // Sourceless layered medium: two-level census from the material contrast,
  // energy injected once through the initial bump and then — if the scheme is
  // conservative — held forever.
  auto spec = scenarios::get("layered");
  spec.sources.clear();
  spec.receivers.clear();
  spec.integrator = integrator;
  auto sim = spec.make_simulation();
  ASSERT_GE(sim->levels().num_levels, 2) << "scenario must exercise real LTS";

  constexpr int kCycles = 40;
  std::vector<std::vector<real_t>> snaps;
  snaps.push_back(sim->u());
  for (int c = 0; c < kCycles; ++c) {
    sim->run(sim->dt());
    snaps.push_back(sim->u());
  }

  const double dt = static_cast<double>(sim->dt());
  std::vector<double> energy;
  for (std::size_t n = 1; n + 1 < snaps.size(); ++n)
    energy.push_back(
        cycle_energy(sim->space(), sim->ncomp(), dt, snaps[n - 1], snaps[n], snaps[n + 1]));
  ASSERT_GT(energy.front(), 0) << "vacuous scenario — no energy in the field";

  double max_drift = 0;
  for (const double e : energy) max_drift = std::max(max_drift, std::abs(e - energy.front()));
  // Roundoff bar: the potential term divides an O(eps * ||u||_M^2) cancellation
  // error by dt^2, so "to roundoff" here means ~1e9 ulps, not 1e0 — still ten
  // orders below any physical drift a lossy scheme would show.
  EXPECT_LT(max_drift / energy.front(), 1e-6) << integrator;
}

TEST(IntegratorEnergy, NewmarkConservesTheCycleEnergy) { expect_energy_conserved("newmark"); }

TEST(IntegratorEnergy, LeapfrogStabConservesTheCycleEnergy) {
  expect_energy_conserved("leapfrog-stab");
}

// ---------------------------------------------------------------------------
// Observed convergence order on a dt sweep
// ---------------------------------------------------------------------------

/// Final state of the sourceless strip after a fixed physical time, with the
/// step refined by `halvings` courant halvings (same mesh, same dofs).
std::vector<real_t> strip_final_state(const std::string& integrator, int halvings,
                                      real_t base_courant, real_t duration) {
  auto spec = scenarios::get("strip");
  spec.receivers.clear();
  spec.integrator = integrator;
  spec.courant = base_courant / static_cast<real_t>(1 << halvings);
  auto sim = spec.make_simulation();
  sim->run(duration);
  return sim->u();
}

double rel_l2(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return std::sqrt(num / den);
}

void expect_second_order(const std::string& integrator) {
  auto spec = scenarios::get("strip");
  const real_t base_courant = spec.courant;
  // Physical span divisible by every step in the sweep: dt scales linearly
  // with courant on a fixed mesh, so T = 32 * dt(base) is hit exactly by all.
  // 32 coarse cycles accumulate enough phase error to leave the preasymptotic
  // regime (an 8-cycle span shows apparent orders well above 3).
  const auto probe = [&](real_t courant) {
    auto s = spec;
    s.courant = courant;
    return s.coarse_dt(s.build_mesh());
  };
  const real_t dt0 = probe(base_courant);
  ASSERT_NEAR(static_cast<double>(probe(base_courant / 2) / dt0), 0.5, 1e-12)
      << "dt must scale exactly with courant for a clean sweep";
  const real_t duration = 32 * dt0;

  const auto ref = strip_final_state(integrator, 5, base_courant, duration); // dt/32
  const auto e1 = rel_l2(strip_final_state(integrator, 1, base_courant, duration), ref);
  const auto e2 = rel_l2(strip_final_state(integrator, 2, base_courant, duration), ref);
  const double order = std::log2(e1 / e2);
  // Design order 2; the dt/32 reference biases the estimate by ~(1/8)^2.
  EXPECT_GT(order, 1.55) << integrator << " e(dt/2)=" << e1 << " e(dt/4)=" << e2;
  EXPECT_LT(order, 2.45) << integrator << " e(dt/2)=" << e1 << " e(dt/4)=" << e2;
}

TEST(IntegratorConvergence, NewmarkIsSecondOrderInDt) { expect_second_order("newmark"); }

TEST(IntegratorConvergence, LeapfrogStabIsSecondOrderInDt) {
  expect_second_order("leapfrog-stab");
}

} // namespace
} // namespace ltswave::core
