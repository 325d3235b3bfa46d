/// \file ltsbench.cpp
/// The layered LTS benchmark program (see README.md next to this file).
///
///   ltsbench reference --workload W --seed N --out FILE
///       Runs W's spec once, untimed, on the *other* executor family
///       (serial-lts <-> threaded) and writes the final state plus the
///       initial energy 1/2 u0^T K u0: the correctness gate's reference.
///   ltsbench measure --workload W --seed N --seconds T --reference FILE
///       End-to-end metrics, tracing off: repeated make_simulation + run()
///       with an on_step timestamp per coarse cycle, every repetition gated;
///       the cycle quantiles are taken over the per-cycle medians across
///       repetitions (cycle_profile).
///   ltsbench trace --workload W --seed N --reference FILE --trace-out FILE
///       Per-layer metrics: environment ceilings, the same simulation rebuilt
///       step by step through each layer's public calls with a span around
///       every call, the run report's counters, a kernel probe, and the
///       10x-Courant negative control of the gate.
///
/// measure and trace print human-readable context lines and, as their last
/// stdout line, one JSON object {"correct", "attempted", "failed", "metrics"}.
/// Nothing inside src/ is instrumented: all spans wrap public calls.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/energy.hpp"
#include "core/executor.hpp"
#include "core/lts_levels.hpp"
#include "core/simulation.hpp"
#include "partition/partitioners.hpp"
#include "perf/roofline.hpp"
#include "resilience/health_guard.hpp"
#include "scenarios/scenario.hpp"

namespace {

using namespace ltswave;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Constants of the benchmark (documented in README.md)
// ---------------------------------------------------------------------------

/// Coarse LTS cycles per run: at least 100 so the p90 of one run has ten
/// samples beyond it.
constexpr real_t kCycles = 100;
/// The conformance grid's cross-family tolerance.
constexpr double kRelL2Tol = 1e-10;
/// Final kinetic energy may exceed the initial energy 1/2 u0^T K u0 by at
/// most this share on source-free workloads (the staggered scheme conserves a
/// modified energy whose kinetic part never exceeds the total).
constexpr double kEnergyTol = 1e-2;
/// Setups per measure run at least (setup_s is their median).
constexpr int kMinReps = 4;
/// Untraced/traced setup pairs per traced run, at least (setup figures are
/// medians): kSetupPairs and until kSetupSeconds have passed.
constexpr int kSetupPairs = 3;
constexpr double kSetupSeconds = 3;
/// Kernel probe: warm-up and minimum timed repeats of the full-plan apply.
constexpr int kKernelWarmup = 2;
constexpr int kKernelMinReps = 10;
constexpr double kKernelMinSeconds = 0.5;
/// Courant multiplier and length of the gate's negative control (the
/// blow-up is non-finite within a few cycles).
constexpr real_t kControlCourantFactor = 10;
constexpr real_t kControlCycles = 20;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](timeval t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Linear-interpolation quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The typical cycle-time profile of a run: entry i is the median, over the
/// repetitions, of the wall time of coarse cycle i. A time-shared host
/// preempts random cycles of random repetitions; the median across
/// repetitions drops those, while a cycle that is slow in every repetition
/// (warm-up, a costlier step of the LTS schedule) stays in the profile.
std::vector<double> cycle_profile(const std::vector<std::vector<double>>& per_rep) {
  if (per_rep.empty()) return {};
  std::size_t n = per_rep.front().size();
  for (const auto& r : per_rep) n = std::min(n, r.size());
  std::vector<double> profile(n), column(per_rep.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < per_rep.size(); ++r) column[r] = per_rep[r][i];
    profile[i] = median(column);
  }
  return profile;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  scenarios::ScenarioSpec spec;      ///< what a user runs (seed-jittered)
  scenarios::ScenarioSpec reference; ///< the same spec on the other executor family
  bool source_free = false;
};

constexpr const char* kSerial = "serial-lts";
constexpr const char* kThreaded = "threaded/level-aware+steal";

void use_executor(scenarios::ScenarioSpec& s, bool threaded) {
  s.executor = threaded ? kThreaded : kSerial;
  s.num_ranks = threaded ? 2 : 0;
}

/// The seed jitters only the source position (trench) or the pulse centre
/// (embedding) by up to 0.02 per axis: mesh, level census and work counts do
/// not depend on it.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  const auto jitter = [&rng] { return static_cast<real_t>(rng.uniform_real(-0.02, 0.02)); };
  Workload w;
  w.name = name;
  bool threaded = false;
  if (name == "trench-elastic" || name == "trench-steal-r2") {
    w.spec = scenarios::get("trench-paper").with_mesh_resolution(16, 8);
    for (auto& s : w.spec.sources) {
      s.location[0] += jitter();
      s.location[1] += jitter();
    }
    threaded = name == "trench-steal-r2";
  } else if (name == "embedding-deep") {
    w.spec = scenarios::get("embedding-paper").with_mesh_resolution(32);
    for (auto& b : w.spec.initial)
      for (auto& c : b.center) c += jitter();
  } else {
    LTS_CHECK_MSG(false, "unknown workload '"
                             << name << "' (want trench-elastic | embedding-deep | trench-steal-r2)");
  }
  w.source_free = w.spec.sources.empty();
  w.spec.with_cycles(kCycles);
  use_executor(w.spec, threaded);
  w.reference = w.spec;
  use_executor(w.reference, !threaded);
  return w;
}

/// The gate's negative control: the same workload at 10x its Courant number
/// over kControlCycles cycles, with the library's own health guard off so
/// that the benchmark's gate is the check that has to catch the blow-up.
Workload negative_control(Workload w) {
  for (auto* s : {&w.spec, &w.reference}) {
    s->courant *= kControlCourantFactor;
    s->duration_cycles = kControlCycles;
    s->health_every = -1;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

struct Reference {
  std::vector<real_t> u;
  double initial_energy = 0; ///< 1/2 u0^T K u0
};

void write_reference(const Reference& ref, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  LTS_CHECK_MSG(f, "cannot write reference file " << path);
  const std::uint64_t n = ref.u.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  f.write(reinterpret_cast<const char*>(&ref.initial_energy), sizeof ref.initial_energy);
  f.write(reinterpret_cast<const char*>(ref.u.data()),
          static_cast<std::streamsize>(n * sizeof(real_t)));
  LTS_CHECK_MSG(f, "short write to reference file " << path);
}

Reference read_reference(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  LTS_CHECK_MSG(f, "cannot read reference file " << path);
  std::uint64_t n = 0;
  Reference ref;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  f.read(reinterpret_cast<char*>(&ref.initial_energy), sizeof ref.initial_energy);
  LTS_CHECK_MSG(f && n < (std::uint64_t{1} << 32), "corrupt reference file " << path);
  ref.u.resize(n);
  f.read(reinterpret_cast<char*>(ref.u.data()), static_cast<std::streamsize>(n * sizeof(real_t)));
  LTS_CHECK_MSG(f, "truncated reference file " << path);
  return ref;
}

Reference compute_reference(const scenarios::ScenarioSpec& spec) {
  auto sim = spec.make_simulation();
  Reference ref;
  const auto& u0 = sim->u();
  ref.initial_energy = static_cast<double>(core::cross_potential_energy(sim->op(), u0, u0));
  sim->run(scenarios::run_duration(spec, *sim));
  ref.u = sim->u();
  return ref;
}

struct GateResult {
  bool finite = true;
  double rel_l2 = 0;
  double energy_ratio = 0; ///< final kinetic / initial energy; 0 when sources drive the run
  std::string failure;     ///< empty = passed

  [[nodiscard]] bool passed() const { return failure.empty(); }
};

GateResult gate(const core::Executor& exec, const sem::SemSpace& space, const Reference& ref,
                bool source_free) {
  GateResult g;
  const auto& u = exec.state();
  const auto v = exec.v_half();
  g.finite = std::all_of(u.begin(), u.end(), [](real_t x) { return std::isfinite(x); }) &&
             std::all_of(v.begin(), v.end(), [](real_t x) { return std::isfinite(x); });
  if (u.size() != ref.u.size()) {
    g.failure = "state size differs from the reference";
    return g;
  }
  double diff = 0, norm = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double d = static_cast<double>(u[i]) - static_cast<double>(ref.u[i]);
    diff += d * d;
    norm += static_cast<double>(ref.u[i]) * static_cast<double>(ref.u[i]);
  }
  g.rel_l2 = norm > 0 ? std::sqrt(diff / norm) : INFINITY;
  if (source_free) {
    const int nc = static_cast<int>(u.size() / static_cast<std::size_t>(space.num_global_nodes()));
    g.energy_ratio = static_cast<double>(core::kinetic_energy(space, v, nc)) / ref.initial_energy;
  }
  std::ostringstream why;
  if (!g.finite)
    why << "non-finite final state";
  else if (!(g.rel_l2 <= kRelL2Tol))
    why << "relative L2 " << g.rel_l2 << " vs the other executor family exceeds " << kRelL2Tol;
  else if (source_free && !(g.energy_ratio <= 1 + kEnergyTol))
    why << "final kinetic energy is " << g.energy_ratio << "x the initial energy";
  g.failure = why.str();
  return g;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result line. JSON has no NaN/Inf: a non-finite metric is
/// written as -1 and makes the run incorrect.
void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const bool finite = std::isfinite(metrics[i].value);
    if (!finite) std::cout << "metric " << metrics[i].name << " is not finite\n";
    correct = correct && finite;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << (finite ? metrics[i].value : -1.0) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {" << os.str() << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Mode: measure (end-to-end, tracing off)
// ---------------------------------------------------------------------------

int measure(const Workload& w, double budget_seconds, const Reference& ref) {
  std::vector<double> setup, run, total, cpu;
  std::vector<std::vector<double>> cycle_ms_per_rep;
  std::int64_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  while (attempted < kMinReps || seconds_since(start, Clock::now()) < budget_seconds) {
    ++attempted;
    try {
      const auto t0 = Clock::now();
      auto sim = w.spec.make_simulation();
      const auto t1 = Clock::now();
      const real_t duration = scenarios::run_duration(w.spec, *sim);
      std::vector<Clock::time_point> stamps;
      stamps.reserve(static_cast<std::size_t>(kCycles) + 1);
      const double cpu0 = cpu_seconds();
      stamps.push_back(Clock::now());
      sim->run(duration, [&stamps](real_t) { stamps.push_back(Clock::now()); });
      const auto t2 = Clock::now();
      const double cpu1 = cpu_seconds();
      const GateResult g = gate(sim->executor(), sim->space(), ref, w.source_free);
      if (!g.passed()) {
        ++failed;
        std::cout << "rep " << attempted << ": FAILED gate: " << g.failure << "\n";
        continue;
      }
      setup.push_back(seconds_since(t0, t1));
      run.push_back(seconds_since(t1, t2));
      total.push_back(seconds_since(t0, t2));
      cpu.push_back(cpu1 - cpu0);
      std::vector<double> cycle_ms;
      for (std::size_t i = 1; i < stamps.size(); ++i)
        cycle_ms.push_back(1e3 * seconds_since(stamps[i - 1], stamps[i]));
      std::cout << "rep " << attempted << ": setup " << setup.back() << " s, run " << run.back()
                << " s, cpu " << cpu.back() << " s, cycles " << cycle_ms.size() << ", cycle p50 "
                << quantile(cycle_ms, 0.5) << " ms, p90 " << quantile(cycle_ms, 0.9)
                << " ms, rel_l2 " << g.rel_l2 << "\n";
      cycle_ms_per_rep.push_back(std::move(cycle_ms));
    } catch (const std::exception& e) {
      ++failed;
      std::cout << "rep " << attempted << ": FAILED with exception: " << e.what() << "\n";
    }
  }
  const std::vector<double> profile = cycle_profile(cycle_ms_per_rep);
  std::cout << "workload " << w.name << ": " << attempted << " reps, " << failed << " failed; "
            << profile.size() << " cycles per rep (cycle p50/p90 over the per-cycle medians "
            << "across " << cycle_ms_per_rep.size() << " reps)\n";
  const double pass_frac = static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  print_result(failed == 0, attempted, failed,
               {{"setup_s", median(setup), "s"},
                {"run_s", median(run), "s"},
                {"total_s", median(total), "s"},
                {"cycle_ms_p50", quantile(profile, 0.5), "ms"},
                {"cycle_ms_p90", quantile(profile, 0.9), "ms"},
                {"run_cpu_s", median(cpu), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MiB"},
                {"pass_frac", pass_frac, "frac"}});
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end
// ---------------------------------------------------------------------------

class Tracer {
public:
  struct Span {
    std::string name;
    double start = 0, end = 0; ///< seconds since the tracer's origin
    int parent = -1;
  };

  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  /// Runs f inside a span; returns f's result.
  template <class F>
  auto span(std::string name, int parent, F&& f) {
    const int id = open(std::move(name), parent);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(id);
    } else {
      auto result = f();
      close(id);
      return result;
    }
  }

  [[nodiscard]] double duration(int id) const {
    const auto& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  /// Median duration of the spans called `name` (0 when there is none).
  [[nodiscard]] double median_of(const std::string& name) const {
    std::vector<double> d;
    for (const auto& s : spans_)
      if (s.name == name) d.push_back(s.end - s.start);
    return median(std::move(d));
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    LTS_CHECK_MSG(f, "cannot write trace file " << path);
    f.precision(9);
    f << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i)
      f << "  {\"id\": " << i << ", \"name\": \"" << spans_[i].name << "\", \"start_s\": "
        << spans_[i].start << ", \"end_s\": " << spans_[i].end << ", \"parent\": "
        << spans_[i].parent << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    f << "]\n";
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

private:
  [[nodiscard]] double now() const { return seconds_since(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Environment ceilings, measured in the same run
// ---------------------------------------------------------------------------

struct Environment {
  int nproc = 1;
  double effective_cores = 0;
  double fma_gflops = 0;
  double triad_gbs = 0;
  double llc_mb = 0;
  double triad_footprint_mb = 0;
};

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Largest cache reported under cpu0's sysfs cache directory, in bytes.
double llc_bytes() {
  double best = 0;
  for (int i = 0; i < 16; ++i) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    double v = std::atof(s.c_str());
    if (s.back() == 'K') v *= 1024;
    if (s.back() == 'M') v *= 1024 * 1024;
    best = std::max(best, v);
  }
  return best > 0 ? best : 32.0 * 1024 * 1024;
}

std::uint64_t spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// nproc parallel copies of a spin loop against one copy: how many cores the
/// process really gets right now.
double effective_cores(int nproc) {
  constexpr std::uint64_t kIters = 40'000'000;
  std::atomic<std::uint64_t> sink{0};
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    auto t0 = Clock::now();
    sink += spin(kIters, static_cast<std::uint64_t>(trial) + 1);
    const double one = seconds_since(t0, Clock::now());
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < nproc; ++t)
      threads.emplace_back([&sink, t] { sink += spin(kIters, static_cast<std::uint64_t>(t) + 7); });
    for (auto& th : threads) th.join();
    const double all = seconds_since(t0, Clock::now());
    ratios.push_back(static_cast<double>(nproc) * one / all);
  }
  return median(ratios);
}

volatile real_t fma_sink = 0;

/// Single-thread FMA throughput on the kernels' own simd::RealVec: kAcc
/// independent accumulator chains (unrolled at compile time so they stay in
/// registers) hide the FMA latency. Best of five.
double fma_gflops() {
  constexpr std::size_t kAcc = 12;
  constexpr std::int64_t kIters = 50'000'000;
  using V = simd::RealVec;
  volatile real_t a_in = 0.999999, b_in = 1e-7;
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const V a = V::broadcast(a_in), b = V::broadcast(b_in);
    std::array<V, kAcc> acc;
    for (std::size_t k = 0; k < kAcc; ++k) acc[k] = V::broadcast(static_cast<real_t>(k));
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < kIters; ++i)
      [&]<std::size_t... K>(std::index_sequence<K...>) {
        ((acc[K] = fma(acc[K], a, b)), ...);
      }(std::make_index_sequence<kAcc>{});
    const double s = seconds_since(t0, Clock::now());
    real_t out[simd::kWidth];
    real_t sum = 0;
    for (const V& v : acc) {
      v.store(out);
      for (real_t x : out) sum += x;
    }
    fma_sink = sum;
    best = std::max(best, 2.0 * simd::kWidth * kAcc * static_cast<double>(kIters) / s / 1e9);
  }
  return best;
}

/// Single-thread STREAM triad a = b + s*c over three arrays that together
/// span 4x the last-level cache (each 4/3 of it, so none stays cached).
/// Bytes counted as 3 x 8 per element (no write-allocate). Best of five.
void triad(Environment& env) {
  const double llc = llc_bytes();
  const auto n = static_cast<std::size_t>(std::ceil(4.0 * llc / (3.0 * sizeof(double))));
  env.llc_mb = llc / (1024.0 * 1024.0);
  env.triad_footprint_mb = 3.0 * static_cast<double>(n) * sizeof(double) / (1024.0 * 1024.0);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  volatile double s_in = 0.5;
  const double s = s_in;
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double t = seconds_since(t0, Clock::now());
    best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) / t / 1e9);
  }
  if (a[n / 2] != 2.0) std::cout << "triad produced a wrong value\n";
  env.triad_gbs = best;
}

Environment probe_environment(Tracer& tr) {
  Environment env;
  const int root = tr.open("env");
  env.nproc = affinity_cpus();
  env.effective_cores =
      tr.span("env.effective_cores", root, [&] { return effective_cores(env.nproc); });
  env.fma_gflops = tr.span("env.fma", root, [] { return fma_gflops(); });
  tr.span("env.triad", root, [&] { triad(env); });
  tr.close(root);
  return env;
}

// ---------------------------------------------------------------------------
// Mode: trace (per-layer)
// ---------------------------------------------------------------------------

/// The simulation make_simulation() builds, rebuilt step by step through each
/// layer's public functions (same order as the WaveSimulation constructor and
/// ScenarioSpec::make_simulation) so every step gets its own span.
struct TracedSim {
  core::SimulationConfig cfg;
  mesh::HexMesh mesh;
  std::unique_ptr<sem::SemSpace> space;
  std::unique_ptr<sem::WaveOperator> op;
  core::LevelAssignment levels;
  core::LtsStructure structure;
  std::unique_ptr<core::Executor> exec;
  std::unique_ptr<resilience::HealthGuard> guard;
  std::vector<sem::Receiver> receivers;
};

std::unique_ptr<TracedSim> traced_setup(const scenarios::ScenarioSpec& spec, Tracer& tr,
                                        int parent) {
  auto s = std::make_unique<TracedSim>();
  s->cfg = spec.config();
  auto& factory = core::ExecutorFactory::instance();
  const std::string exec_name = core::resolve_executor_name(s->cfg);
  s->mesh = tr.span("mesh.build", parent, [&] { return spec.build_mesh(); });
  s->space = tr.span("sem.space", parent,
                     [&] { return std::make_unique<sem::SemSpace>(s->mesh, s->cfg.order); });
  s->op = tr.span("sem.operator", parent, [&]() -> std::unique_ptr<sem::WaveOperator> {
    if (s->cfg.physics == core::Physics::Acoustic)
      return std::make_unique<sem::AcousticOperator>(*s->space);
    return std::make_unique<sem::ElasticOperator>(*s->space);
  });
  s->levels = tr.span("core.levels", parent, [&] {
    return factory.uses_lts_levels(exec_name)
               ? core::assign_levels(s->mesh, s->cfg.courant, s->cfg.max_levels)
               : core::assign_single_level(s->mesh, s->cfg.courant);
  });
  s->structure = tr.span("core.structure", parent,
                         [&] { return core::build_lts_structure(*s->space, s->levels); });
  const core::ExecutorContext ctx{s->op.get(), &s->levels, &s->structure,
                                  &s->mesh,    s->space.get(), &s->cfg};
  s->exec = tr.span("core.executor_build", parent, [&] { return factory.create(exec_name, ctx); });
  tr.span("core.set_state", parent, [&] {
    if (s->cfg.health_every >= 0) s->guard = std::make_unique<resilience::HealthGuard>(*s->space);
    for (const auto& src : spec.sources)
      s->exec->add_source(sem::PointSource::at(*s->space, src.location, src.peak_frequency,
                                               src.direction, src.amplitude));
    for (const auto& r : spec.receivers) {
      sem::Receiver rec(*s->space, r.location, r.component);
      s->exec->add_receiver(rec.node(), r.component);
      s->receivers.push_back(std::move(rec));
    }
    const auto nc = static_cast<std::size_t>(s->op->ncomp());
    std::vector<real_t> u0(static_cast<std::size_t>(s->space->num_global_nodes()) * nc, 0.0);
    for (const auto& b : spec.initial)
      for (gindex_t g = 0; g < s->space->num_global_nodes(); ++g) {
        const auto x = s->space->node_coord(g);
        real_t r2 = 0;
        for (std::size_t d = 0; d < 3; ++d) {
          const real_t dx = x[d] - b.center[d];
          r2 += b.axis_mask[d] * dx * dx;
        }
        u0[static_cast<std::size_t>(g) * nc + static_cast<std::size_t>(b.component)] +=
            b.amplitude * std::exp(-b.width * r2);
      }
    s->exec->set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  });
  return s;
}

/// The spans of traced_setup, in order; their medians sum to the traced setup.
const char* const kSetupSteps[] = {"mesh.build",     "sem.space",           "sem.operator",
                                   "core.levels",    "core.structure",      "core.executor_build",
                                   "core.set_state"};

struct Counts {
  std::int64_t element_applies = 0, blocks_applied = 0, cycles = 0;
  bool operator==(const Counts&) const = default;
};

int trace(const Workload& w, const Reference& ref, const std::string& trace_out) {
  Tracer tr;
  const Environment env = probe_environment(tr);

  // Setup pairs: an untraced make_simulation() and the traced step-by-step
  // rebuild, alternated (see kSetupPairs) after one discarded warm-up setup
  // (which warms the allocator the way measure's later repetitions are), so
  // setup figures are medians. The last pair's simulations are the ones run:
  // the untraced facade run exactly as `measure` drives it (the overhead
  // baseline and the first of two count samples), then the traced run. Only
  // one simulation is alive at a time.
  tr.span("warmup.setup", -1, [&] { return w.spec.make_simulation(); });
  const int root = tr.open("workload");
  std::vector<double> plain_setups, traced_setups;
  double plain_run = 0;
  Counts plain_counts;
  GateResult plain_gate;
  std::unique_ptr<TracedSim> sim;
  const auto pairs_start = Clock::now();
  for (int k = 1;; ++k) {
    const bool last =
        k >= kSetupPairs && seconds_since(pairs_start, Clock::now()) >= kSetupSeconds;
    sim.reset();
    const auto t0 = Clock::now();
    auto plain = w.spec.make_simulation();
    const auto t1 = Clock::now();
    plain_setups.push_back(seconds_since(t0, t1));
    if (last) {
      plain->run(scenarios::run_duration(w.spec, *plain), [](real_t) {});
      plain_run = seconds_since(t1, Clock::now());
      plain_counts = {plain->element_applies(), plain->blocks_applied(), plain->cycles()};
      plain_gate = gate(plain->executor(), plain->space(), ref, w.source_free);
    }
    plain.reset();
    const int setup = tr.open("setup", root);
    sim = traced_setup(w.spec, tr, setup);
    tr.close(setup);
    traced_setups.push_back(tr.duration(setup));
    if (last) break;
  }
  const int run = tr.open("run", root);
  const auto cycles = static_cast<std::int64_t>(kCycles);
  for (std::int64_t c = 0; c < cycles; ++c)
    tr.span("cycle", run, [&] {
      sim->exec->advance_cycles(1);
      sim->exec->drain_receivers(sim->receivers);
    });
  if (sim->guard) sim->guard->check(*sim->exec);
  tr.close(run);
  tr.close(root);
  const double plain_setup = median(plain_setups);
  const double plain_total = plain_setup + plain_run;
  const double traced_total = median(traced_setups) + tr.duration(run);
  const Counts traced_counts{sim->exec->element_applies(), sim->exec->blocks_applied(),
                             sim->exec->cycles()};
  const GateResult traced_gate = gate(*sim->exec, *sim->space, ref, w.source_free);
  const perf::RunReport rep = sim->exec->run_report();
  const std::string finest_eval = "eval.L" + std::to_string(sim->levels.num_levels);
  const int block_width = rep.roofline ? rep.roofline->block_width : 0; // the executor's plan

  // Standalone partition of the same mesh with the run's config (the
  // executor build above already contains one; this span isolates it).
  if (sim->cfg.num_ranks > 1)
    tr.span("partition.build", root, [&] {
      partition::PartitionerConfig pc;
      pc.strategy = sim->cfg.partitioner;
      pc.num_parts = sim->cfg.num_ranks;
      return partition::partition_mesh(sim->mesh, sim->levels.elem_level,
                                       sim->levels.num_levels, pc);
    });

  // Kernel probe: the full-plan block apply on the run's final state.
  const int probe = tr.open("sem.kernel_probe");
  const int plan_span = tr.open("sem.full_plan", probe);
  const sem::BatchPlan& plan = sim->op->full_plan();
  tr.close(plan_span);
  const perf::RooflineStat roof = perf::roofline_for_plan(plan);
  auto ws = sim->op->make_workspace();
  const std::vector<real_t> u = sim->exec->state();
  std::vector<real_t> out(u.size(), 0.0);
  std::vector<double> apply_s;
  const auto probe_start = Clock::now();
  for (int r = 0; r < kKernelWarmup + kKernelMinReps ||
                  seconds_since(probe_start, Clock::now()) < kKernelMinSeconds;
       ++r) {
    const int id = tr.open("sem.apply_add_blocks", probe);
    sim->op->apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
    tr.close(id);
    if (r >= kKernelWarmup) apply_s.push_back(tr.duration(id));
  }
  tr.close(probe);
  const double kernel_s = median(apply_s);
  sim.reset();

  // The gate's negative control: must be counted as failed.
  const Workload control = negative_control(w);
  const int ctl = tr.open("check.negative_control");
  bool control_failed = false;
  std::string control_why;
  try {
    const Reference cref = compute_reference(control.reference);
    auto csim = control.spec.make_simulation();
    csim->run(scenarios::run_duration(control.spec, *csim));
    const GateResult cg = gate(csim->executor(), csim->space(), cref, control.source_free);
    control_failed = !cg.passed();
    control_why = cg.failure;
  } catch (const std::exception& e) {
    control_failed = true;
    control_why = std::string("exception: ") + e.what();
  }
  tr.close(ctl);
  tr.write(trace_out);

  // --- per-layer metrics ----------------------------------------------------
  const bool ranked = !rep.rank_busy_seconds.empty();
  const auto sum = [](const auto& v) { return std::accumulate(v.begin(), v.end(), 0.0); };
  const double busy = sum(rep.rank_busy_seconds), stall = sum(rep.rank_stall_seconds);
  const double busy_max =
      ranked ? *std::max_element(rep.rank_busy_seconds.begin(), rep.rank_busy_seconds.end()) : 0;
  double eval = 0;
  for (const auto& p : rep.phases)
    if (p.name.rfind("eval.L", 0) == 0) eval += p.seconds;
  double setup_spans = 0;
  for (const char* step : kSetupSteps) setup_spans += tr.median_of(step);
  const double kernel_gflops = roof.flops_total / kernel_s / 1e9;
  const double kernel_gbs = roof.bytes_total / kernel_s / 1e9;
  const bool counts_repeat = plain_counts == traced_counts;

  std::cout << "workload " << w.name << ": executor " << rep.executor << ", simd " << rep.simd_isa
            << " x" << rep.simd_width << ", nproc " << env.nproc << ", effective cores "
            << env.effective_cores << "\n"
            << "triad: " << env.triad_footprint_mb << " MiB over three arrays against a "
            << env.llc_mb << " MiB last-level cache\n"
            << "kernel probe: " << apply_s.size() << " timed full-plan applies of "
            << roof.elements << " elements (bytes are computed from the plan, not measured)\n"
            << "gate: untraced rel_l2 " << plain_gate.rel_l2 << ", traced rel_l2 "
            << traced_gate.rel_l2
            << ", energy ratio " << traced_gate.energy_ratio << "\n"
            << "negative control (courant x" << kControlCourantFactor << "): "
            << (control_failed ? "counted as failed: " + control_why
                               : std::string("PASSED (the gate is dead)"))
            << "\n"
            << "spans: " << tr.size() << " written to " << trace_out << "\n";

  const bool correct =
      plain_gate.passed() && traced_gate.passed() && control_failed && counts_repeat;
  const auto cyc = static_cast<double>(std::max<std::int64_t>(traced_counts.cycles, 1));
  print_result(correct, 2, (plain_gate.passed() ? 0 : 1) + (traced_gate.passed() ? 0 : 1),
               {{"mesh.build_s", tr.median_of("mesh.build"), "s"},
                {"sem.space_s", tr.median_of("sem.space"), "s"},
                {"sem.operator_s", tr.median_of("sem.operator"), "s"},
                {"core.levels_s", tr.median_of("core.levels"), "s"},
                {"core.structure_s", tr.median_of("core.structure"), "s"},
                {"core.executor_build_s", tr.median_of("core.executor_build"), "s"},
                {"core.set_state_s", tr.median_of("core.set_state"), "s"},
                {"partition.build_s", tr.median_of("partition.build"), "s"},
                {"sem.kernel_ms", 1e3 * kernel_s, "ms"},
                {"sem.kernel_melem_per_s", static_cast<double>(roof.elements) / kernel_s / 1e6,
                 "Melem/s"},
                {"sem.kernel_gflops", kernel_gflops, "GFLOP/s"},
                {"sem.kernel_gbs", kernel_gbs, "GB/s"},
                {"sem.kernel_bw_frac", kernel_gbs / env.triad_gbs, "frac"},
                {"sem.kernel_flop_frac", kernel_gflops / env.fma_gflops, "frac"},
                {"sem.lane_occupancy",
                 static_cast<double>(rep.element_applies) /
                     (static_cast<double>(rep.blocks_applied) * block_width),
                 "frac"},
                {"core.eval_s", eval, "s"},
                {"core.eval_finest_s", rep.phase_seconds(finest_eval), "s"},
                {"core.reduce_s", rep.phase_seconds("reduce"), "s"},
                {"core.update_s", rep.phase_seconds("update"), "s"},
                {"core.sources_s", rep.phase_seconds("sources") + rep.phase_seconds("receivers"),
                 "s"},
                {"core.element_applies", static_cast<double>(traced_counts.element_applies),
                 "count"},
                {"core.blocks_applied", static_cast<double>(traced_counts.blocks_applied), "count"},
                {"core.applies_per_cycle",
                 static_cast<double>(traced_counts.element_applies) / cyc, "count"},
                {"core.cycles_per_run", static_cast<double>(traced_counts.cycles), "count"},
                {"runtime.busy_s", busy, "s"},
                {"runtime.stall_s", stall, "s"},
                {"runtime.stall_frac", ranked ? stall / (busy + stall) : 0.0, "frac"},
                {"runtime.barrier_s", rep.phase_seconds("barrier"), "s"},
                {"runtime.steals", sum(rep.rank_steal_counts), "count"},
                {"partition.busy_imbalance",
                 ranked ? busy_max * static_cast<double>(rep.rank_busy_seconds.size()) / busy : 0.0,
                 "ratio"},
                {"env.triad_gbs", env.triad_gbs, "GB/s"},
                {"env.triad_footprint_mb", env.triad_footprint_mb, "MiB"},
                {"env.llc_mb", env.llc_mb, "MiB"},
                {"env.fma_gflops", env.fma_gflops, "GFLOP/s"},
                {"env.effective_cores", env.effective_cores, "cores"},
                {"env.nproc", static_cast<double>(env.nproc), "count"},
                {"env.simd_width", static_cast<double>(simd::kWidth), "lanes"},
                {"check.rel_l2_vs_ref", traced_gate.rel_l2, "1"},
                {"check.energy_ratio", traced_gate.energy_ratio, "1"},
                {"check.counts_repeat", counts_repeat ? 1.0 : 0.0, "bool"},
                {"check.negative_control_failed", control_failed ? 1.0 : 0.0, "bool"},
                {"trace.overhead_frac", (traced_total - plain_total) / plain_total, "frac"},
                {"trace.setup_gap_frac", (setup_spans - plain_setup) / plain_setup, "frac"}});
  return 0;
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

struct Args {
  std::string mode, workload, reference, out, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
};

Args parse_args(int argc, char** argv) {
  LTS_CHECK_MSG(argc >= 2, "usage: ltsbench reference|measure|trace --workload W --seed N "
                           "[--seconds T] [--reference FILE] [--out FILE] [--trace-out FILE]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--reference") a.reference = v;
    else if (k == "--out") a.out = v;
    else if (k == "--trace-out") a.trace_out = v;
    else LTS_CHECK_MSG(false, "unknown argument '" << k << "'");
  }
  return a;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload w = make_workload(a.workload, a.seed);
    if (a.mode == "reference") {
      write_reference(compute_reference(w.reference), a.out);
      return 0;
    }
    if (a.mode == "measure") return measure(w, a.seconds, read_reference(a.reference));
    if (a.mode == "trace") return trace(w, read_reference(a.reference), a.trace_out);
    LTS_CHECK_MSG(false, "unknown mode '" << a.mode << "' (want reference | measure | trace)");
  } catch (const std::exception& e) {
    std::cerr << "ltsbench: " << e.what() << "\n";
  }
  return 1;
}
