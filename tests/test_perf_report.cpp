// Tests for the performance observability layer (src/perf): JSON round-trip
// of perf::RunReport, phase-time monotonicity over successive advances,
// counter agreement between Executor::run_report() and Executor::counters()
// across every registered backend, the static roofline model against
// hand-computed numbers, and doc-sync checks pinning docs/ to the live CLI
// key help strings and registries and parsing every documented example
// command.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/executor.hpp"
#include "mesh/generators.hpp"
#include "perf/roofline.hpp"
#include "perf/run_report.hpp"
#include "runtime/threaded_lts.hpp"
#include "scenarios/scenario.hpp"
#include "sem/wave_operator.hpp"

namespace ltswave {
namespace {

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

perf::RunReport make_fixture_report() {
  perf::RunReport r;
  r.executor = "threaded/level-aware+steal";
  r.scenario = "trench \"quoted\" \\ name\nwith newline";
  r.config = "order=4 physics=acoustic";
  r.cycles = 123;
  r.time = 0.1 + 0.2; // not exactly 0.3 — exercises exact real round-trip
  r.wall_seconds = 1e-9;
  r.element_applies = (std::int64_t{1} << 40) + 7;
  r.blocks_applied = 42;
  // Explicit values (not the compiled-in defaults): the round-trip must carry
  // the ISA of the run that wrote the report, not of the reader.
  r.simd_isa = "avx512";
  r.simd_width = 8;
  r.rank_busy_seconds = {0.5, 1.0 / 3.0, 2.2250738585072014e-308};
  r.rank_stall_seconds = {0.0, 1.7976931348623157e308};
  r.rank_steal_counts = {0, -3, std::numeric_limits<std::int64_t>::max()};
  r.add_phase("eval.L1", 0.25, 10);
  r.add_phase("eval.L2", 1e-7, 20);
  r.add_phase("barrier", 0.125, 40);
  perf::RooflineStat rl;
  rl.physics = "acoustic";
  rl.order = 4;
  rl.block_width = 8;
  rl.elements = 4096;
  rl.flops_per_elem = 9500;
  rl.bytes_per_elem = 4048.5;
  rl.flops_total = 9500.0 * 4096;
  rl.bytes_total = 4048.5 * 4096;
  rl.bytes_per_flop = 4048.5 / 9500;
  rl.arithmetic_intensity = 9500 / 4048.5;
  r.roofline = rl;
  return r;
}

TEST(RunReportJson, RoundTripsExactly) {
  const perf::RunReport r = make_fixture_report();
  const std::string json = perf::to_json(r);
  const perf::RunReport back = perf::run_report_from_json(json);
  EXPECT_EQ(back, r);
}

TEST(RunReportJson, DefaultsCarryCompiledSimd) {
  const perf::RunReport r;
  EXPECT_EQ(r.simd_isa, std::string(simd::isa_name()));
  EXPECT_EQ(r.simd_width, simd::kWidth);
  const std::string json = perf::to_json(r);
  EXPECT_NE(json.find("\"simd_isa\": "), std::string::npos);
  EXPECT_NE(json.find("\"simd_width\": "), std::string::npos);
}

TEST(RunReportJson, RoundTripsWithoutRoofline) {
  perf::RunReport r = make_fixture_report();
  r.roofline.reset();
  EXPECT_EQ(perf::run_report_from_json(perf::to_json(r)), r);
}

TEST(RunReportJson, ArrayRoundTripsAndAcceptsSingleObject) {
  std::vector<perf::RunReport> v;
  v.push_back(make_fixture_report());
  v.push_back(perf::RunReport{}); // all defaults
  EXPECT_EQ(perf::run_reports_from_json(perf::to_json(v)), v);
  // A single object parses as a one-element vector.
  const auto one = perf::run_reports_from_json(perf::to_json(v[0]));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], v[0]);
}

TEST(RunReportJson, MalformedThrows) {
  EXPECT_THROW((void)perf::run_report_from_json("{\"executor\": }"), CheckFailure);
  EXPECT_THROW((void)perf::run_report_from_json(""), CheckFailure);
}

TEST(RunReport, AddPhaseAccumulatesInInsertionOrder) {
  perf::RunReport r;
  r.add_phase("b", 1.0, 2);
  r.add_phase("a", 0.5);
  r.add_phase("b", 2.0, 3);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "b");
  EXPECT_DOUBLE_EQ(r.phases[0].seconds, 3.0);
  EXPECT_EQ(r.phases[0].count, 5);
  EXPECT_EQ(r.phases[1].name, "a");
  EXPECT_DOUBLE_EQ(r.phase_seconds("a"), 0.5);
  EXPECT_EQ(r.phase_seconds("missing"), 0.0);
  EXPECT_EQ(r.find_phase("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// Live reports from the executor backends
// ---------------------------------------------------------------------------

scenarios::ScenarioSpec spec_for(const std::string& executor) {
  auto spec = scenarios::get("strip");
  spec.executor = executor;
  spec.duration_cycles = 2;
  if (executor.rfind("threaded/", 0) == 0) {
    spec.num_ranks = 2;
    spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  }
  return spec;
}

TEST(RunReportLive, PhaseTimesMonotoneOverAdvances) {
  for (const std::string& name : {std::string("serial-lts"), std::string("threaded/level-aware")}) {
    const auto spec = spec_for(name);
    auto sim = spec.make_simulation();
    sim->run(scenarios::run_duration(spec, *sim));
    const perf::RunReport first = sim->run_report();
    sim->run(scenarios::run_duration(spec, *sim));
    const perf::RunReport second = sim->run_report();

    EXPECT_GT(first.cycles, 0) << name;
    EXPECT_GT(second.cycles, first.cycles) << name;
    EXPECT_GT(second.element_applies, first.element_applies) << name;
    ASSERT_FALSE(first.phases.empty()) << name;
    for (const auto& p : first.phases) {
      const perf::PhaseStat* later = second.find_phase(p.name);
      ASSERT_NE(later, nullptr) << name << " lost phase " << p.name;
      EXPECT_GE(later->seconds, p.seconds) << name << " phase " << p.name;
      EXPECT_GE(later->count, p.count) << name << " phase " << p.name;
    }
  }
}

TEST(RunReportLive, CountersMatchAcrossAllBackends) {
  for (const std::string& name : core::ExecutorFactory::instance().names()) {
    const auto spec = spec_for(name);
    auto sim = spec.make_simulation();
    sim->run(scenarios::run_duration(spec, *sim));

    const perf::RunReport r = sim->run_report();
    const core::ExecutorCounters c = sim->executor().counters();

    EXPECT_EQ(r.executor, name);
    EXPECT_EQ(r.rank_busy_seconds, c.busy_seconds) << name;
    EXPECT_EQ(r.rank_stall_seconds, c.stall_seconds) << name;
    EXPECT_EQ(r.rank_steal_counts, c.steal_counts) << name;
    EXPECT_EQ(r.blocks_applied, c.blocks_applied) << name;
    EXPECT_EQ(r.element_applies, sim->element_applies()) << name;
    EXPECT_GT(r.cycles, 0) << name;
    EXPECT_EQ(r.config, core::to_string(spec.config())) << name;

    // Every backend times at least its level-1 kernel phase.
    const perf::PhaseStat* eval = r.find_phase("eval.L1");
    ASSERT_NE(eval, nullptr) << name;
    EXPECT_GT(eval->count, 0) << name;
    double total = 0;
    for (const auto& p : r.phases) {
      EXPECT_GE(p.seconds, 0.0) << name << " phase " << p.name;
      total += p.seconds;
    }
    EXPECT_GT(total, 0.0) << name;

    // Every backend attaches the roofline of the plan it actually ran.
    ASSERT_TRUE(r.roofline.has_value()) << name;
    EXPECT_EQ(r.roofline->physics, "acoustic") << name;
    EXPECT_EQ(r.roofline->order, spec.order) << name;
    EXPECT_GT(r.roofline->elements, 0) << name;
    EXPECT_GT(r.roofline->arithmetic_intensity, 0.0) << name;
  }
}

TEST(RunReportLive, ConfigEchoNamesTheSchedulerModeThatRan) {
  // The "threaded/<mode>" executor name is the one place the scheduler mode
  // is chosen; the report's config echo must name it and parse back to the
  // same run.
  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    const std::string name = "threaded/" + runtime::to_string(mode);
    const auto spec = spec_for(name);
    auto sim = spec.make_simulation();
    sim->run(scenarios::run_duration(spec, *sim));
    ASSERT_NE(sim->threaded(), nullptr) << name;
    ASSERT_EQ(sim->threaded()->mode(), mode) << name;

    const perf::RunReport r = sim->run_report();
    EXPECT_NE(r.config.find(" executor=" + name + " integrator=newmark "), std::string::npos)
        << r.config;
    const core::SimulationConfig echoed = core::parse_simulation_config(r.config);
    EXPECT_EQ(core::resolve_executor_name(echoed), name) << r.config;
    EXPECT_EQ(core::to_string(echoed), r.config);
  }
  // The default config names the backend and integrator that run by default.
  EXPECT_EQ(core::to_string(core::SimulationConfig{}),
            "order=4 physics=acoustic courant=0.12 max-levels=12 ranks=0 "
            "partitioner=scotch-p feedback=0 executor=serial-lts integrator=newmark "
            "scheduler.oversubscribe=forbid");
}

TEST(RunReportLive, ScenarioRunFillsReport) {
  const auto spec = spec_for("serial-lts");
  const auto result = scenarios::run(spec);
  EXPECT_EQ(result.report.scenario, "strip");
  EXPECT_EQ(result.report.executor, "serial-lts");
  EXPECT_GT(result.report.wall_seconds, 0.0);
  EXPECT_EQ(result.report.element_applies, result.element_applies);
  EXPECT_FALSE(result.report.phases.empty());
}

// ---------------------------------------------------------------------------
// Roofline model
// ---------------------------------------------------------------------------

TEST(Roofline, HandComputedOrder4Acoustic) {
  // n1 = 5, npts = 125.
  // flops = 125 * (3*9 + 3*10 + 18 + 1) = 125 * 76 = 9500
  EXPECT_DOUBLE_EQ(perf::flops_per_elem(1, 5), 9500.0);
  // full bytes = 125 * 8 * (1 l2g + 1 field + 2 out r/w + 6 metric) = 10000
  EXPECT_DOUBLE_EQ(perf::bytes_per_elem_full(1, 5), 10000.0);
  // affine bytes = 125 * 8 * 4 + 6 * 8 = 4048
  EXPECT_DOUBLE_EQ(perf::bytes_per_elem_affine(1, 5), 4048.0);

  const perf::RooflineStat s = perf::roofline_static(1, 4);
  EXPECT_EQ(s.physics, "acoustic");
  EXPECT_EQ(s.order, 4);
  EXPECT_EQ(s.block_width, 0);
  EXPECT_DOUBLE_EQ(s.flops_per_elem, 9500.0);
  EXPECT_DOUBLE_EQ(s.bytes_per_elem, 10000.0);
  EXPECT_DOUBLE_EQ(s.arithmetic_intensity, 0.95);
  EXPECT_DOUBLE_EQ(s.bytes_per_flop, 10000.0 / 9500.0);
}

TEST(Roofline, HandComputedOrder4Elastic) {
  // flops = 125 * (9*9 + 9*10 + 116 + 3) = 125 * 290 = 36250
  EXPECT_DOUBLE_EQ(perf::flops_per_elem(3, 5), 36250.0);
  // full bytes = 125 * 8 * (1 + 3 + 6 + 18) = 28000
  EXPECT_DOUBLE_EQ(perf::bytes_per_elem_full(3, 5), 28000.0);
  // affine bytes = 125 * 8 * 10 + 18 * 8 = 10144
  EXPECT_DOUBLE_EQ(perf::bytes_per_elem_affine(3, 5), 10144.0);
}

TEST(Roofline, UniformBoxPlanIsAllAffine) {
  // Axis-aligned uniform boxes have constant Jacobians, so every block of the
  // full plan takes the compact affine metric path: the plan aggregate must
  // equal the affine per-element model exactly, with every real element
  // counted once.
  const auto m = mesh::make_uniform_box(4, 4, 4);
  sem::SemSpace space(m, 4);
  sem::AcousticOperator op(space);
  const perf::RooflineStat s = perf::roofline_for_plan(op.full_plan());
  EXPECT_EQ(s.physics, "acoustic");
  EXPECT_EQ(s.order, 4);
  EXPECT_EQ(s.block_width, op.full_plan().width());
  EXPECT_EQ(s.elements, 64);
  EXPECT_DOUBLE_EQ(s.flops_per_elem, 9500.0);
  EXPECT_DOUBLE_EQ(s.bytes_per_elem, 4048.0);
  EXPECT_DOUBLE_EQ(s.flops_total, 9500.0 * 64);
  EXPECT_DOUBLE_EQ(s.bytes_total, 4048.0 * 64);
  EXPECT_DOUBLE_EQ(s.arithmetic_intensity, 9500.0 / 4048.0);
}

// ---------------------------------------------------------------------------
// Doc sync: docs/ pins the live CLI reference and registries
// ---------------------------------------------------------------------------

std::string read_doc(const std::string& rel) {
  const std::string path = std::string(LTSWAVE_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(DocSync, ScenariosDocPinsCliKeys) {
  const std::string doc = read_doc("docs/scenarios.md");
  // The full key=value reference (simulation keys + scenario-only keys) must
  // appear verbatim — change simulation_config_keys_help() or the scenario
  // key list and this forces the doc update.
  EXPECT_NE(doc.find(scenarios::cli_keys_help()), std::string::npos)
      << "docs/scenarios.md must quote scenarios::cli_keys_help() verbatim:\n"
      << scenarios::cli_keys_help();
  EXPECT_NE(doc.find(core::simulation_config_keys_help()), std::string::npos);
  // Every registered scenario is documented (as `name`).
  for (const auto& name : scenarios::names())
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/scenarios.md missing scenario `" << name << "`";
}

TEST(DocSync, ArchitectureDocListsAllExecutors) {
  const std::string doc = read_doc("docs/architecture.md");
  for (const auto& name : core::ExecutorFactory::instance().names())
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/architecture.md missing executor `" << name << "`";
}

TEST(DocSync, DocsTreeLinkedFromReadme) {
  const std::string readme = read_doc("README.md");
  for (const char* page : {"docs/architecture.md", "docs/performance.md", "docs/scenarios.md",
                           "docs/robustness.md", "docs/static-analysis.md"})
    EXPECT_NE(readme.find(page), std::string::npos) << "README.md must link " << page;
}

TEST(DocSync, PerformanceDocPinsTheSimdSurface) {
  // docs/performance.md documents the SIMD layer and the conflict-free
  // blocks; if the CMake knob, the report keys, the scatter / block API or
  // the microbench counters are renamed, the doc must follow.
  const std::string doc = read_doc("docs/performance.md");
  for (const char* needle :
       {"LTSWAVE_SIMD", "src/common/simd.hpp", "simd_isa", "simd_width", "scatter_add",
        "block_fill", "elems/s", "blocks/s"})
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/performance.md must mention " << needle;
}

TEST(DocSync, StaticAnalysisDocPinsTheToolchain) {
  // docs/static-analysis.md documents the concurrency-correctness gate; if a
  // tool is renamed or dropped, the doc must follow.
  const std::string doc = read_doc("docs/static-analysis.md");
  for (const char* needle :
       {"-Wthread-safety", "LTSWAVE_TSAN", "tools/lint_ltswave.py", ".clang-tidy",
        "LTS_GUARDED_BY", "src/common/annotations.hpp"})
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/static-analysis.md must mention " << needle;
}

/// One documented example invocation: the binary's default scenario and its
/// key=value tokens (runner-only keys already dropped).
struct DocCommand {
  std::string where;
  std::string default_scenario;
  std::vector<std::string> args;
};

/// Every `example_scenario_runner` / `example_seismic_point_source` command in
/// `text`. A command's arguments are the key=value tokens after the binary,
/// up to the first other token, a `#` comment or a closing backtick; a
/// trailing backslash continues the command on the next line.
std::vector<DocCommand> documented_commands(const std::string& file, const std::string& text) {
  const std::vector<std::pair<std::string, std::string>> binaries = {
      {"example_scenario_runner", "strip"}, {"example_seismic_point_source", "trench"}};
  const std::vector<std::string> runner_only = {"report",  "output-dir", "checkpoint",
                                                "restore", "kill-at-cycle", "checkpoint-every"};
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    lines.emplace_back(std::istream_iterator<std::string>(ls), std::istream_iterator<std::string>());
  }
  std::vector<DocCommand> out;
  for (std::size_t l = 0; l < lines.size(); ++l)
    for (std::size_t t = 0; t < lines[l].size(); ++t)
      for (const auto& [binary, scenario] : binaries) {
        const std::size_t at = lines[l][t].find(binary);
        if (at == std::string::npos) continue;
        DocCommand cmd{file + ":" + std::to_string(l + 1), scenario, {}};
        bool open = lines[l][t].find('`', at) == std::string::npos;
        for (std::size_t ll = l, tt = t + 1; open && ll < lines.size();) {
          if (tt == lines[ll].size()) break;
          std::string tok = lines[ll][tt++];
          if (tok == "\\") {
            ++ll;
            tt = 0;
            continue;
          }
          open = tok.find('`') == std::string::npos;
          std::erase(tok, '`');
          while (!tok.empty() && std::string_view(".,;)").find(tok.back()) != std::string::npos)
            tok.pop_back();
          const std::size_t eq = tok.find('=');
          if (tok.starts_with("#") || eq == std::string::npos) break;
          if (std::find(runner_only.begin(), runner_only.end(), tok.substr(0, eq)) ==
              runner_only.end())
            cmd.args.push_back(tok);
        }
        out.push_back(std::move(cmd));
      }
  return out;
}

TEST(DocSync, DocumentedCommandsParse) {
  std::vector<std::string> files = {"README.md", ".claude/skills/verify/SKILL.md"};
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(LTSWAVE_SOURCE_DIR) + "/docs"))
    if (entry.path().extension() == ".md") files.push_back("docs/" + entry.path().filename().string());

  std::size_t commands = 0, threaded = 0;
  for (const auto& file : files)
    for (const auto& cmd : documented_commands(file, read_doc(file))) {
      ++commands;
      std::vector<const char*> argv;
      for (const auto& a : cmd.args) argv.push_back(a.c_str());
      scenarios::ScenarioSpec spec;
      try {
        spec = scenarios::from_args(argv, cmd.default_scenario);
      } catch (const CheckFailure& e) {
        ADD_FAILURE() << cmd.where << ": documented command does not parse: " << e.what();
        continue;
      }
      // A rank count only means something to a threaded executor; the serial
      // backends reject it at construction.
      if (spec.num_ranks > 1) {
        ++threaded;
        EXPECT_TRUE(spec.executor.starts_with("threaded/"))
            << cmd.where << ": ranks=" << spec.num_ranks << " with executor=" << spec.executor;
      }
    }
  // Not vacuous: the README and docs carry serial and threaded examples.
  EXPECT_GE(commands, 10u);
  EXPECT_GE(threaded, 4u);
}

} // namespace
} // namespace ltswave
