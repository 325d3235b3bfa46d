// Seismology scenario: an elastic wave excited by a Ricker point source near
// the refined trench, recorded by a line of surface receivers — the classic
// forward-simulation workflow the paper's SPECFEM3D integration targets.
// Writes one CSV seismogram per receiver.
//
// The whole run is the registered "trench" ScenarioSpec; every field is a
// key=value override, including the execution backend:
//
//   $ ./seismic_point_source                       # registry defaults, serial LTS
//   $ ./seismic_point_source n=12 nz=8             # bigger mesh
//   $ ./seismic_point_source executor=threaded/level-aware+steal ranks=4
//   $ ./seismic_point_source executor=threaded/barrier-all ranks=4
//   $ ./seismic_point_source scenario=crust        # any registered scenario
//   $ ./seismic_point_source output-dir=out/run1   # CSVs under out/run1/
//
// Threaded runs inject sources per rank at the owning rank's level-local
// updates and sample receivers from per-rank trace buffers, reproducing the
// serial seismograms to roundoff.

#include <exception>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "scenarios/scenario.hpp"

using namespace ltswave;

static void run_demo(const scenarios::ScenarioSpec& spec, const std::string& output_dir);

int main(int argc, char** argv) {
  // `output-dir=` is a demo-only key (where the CSVs go) — peel it off before
  // the spec parser sees the argv tail.
  std::string output_dir;
  std::vector<const char*> kept;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("output-dir=", 0) == 0)
      output_dir = arg.substr(11);
    else
      kept.push_back(argv[i]);
  }
  const std::span<const char* const> args{kept.data(), kept.size()};
  scenarios::ScenarioSpec spec;
  try {
    spec = scenarios::from_args(args, "trench");
    // This demo's documented commands run `ranks=4` on laptops/CI boxes with
    // fewer cores: default the policy to a warning, then re-apply the CLI so
    // an explicit user choice (any accepted spelling) stays authoritative.
    spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    spec.apply_cli(args);
    if (spec.name == "trench") {
      // Interactive defaults: a bigger mesh, a longer record and a full
      // receiver line compared to the CI-scale registry entry — re-applying
      // the CLI afterwards keeps user overrides authoritative.
      spec.with_mesh_resolution(12, 8).with_cycles(12);
      spec.receivers.clear();
      const int n_receivers = 7;
      for (int i = 0; i < n_receivers; ++i) {
        const real_t x = 0.2 + 0.6 * static_cast<real_t>(i) / (n_receivers - 1);
        spec.with_receiver({.location = {x, 0.5, 0.5}, .component = 2});
      }
      spec.apply_cli(args);
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  try {
    run_demo(spec, output_dir);
  } catch (const std::exception& e) {
    // e.g. an explicit oversubscribe=forbid on a box with too few cores —
    // print the library's message instead of terminating.
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

static void run_demo(const scenarios::ScenarioSpec& spec, const std::string& output_dir) {
  auto sim = spec.make_simulation();
  std::cout << "scenario '" << spec.name << "': " << sim->mesh().num_elems() << " elements, "
            << sim->levels().num_levels << " LTS levels, speedup model "
            << sim->theoretical_speedup() << "x, executor '" << sim->executor_name() << "'\n";

  const real_t duration = scenarios::run_duration(spec, *sim);
  std::cout << "running " << duration << " time units (dt = " << sim->dt() << ") ..."
            << std::flush;
  sim->run(duration);
  std::cout << " done (" << sim->element_applies() << " element applies)\n";

  if (!output_dir.empty()) std::filesystem::create_directories(output_dir);
  for (std::size_t i = 0; i < sim->receivers().size(); ++i) {
    const auto path =
        std::filesystem::path(output_dir) / ("seismogram_" + std::to_string(i) + ".csv");
    sim->receivers()[i].write_csv(path.string());
    std::cout << "wrote " << path.string() << "\n";
  }
}
