#include "resilience/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "resilience/checkpoint.hpp"
#include "resilience/error.hpp"

namespace ltswave::resilience {

namespace {

/// Event kind for a caught failure: the taxonomy is closed, so classify by
/// concrete type rather than threading a tag through every throw site.
const char* classify(const Error& e) {
  if (dynamic_cast<const NumericalBlowup*>(&e)) return "blowup-detected";
  if (dynamic_cast<const WorkerStall*>(&e)) return "worker-stall";
  return "failure-detected";
}

} // namespace

SupervisorResult Supervisor::run() {
  {
    LockGuard lock(mu_);
    ++stats_.runs_started;
  }
  scenarios::ScenarioSpec spec = spec_;
  const RecoveryPolicy& policy = spec_.recovery;

  auto sim = spec.make_simulation();
  // The physical span is fixed once, from the original spec and census: a
  // halve_dt recovery must not shorten (or double) the simulated duration.
  const real_t target = scenarios::run_duration(spec, *sim);

  Checkpoint good = sim->checkpoint(); // t=0 baseline: worst case retries from scratch
  std::vector<perf::RunEvent> events;  // survives executor rebuilds
  int retries = 0;

  while (target - sim->time() > real_t(0.5) * sim->dt()) {
    const real_t left = target - sim->time();
    const real_t span = policy.checkpoint_every > 0
                            ? std::min(static_cast<real_t>(policy.checkpoint_every) * sim->dt(), left)
                            : left;
    try {
      sim->run(span);
      good = sim->checkpoint();
      if (policy.checkpoint_every > 0 && target - sim->time() > real_t(0.5) * sim->dt()) {
        std::ostringstream os;
        os << "t=" << sim->time();
        events.push_back({"checkpoint", "", sim->cycles(), os.str()});
      }
    } catch (const Error& e) {
      // Keep the failed attempt's own event trail (fault injections, stall
      // records) — the executor dies with the rebuild below.
      const auto failed = sim->run_report().events;
      events.insert(events.end(), failed.begin(), failed.end());
      events.push_back({classify(e), "", sim->cycles(), e.what()});
      {
        LockGuard lock(mu_);
        stats_.last_failure = e.what();
      }
      if (policy.on_blowup == RecoveryPolicy::OnBlowup::Abort || retries >= policy.max_retries)
        throw;

      if (policy.backoff_ms > 0)
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            policy.backoff_ms * static_cast<double>(std::int64_t{1} << retries)));

      // One-shot injection contract: the re-executed cycles must not re-fire
      // the fault that just fired (a real failure, by contrast, recurs on its
      // own and exhausts the retries).
      spec.fault = {};
      if (policy.on_blowup == RecoveryPolicy::OnBlowup::HalveDt) {
        spec.courant /= 2;
      } else {
        spec.executor = policy.fallback;
        // Serial backends reject a rank count; a threaded fallback keeps it.
        if (!spec.executor.starts_with("threaded/")) spec.num_ranks = 0;
      }

      sim = spec.make_simulation();
      // Policy-driven restores change dt deliberately (halve_dt always;
      // fallback may land on a backend with a different step).
      sim->restore(good, /*allow_dt_change=*/true);
      ++retries;
      std::ostringstream os;
      os << "retry " << retries << "/" << policy.max_retries << ", rolled back to t="
         << sim->time() << " on executor " << sim->executor_name();
      events.push_back({"recovery", to_string(policy.on_blowup), sim->cycles(), os.str()});
    }
  }

  SupervisorResult out;
  out.u = sim->u();
  out.end_time = sim->time();
  for (const auto& r : sim->receivers()) {
    out.trace_times.push_back(r.times());
    out.trace_values.push_back(r.values());
  }
  out.report = sim->run_report();
  out.report.scenario = spec_.name;
  // Supervisor-level events first (they narrate the whole run, failed
  // attempts included), then the finishing executor's own records.
  events.insert(events.end(), out.report.events.begin(), out.report.events.end());
  out.report.events = std::move(events);
  out.final_executor = sim->executor_name();
  out.retries_used = retries;
  {
    LockGuard lock(mu_);
    ++stats_.runs_completed;
    stats_.retries_total += retries;
  }
  return out;
}

Supervisor::Stats Supervisor::stats() const {
  LockGuard lock(mu_);
  return stats_;
}

} // namespace ltswave::resilience
