#include "runtime/scheduler.hpp"

#include "common/check.hpp"

namespace ltswave::runtime {

std::string to_string(SchedulerMode mode) {
  switch (mode) {
    case SchedulerMode::BarrierAll: return "barrier-all";
    case SchedulerMode::LevelAware: return "level-aware";
    case SchedulerMode::LevelAwareSteal: return "level-aware+steal";
  }
  return "unknown";
}

std::string to_string(Oversubscribe policy) {
  switch (policy) {
    case Oversubscribe::Forbid: return "forbid";
    case Oversubscribe::Warn: return "warn";
  }
  return "unknown";
}

Oversubscribe parse_oversubscribe(std::string_view name) {
  if (name == "forbid") return Oversubscribe::Forbid;
  if (name == "warn") return Oversubscribe::Warn;
  LTS_CHECK_MSG(false, "unknown oversubscribe policy '" << name << "' (want forbid | warn)");
  return Oversubscribe::Forbid;
}

} // namespace ltswave::runtime
