#include "faults/injector.h"

#include <algorithm>

#include "core/log.h"
#include "obs/metrics.h"

namespace softmow::faults {

std::vector<FaultRecord> FaultInjector::run(const FaultScenario& plan,
                                            RecoveryCoordinator& recovery) {
  std::vector<FaultEvent> events = plan.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  recovery.set_plan_seed(plan.seed);

  std::vector<FaultRecord> records;
  obs::MetricsRegistry& reg = obs::default_registry();
  for (const FaultEvent& ev : events) {
    recovery.checkpoint(ev.at);
    reg.counter("fault_injected_total", {{"kind", fault_kind_name(ev.kind)}})->inc();
    ++injected_;
    SOFTMOW_LOG(LogLevel::kInfo, "faults")
        << "t=" << ev.at.since_start().to_millis() << "ms inject " << ev.str();
    if (auto rec = recovery.execute(ev)) records.push_back(*rec);
  }
  return records;
}

}  // namespace softmow::faults
