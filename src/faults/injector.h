// Applies a fault plan against a live scenario, event by event, delegating
// each recovery to the RecoveryCoordinator and collecting the records.
#pragma once

#include <vector>

#include "faults/fault.h"
#include "faults/recovery.h"

namespace softmow::faults {

class FaultInjector {
 public:
  /// Runs the whole plan in event-time order: checkpoints the hot standbys
  /// before each event ("periodic NIB sync"), counts
  /// fault_injected_total{kind}, applies the event through `recovery` and
  /// gathers the completed-recovery records. Events apply in `recovery`'s
  /// mode: at run() barriers of the engine the scenario's management plane
  /// is bound to, synchronously when it is unbound.
  std::vector<FaultRecord> run(const FaultScenario& plan,
                               RecoveryCoordinator& recovery);

  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  std::uint64_t injected_ = 0;
};

}  // namespace softmow::faults
