// Continuous re-homing (paper §5.3 run as a control loop): as replayed
// diurnal load shifts between regions, this policy decides *where leaf
// controllers should live* from each leaf's load share — a leaf whose share
// runs hot moves to a site local to its region (short control RTT), a leaf
// gone cold moves back to the central site (consolidation). Where G-BSes
// live stays the region-optimization application's job. Each move is one
// planned MigrationManager cycle, so the data plane never notices.
#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "migrate/migration.h"
#include "topo/scenario.h"

namespace softmow::migrate {

/// Drives MigrationManager from load observations. One step() per replay
/// window compares each leaf's load share with the mean share and re-homes
/// hot leaves to a region-local site and cold ones back to the "core" site,
/// a few per step.
class ContinuousRehoming {
 public:
  ContinuousRehoming(topo::Scenario& scenario, MigrationManager& manager);

  /// `leaf_load[i]` is leaf i's observed control load over the last window
  /// (any consistent unit; only shares matter). Returns how many
  /// re-homings were executed this step.
  Result<std::size_t> step(const std::vector<double>& leaf_load, sim::TimePoint at);

  [[nodiscard]] std::uint64_t rehomings() const { return rehomings_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  topo::Scenario* scenario_;
  MigrationManager* manager_;
  std::uint64_t rehomings_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace softmow::migrate
