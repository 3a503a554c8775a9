#include "migrate/rehoming.h"

#include <string>

#include "core/log.h"
#include "sim/queueing.h"

namespace softmow::migrate {

namespace {

/// A leaf is "hot" when its load share reaches kHotFactor x the mean share,
/// "cold" when it falls to kColdFactor x the mean.
constexpr double kHotFactor = 1.25;
constexpr double kColdFactor = 0.75;
/// Control RTT of a region-local site; the central "core" site is
/// sim::kControlRtt away.
constexpr sim::Duration kLocalRtt = sim::Duration::millis(6);
/// Migrations per step: few cycles at a time keep the control plane stable
/// while the loop converges over multiple windows.
constexpr std::size_t kMaxMovesPerStep = 2;

}  // namespace

ContinuousRehoming::ContinuousRehoming(topo::Scenario& scenario, MigrationManager& manager)
    : scenario_(&scenario), manager_(&manager) {}

Result<std::size_t> ContinuousRehoming::step(const std::vector<double>& leaf_load,
                                             sim::TimePoint at) {
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  if (leaf_load.size() != mp.leaf_count())
    return {ErrorCode::kInvalidArgument, "one load sample per leaf required"};
  if (manager_->in_flight())
    return {ErrorCode::kConflict, "a migration cycle is already in flight"};
  ++steps_;

  double total = 0;
  for (double l : leaf_load) total += l;
  if (total <= 0) return std::size_t{0};  // idle window: nothing to rebalance

  // Placement pass: hot leaves move out to a region-local site, cold leaves
  // consolidate back to the core. Leaves scan in index order so a tie
  // resolves deterministically.
  const double mean = total / static_cast<double>(mp.leaf_count());
  std::size_t moves = 0;
  for (std::size_t i = 0; i < mp.leaf_count() && moves < kMaxMovesPerStep; ++i) {
    const mgmt::LeafPlacement& current = mp.leaf_placement(i);
    const std::string local_site = "site-" + mp.leaf(i).name();
    if (leaf_load[i] >= kHotFactor * mean && current.site != local_site) {
      auto rec = manager_->migrate_leaf(i, {local_site, kLocalRtt}, at);
      if (!rec.ok()) return rec.error();
      ++moves;
      ++rehomings_;
      SOFTMOW_LOG(LogLevel::kInfo, "migrate")
          << "re-homed hot leaf " << rec->leaf_name << " to " << local_site;
    } else if (leaf_load[i] <= kColdFactor * mean && current.site != "core") {
      auto rec = manager_->migrate_leaf(i, {"core", sim::kControlRtt}, at);
      if (!rec.ok()) return rec.error();
      ++moves;
      ++rehomings_;
      SOFTMOW_LOG(LogLevel::kInfo, "migrate")
          << "re-homed cold leaf " << rec->leaf_name << " back to core";
    }
  }
  return moves;
}

}  // namespace softmow::migrate
