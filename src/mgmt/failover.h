// Controller failure recovery (paper §6): "each logical node in the tree
// structure contains master and hot standby instances. For each node, NIB
// is decoupled from the controller logic and stored in a reliable storage
// system ... shared between the master and standby."
//
// This harness models the reliable storage as periodic NIB checkpoints in
// the shared `mgmt::Checkpoint` format (mgmt/checkpoint.h — the same format
// planned migration streams): every sync() re-captures the master and is
// priced by what changed since the last one, so the first ships the full
// state; promote() builds a standby controller seeded from the checkpoint,
// takes the master role on every device, and re-runs one discovery round —
// the paper's "checks the event logs and redoes unfinished events".
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mgmt/checkpoint.h"
#include "obs/metrics.h"
#include "reca/controller.h"
#include "sim/time.h"
#include "southbound/switch_agent.h"

namespace softmow::mgmt {

class HotStandby {
 public:
  /// Watches `master`, a leaf controller whose devices live in `hub`.
  HotStandby(reca::Controller& master, southbound::Hub& hub);

  /// Checkpoints the master's NIB into the "reliable storage" with
  /// `Checkpoint::sync`: the first call ships the full state, later calls
  /// only what changed, so the modeled bytes shipped
  /// (`failover_checkpoint_bytes_total`) shrink to the change rate.
  /// `at` stamps the trace event when the caller runs under a simulated
  /// clock.
  void sync(sim::TimePoint at = sim::TimePoint::zero());
  [[nodiscard]] std::uint64_t checkpoints() const { return checkpoints_; }
  /// Modeled bytes the last sync shipped (full size for the first).
  [[nodiscard]] std::uint64_t last_sync_bytes() const { return last_sync_bytes_; }
  /// The stored checkpoint: the master's state as of the last sync.
  [[nodiscard]] const Checkpoint& checkpoint() const { return ckpt_; }

  /// True while `master` is the instance this standby watches. A live
  /// migration retires the watched instance; the owner must then rebuild
  /// the standby against the leaf's fresh instance before the next sync.
  [[nodiscard]] bool watches(const reca::Controller& master) const {
    return master_ == &master;
  }

  /// Master failed: builds the standby controller from the latest
  /// checkpoint, seizes the master role on all devices and re-discovers.
  /// The returned controller answers to the same ControllerId. The
  /// promotion span normally closes after the measured wall-clock cost;
  /// pass `modeled_duration` to use a fixed simulated cost instead, keeping
  /// exported traces identical across runs (fault-injection scenarios).
  std::unique_ptr<reca::Controller> promote(
      sim::TimePoint at = sim::TimePoint::zero(),
      std::optional<sim::Duration> modeled_duration = std::nullopt);

 private:
  southbound::Hub* hub_;
  ControllerId id_;
  int level_;
  std::string name_;
  reca::LabelMode label_mode_;

  /// Checkpointed state (everything not re-derivable from the data plane),
  /// in the shared format. Replaced by every sync.
  Checkpoint ckpt_;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t last_sync_bytes_ = 0;
  reca::Controller* master_;
  obs::Counter* checkpoints_metric_;   ///< failover_checkpoints_total
  obs::Counter* bytes_metric_;         ///< failover_checkpoint_bytes_total
  obs::Counter* promotions_metric_;    ///< failover_promotions_total
  obs::Histogram* sync_us_metric_;     ///< failover_sync_us (wall clock)
  obs::Histogram* promote_us_metric_;  ///< failover_promote_us (wall clock)
};

}  // namespace softmow::mgmt
