// Live controller migration (paper §5.3 applied to whole leaf instances):
// re-homes a leaf controller to a new placement with zero data-plane
// disruption. The §5.3.2 reconfiguration protocol's shape — equal-role dual
// control, state transfer, master switchover, bottom-up re-abstraction — is
// executed here per *controller* instead of per G-BS:
//
//   kSnapshot  spin up the target instance (same ControllerId — the
//              hierarchy keeps its shape) and stream a base checkpoint
//              (the shared mgmt::Checkpoint format the crash-failover
//              standby also speaks);
//   kCatchUp   dual-control window: the source keeps serving while each
//              round re-syncs the checkpoint, restores what changed on the
//              target and pre-warms its southbound sessions as parked
//              standbys on every device;
//   kFlip      at an engine barrier, atomically promote the standby
//              sessions to master, re-adopt the G-switch at the parent,
//              rebind engine shards and apps (ManagementPlane::migrate_leaf,
//              complete on return) — the only window that counts as
//              disruption;
//   kDrain     retire the source instance.
//
// Abort is legal at every phase before kFlip and rolls back completely:
// parked sessions drop, the half-built target is discarded, the source
// never noticed. The flip itself is the point of no return.
//
// All durations are *modeled* (checkpoint bytes over a stream rate, RTTs
// from the placement, a QueueingStation over the per-device role flips) —
// never wall clock — so a migration plan is byte-identical on every run.
// Every mutation happens at an engine barrier, mirroring
// faults::RecoveryCoordinator's determinism contract.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/result.h"
#include "mgmt/checkpoint.h"
#include "mgmt/management.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "topo/scenario.h"

namespace softmow::migrate {

/// Queryable migration state machine.
enum class Phase {
  kIdle,      ///< no cycle in flight (or cycle created, snapshot not streamed)
  kSnapshot,  ///< streaming the base checkpoint (transient, inside stream_snapshot)
  kCatchUp,   ///< dual-control window: changes re-sync, sessions pre-warm
  kReady,     ///< target caught up; flip may proceed
  kFlip,      ///< ownership flipping (transient, inside flip)
  kDrain,     ///< flipped; source awaiting retirement
  kDone,      ///< cycle complete
  kAborted,   ///< rolled back before the flip
};

/// Short stable tag ("idle", "snapshot", ...), used as the metric label.
[[nodiscard]] const char* phase_name(Phase p);

/// What one migration cycle did, plus the modeled timings.
struct MigrationRecord {
  std::size_t leaf = 0;
  std::string leaf_name;
  mgmt::LeafPlacement placement;
  Phase final_phase = Phase::kIdle;
  std::size_t devices = 0;
  int catchup_rounds = 0;
  std::uint64_t bytes_snapshot = 0;  ///< base checkpoint stream
  std::uint64_t bytes_delta = 0;     ///< changes shipped by catch-up and flip
  double snapshot_ms = 0;
  double catchup_ms = 0;
  double flip_ms = 0;
  double drain_ms = 0;
  /// Time the leaf had no master serving it — the headline. Planned
  /// migration pays only the flip window; naive failover pays detection +
  /// promotion on top.
  double disruption_ms = 0;

  [[nodiscard]] std::uint64_t bytes_total() const { return bytes_snapshot + bytes_delta; }
  [[nodiscard]] double total_ms() const {
    return snapshot_ms + catchup_ms + flip_ms + drain_ms;
  }
};

class MigrationManager {
 public:
  /// Every phase first drains the engine the scenario's management plane
  /// is bound to (ManagementPlane::engine()), so mutations land at
  /// barriers; an unbound plane migrates fully synchronously (unit tests).
  /// When `recorder` is set, it is force-sampled at each phase's modeled
  /// completion so `migration_ms{phase}` series land in the v3 `timeseries`
  /// array.
  explicit MigrationManager(topo::Scenario& scenario,
                            obs::TimeSeriesRecorder* recorder = nullptr);

  // --- phased API (callback-sequenced by the caller) -------------------------
  /// Opens a cycle for `leaf`. Errors: kNotFound (no such leaf), kConflict
  /// (another cycle in flight).
  Result<void> begin(std::size_t leaf, mgmt::LeafPlacement placement,
                     sim::TimePoint at = sim::TimePoint::zero());
  /// kIdle -> kCatchUp: builds the target instance and streams the base
  /// checkpoint to it.
  Result<void> stream_snapshot();
  /// One catch-up round (callable repeatedly): first call pre-warms the
  /// standby sessions; each call ships what changed at the source since the
  /// last. Moves to kReady when a round finds nothing new (or the round
  /// budget is spent).
  Result<void> catch_up();
  [[nodiscard]] bool ready_to_flip() const;
  /// kReady -> kDrain: the atomic ownership flip at a window barrier.
  Result<void> flip();
  /// kDrain -> kDone: retires the source instance and finalizes the record.
  Result<void> drain();
  /// Rolls back a cycle that has not flipped yet (kIdle..kReady): parked
  /// sessions drop, the target is discarded, the source is untouched.
  /// kConflict once the flip has happened ("past the point of no return").
  Result<void> abort(const std::string& reason);

  /// Convenience: runs every phase of one cycle.
  Result<MigrationRecord> migrate_leaf(std::size_t leaf, mgmt::LeafPlacement placement,
                                       sim::TimePoint at = sim::TimePoint::zero());

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] Phase phase() const;
  /// A cycle is open (begun but not yet closed). Note phase() reports kIdle
  /// between begin() and stream_snapshot(), so this is the in-flight check.
  [[nodiscard]] bool in_flight() const { return active_ != nullptr; }
  [[nodiscard]] const std::vector<MigrationRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t completed() const;
  [[nodiscard]] std::size_t aborted() const;

 private:
  struct Active {
    std::size_t leaf = 0;
    mgmt::LeafPlacement placement;
    Phase phase = Phase::kIdle;
    sim::TimePoint clock;  ///< modeled-time cursor through the phases
    mgmt::Checkpoint base;
    std::unique_ptr<reca::Controller> target;
    std::unique_ptr<reca::Controller> retired;
    std::vector<SwitchId> prewarmed;
    obs::TraceContext span;  ///< root migrate.cycle span
    MigrationRecord rec;
  };

  void drain_engine();
  /// Re-syncs `a.base` against `source` and, when anything changed, counts
  /// the bytes and restores the target from it. Returns the modeled stream
  /// time in ms, or nullopt when nothing changed.
  std::optional<double> ship_changes(Active& a, reca::Controller& source);
  void finish_phase(Active& a, Phase p, double ms);
  void close_cycle(Active& a, Phase final_phase, const std::string& detail);

  topo::Scenario* scenario_;
  obs::TimeSeriesRecorder* recorder_;
  std::unique_ptr<Active> active_;
  std::vector<MigrationRecord> records_;
  obs::Histogram* disruption_ms_;  ///< migration_disruption_ms
  obs::Counter* bytes_metric_;     ///< migration_bytes_transferred
};

}  // namespace softmow::migrate
