// Self-healing recovery driver (paper §6): given one injected fault, drives
// the control plane back to a verified-clean state and measures the repair.
//
// Determinism contract: every mutation is applied at an engine barrier
// (channels fall back to synchronous delivery), recovery traffic that should
// ride the engine is dispatched as shard events and drained with run(), and
// MTTR is *modeled* — detection delay plus per-level queueing of the
// messages the recovery actually generated (sim::QueueingStation, the Fig. 10
// idiom) plus channel round trips — never wall clock. A fixed fault plan
// therefore produces byte-identical records and metrics on every run.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "faults/fault.h"
#include "mgmt/failover.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "reca/controller.h"
#include "sim/sharded.h"
#include "topo/scenario.h"

namespace softmow::faults {

/// A data-plane liveness probe: one active bearer's uplink flow.
struct BearerProbe {
  UeId ue;
  BsId bs;
  PrefixId dst;
};

/// What one recovery accomplished, plus the modeled timings.
struct FaultRecord {
  FaultEvent event;
  int resolved_level = 1;     ///< highest hierarchy level that did repair work
  std::uint64_t recovery_messages = 0;  ///< control messages the recovery generated
  double detection_ms = 0;
  double mttr_ms = 0;         ///< recursive hierarchy (per-level queueing)
  double mttr_flat_ms = 0;    ///< flat-baseline model (one station serves all)
  std::size_t repaired = 0;   ///< paths re-routed
  std::size_t failed = 0;     ///< paths torn down with no alternative
  std::size_t resyncs = 0;    ///< switch rule resyncs performed
  std::size_t bearers_disrupted = 0;  ///< probes failing right after the fault
  std::size_t blackholed = 0;         ///< probe packets lost before recovery
  std::size_t probe_failures = 0;     ///< probes still failing after recovery
  std::size_t verify_findings = 0;    ///< static-verifier findings post-recovery

  [[nodiscard]] double speedup() const {
    return mttr_ms > 0 ? mttr_flat_ms / mttr_ms : 1.0;
  }
};

class RecoveryCoordinator {
 public:
  /// Recovery rides the engine the scenario's management plane is bound to
  /// (ManagementPlane::engine()); an unbound plane recovers fully
  /// synchronously, the mode unit tests use. When `recorder` is set,
  /// finish_record() force-samples it at each recovery's modeled completion
  /// instant, so `recovery_ms{kind}` quantile series land in the exported v3
  /// `timeseries` array as (sim-time, value) points rather than end-of-run
  /// totals.
  explicit RecoveryCoordinator(topo::Scenario& scenario,
                               obs::TimeSeriesRecorder* recorder = nullptr);

  /// Turns on the §6 hardening across the whole hierarchy: self-healing
  /// re-routing on PortStatus and barrier-acknowledged reliable batch
  /// delivery.
  void harden();

  /// Registers a bearer's uplink flow as a liveness probe.
  void add_probe(BearerProbe probe);
  /// Injects every probe; returns how many failed to reach an egress.
  std::size_t probe_failures();

  /// Checkpoints every leaf's hot standby ("periodic NIB sync"); the
  /// injector calls this before each event so a controller crash promotes
  /// from fresh state.
  void checkpoint(sim::TimePoint at);

  /// Seed for per-device impairment Rngs (set once per plan by the injector).
  void set_plan_seed(std::uint64_t seed) { plan_seed_ = seed; }

  /// Applies the fault and runs its recovery to convergence. Returns the
  /// record for events that complete a recovery; nullopt for events that
  /// only open an outage (kSwitchCrash — its repair is measured by the
  /// matching kSwitchRestart).
  std::optional<FaultRecord> execute(const FaultEvent& ev);

 private:
  struct Baseline {
    std::map<ControllerId, std::uint64_t> messages;
    std::map<SwitchId, std::uint64_t> rule_digest;
    std::uint64_t resyncs = 0;
  };

  void apply_mutation(const FaultEvent& ev);
  void dispatch_recovery(const FaultEvent& ev, FaultRecord& rec,
                         const obs::TraceContext& span);
  [[nodiscard]] Baseline capture_baseline() const;
  void finish_record(const FaultEvent& ev, FaultRecord& rec, const Baseline& base,
                     const obs::TraceContext& span);
  [[nodiscard]] std::uint64_t resync_counter_total() const;
  [[nodiscard]] sim::Duration detection_for(FaultKind kind) const;
  void drain_engine();
  /// Runs `fn` on `shard` one lookahead from now when the plane is bound,
  /// inline otherwise.
  void run_on_shard(sim::ShardId shard, sim::ShardedSimulator::Callback fn);
  /// Rebuilds any standby whose watched master was retired (a live
  /// migration or a failover left a fresh instance at the leaf index).
  void refresh_standbys(sim::TimePoint at);

  topo::Scenario* scenario_;
  obs::TimeSeriesRecorder* recorder_;
  std::uint64_t plan_seed_ = 1;
  std::vector<std::unique_ptr<mgmt::HotStandby>> standbys_;  ///< one per leaf
  std::vector<BearerProbe> probes_;
  std::map<SwitchId, sim::TimePoint> crashed_at_;  ///< open switch outages
  std::set<SwitchId> pending_dirty_;  ///< re-verify deferred past open outages
  obs::Counter* disrupted_metric_;   ///< fault_bearers_disrupted_total
  obs::Counter* blackholed_metric_;  ///< fault_blackholed_packets_total
  obs::Histogram* disruption_ms_;    ///< bearer_disruption_ms
};

}  // namespace softmow::faults
