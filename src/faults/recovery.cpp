#include "faults/recovery.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "core/log.h"
#include "obs/trace.h"
#include "sim/queueing.h"

namespace softmow::faults {

using sim::Duration;
using sim::TimePoint;

namespace {

// Detection delays stand in for the liveness machinery the harness does not
// model per packet: BFD on links, echo timeouts on switches, standby
// heartbeats on controllers, and the periodic slice-isolation audit that
// spots rogue rules. An impaired channel shows up at the first barrier
// retry timeout.
constexpr Duration kLinkDetect = Duration::millis(15);
constexpr Duration kCrashDetect = Duration::millis(90);
constexpr Duration kControllerDetect = Duration::millis(200);
constexpr Duration kAuditDetect = Duration::millis(120);
/// Modeled standby-promotion cost (keeps the failover span deterministic).
constexpr Duration kPromoteDuration = Duration::millis(50);

}  // namespace

RecoveryCoordinator::RecoveryCoordinator(topo::Scenario& scenario,
                                         obs::TimeSeriesRecorder* recorder)
    : scenario_(&scenario), recorder_(recorder) {
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  for (std::size_t i = 0; i < mp.leaf_count(); ++i) {
    standbys_.push_back(std::make_unique<mgmt::HotStandby>(mp.leaf(i), mp.hub()));
  }
  obs::MetricsRegistry& reg = obs::default_registry();
  disrupted_metric_ = reg.counter("fault_bearers_disrupted_total");
  blackholed_metric_ = reg.counter("fault_blackholed_packets_total");
  disruption_ms_ =
      reg.histogram("bearer_disruption_ms", obs::Histogram::exponential_bounds(1.0, 2.0, 24));
}

void RecoveryCoordinator::harden() {
  for (reca::Controller* c : scenario_->mgmt->all_controllers()) {
    c->set_self_healing(true);
    c->set_reliable_delivery(true);
  }
}

void RecoveryCoordinator::add_probe(BearerProbe probe) { probes_.push_back(probe); }

std::size_t RecoveryCoordinator::probe_failures() {
  std::size_t fails = 0;
  for (const BearerProbe& p : probes_) {
    Packet pkt;
    pkt.ue = p.ue;
    pkt.dst_prefix = p.dst;
    auto report = scenario_->net.inject_uplink(pkt, p.bs);
    if (report.outcome != dataplane::DeliveryReport::Outcome::kExternal) ++fails;
  }
  return fails;
}

void RecoveryCoordinator::refresh_standbys(sim::TimePoint at) {
  // A live migration (migrate::MigrationManager) or a failover retires a
  // leaf's old instance and installs a fresh one under the same index; a
  // standby still watching the retired instance must be rebuilt and synced.
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  for (std::size_t i = 0; i < standbys_.size() && i < mp.leaf_count(); ++i) {
    if (standbys_[i]->watches(mp.leaf(i))) continue;
    standbys_[i] = std::make_unique<mgmt::HotStandby>(mp.leaf(i), mp.hub());
    standbys_[i]->sync(at);
  }
}

void RecoveryCoordinator::checkpoint(sim::TimePoint at) {
  refresh_standbys(at);
  for (auto& standby : standbys_) standby->sync(at);
}

namespace {

/// Order-insensitive-enough digest of one switch's rules: any install or
/// removal changes it, which is what dirty tracking needs.
std::uint64_t table_digest(const dataplane::FlowTable& table) {
  std::uint64_t h = 1469598103934665603ull;
  for (const dataplane::FlowRule& rule : table.rules()) {
    h ^= rule.cookie * 0x9e3779b97f4a7c15ull +
         static_cast<std::uint64_t>(rule.priority) * 0x100000001b3ull;
    h *= 1099511628211ull;
  }
  return h;
}

std::map<SwitchId, std::uint64_t> rule_digests(dataplane::PhysicalNetwork& net) {
  std::map<SwitchId, std::uint64_t> out;
  for (SwitchId id : net.all_switches()) {
    const dataplane::Switch* sw = net.sw(id);
    if (sw != nullptr) out[id] = table_digest(sw->table());
  }
  return out;
}

}  // namespace

RecoveryCoordinator::Baseline RecoveryCoordinator::capture_baseline() const {
  Baseline base;
  for (reca::Controller* c : scenario_->mgmt->all_controllers()) {
    base.messages[c->id()] = c->messages_handled();
  }
  base.rule_digest = rule_digests(scenario_->net);
  base.resyncs = resync_counter_total();
  return base;
}

std::uint64_t RecoveryCoordinator::resync_counter_total() const {
  std::uint64_t total = 0;
  const obs::MetricsRegistry& reg = obs::default_registry();
  int top = scenario_->mgmt->root().level();
  for (int level = 1; level <= top; ++level) {
    const obs::Counter* c =
        reg.find_counter("path_resyncs_total", {{"level", std::to_string(level)}});
    if (c != nullptr) total += c->value();
  }
  return total;
}

Duration RecoveryCoordinator::detection_for(FaultKind kind) const {
  switch (kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      return kLinkDetect;
    case FaultKind::kSwitchCrash:
    case FaultKind::kSwitchRestart:
      return kCrashDetect;
    case FaultKind::kControllerCrash:
      return kControllerDetect;
    case FaultKind::kChannelImpair:
    case FaultKind::kChannelClear:
      return reca::Controller::kRetryBaseTimeout;
    case FaultKind::kRogueRule:
      return kAuditDetect;
  }
  return kLinkDetect;
}

void RecoveryCoordinator::drain_engine() {
  if (sim::ShardedSimulator* engine = scenario_->mgmt->engine()) engine->run();
}

void RecoveryCoordinator::run_on_shard(sim::ShardId shard,
                                       sim::ShardedSimulator::Callback fn) {
  if (sim::ShardedSimulator* engine = scenario_->mgmt->engine()) {
    engine->schedule(shard, engine->lookahead(), std::move(fn));
  } else {
    fn();
  }
}

void RecoveryCoordinator::apply_mutation(const FaultEvent& ev) {
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  switch (ev.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      // Plans draw their links from this network, so the id always resolves.
      (void)scenario_->net.set_link_up(ev.link, ev.kind == FaultKind::kLinkUp);
      break;
    case FaultKind::kSwitchCrash:
      if (southbound::SwitchAgent* agent = mp.hub().agent(ev.sw)) agent->crash();
      break;
    case FaultKind::kSwitchRestart:
      break;  // dispatched as an engine event so the resync rides the shards
    case FaultKind::kControllerCrash:
      break;  // the failover *is* the recovery
    case FaultKind::kChannelImpair: {
      reca::Controller& leaf = mp.leaf(ev.leaf);
      leaf.set_reliable_delivery(true);
      leaf.set_device_impairment(ev.impair, plan_seed_);
      break;
    }
    case FaultKind::kChannelClear:
      mp.leaf(ev.leaf).clear_device_impairment();
      break;
    case FaultKind::kRogueRule:
      // Straight into the TCAM, bypassing every controller — the control
      // plane's own books stay clean, which is exactly why only an audit
      // (probe or static scan) can catch it. The install cannot be refused:
      // the plan forges the rule 100 priority levels above the classifier
      // it copies, under a cookie no controller allocates, so no installed
      // rule ties with it.
      if (dataplane::Switch* sw = scenario_->net.sw(ev.sw)) {
        (void)sw->table().install(ev.rogue);
      }
      break;
  }
}

void RecoveryCoordinator::dispatch_recovery(const FaultEvent& ev, FaultRecord& rec,
                                            const obs::TraceContext& /*span*/) {
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  switch (ev.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      // Self-healing leaves already re-routed inside the PortStatus handler;
      // refresh the logical planes bottom-up, then let every level repair
      // the paths the topology change broke in *its* region (§6), leaves
      // first and the root last.
      mp.refresh_topology();
      for (reca::Controller* c : mp.all_controllers()) {
        auto [r, f] = c->repair_paths();
        rec.repaired += r;
        rec.failed += f;
      }
      break;
    }
    case FaultKind::kSwitchRestart: {
      southbound::SwitchAgent* agent = mp.hub().agent(ev.sw);
      run_on_shard(mp.hub().owner_of(ev.sw), [agent] { agent->restart(); });
      break;
    }
    case FaultKind::kControllerCrash: {
      // The plane rebinds its own shards and apps; a new standby starts
      // watching the fresh leaf.
      mp.fail_over_leaf(ev.leaf, *standbys_[ev.leaf], ev.at, kPromoteDuration);
      refresh_standbys(ev.at + kPromoteDuration);
      break;
    }
    case FaultKind::kChannelImpair:
    case FaultKind::kChannelClear: {
      // Resync sweep: re-push every installed rule of the leaf through the
      // (possibly lossy) channels; reliable delivery retries until the
      // barrier acks come back.
      reca::Controller* leaf = &mp.leaf(ev.leaf);
      FaultRecord* recp = &rec;
      run_on_shard(leaf->shard(), [leaf, recp] {
        for (SwitchId sw : leaf->devices()) {
          if (leaf->paths().resync_switch(sw) != 0) ++recp->resyncs;
        }
      });
      break;
    }
    case FaultKind::kSwitchCrash:
      break;  // handled in execute(): opens an outage, no recovery yet
    case FaultKind::kRogueRule: {
      // The audit names the (switch, cookie); the leaf that owns the switch
      // deletes the rule through its own southbound channel so the removal
      // is counted (and paid for) like any other recovery message.
      reca::Controller* owner = nullptr;
      for (reca::Controller* c : mp.leaves()) {
        std::vector<SwitchId> devices = c->devices();
        if (std::find(devices.begin(), devices.end(), ev.sw) != devices.end()) {
          owner = c;
          break;
        }
      }
      if (owner == nullptr) break;
      southbound::FlowMod del;
      del.op = southbound::FlowMod::Op::kRemoveByCookie;
      del.sw = ev.sw;
      del.cookie = ev.rogue.cookie;
      SwitchId sw = ev.sw;
      FaultRecord* recp = &rec;
      run_on_shard(owner->shard(), [owner, sw, del, recp] {
        if (owner->send(sw, southbound::Message{del}).ok()) ++recp->repaired;
      });
      break;
    }
  }
}

void RecoveryCoordinator::finish_record(const FaultEvent& ev, FaultRecord& rec,
                                        const Baseline& base,
                                        const obs::TraceContext& span) {
  mgmt::ManagementPlane& mp = *scenario_->mgmt;

  std::map<int, std::uint64_t> level_max;
  std::uint64_t total = 0;
  for (reca::Controller* c : mp.all_controllers()) {
    std::uint64_t cur = c->messages_handled();
    auto it = base.messages.find(c->id());
    std::uint64_t prev = it == base.messages.end() ? 0 : it->second;
    // A promoted controller restarts its counter; its whole count is new work.
    std::uint64_t delta = cur >= prev ? cur - prev : cur;
    if (delta == 0) continue;
    total += delta;
    std::uint64_t& mx = level_max[c->level()];
    if (delta > mx) mx = delta;
    if (c->level() > rec.resolved_level) rec.resolved_level = c->level();
  }
  rec.recovery_messages = total;
  rec.resyncs += static_cast<std::size_t>(resync_counter_total() - base.resyncs);

  const char* kind_name = fault_kind_name(ev.kind);
  Duration detect = detection_for(ev.kind);
  rec.detection_ms = detect.to_millis();

  Duration outage{};
  if (ev.kind == FaultKind::kSwitchRestart) {
    auto it = crashed_at_.find(ev.sw);
    if (it != crashed_at_.end()) {
      outage = ev.at - it->second;
      crashed_at_.erase(it);
    }
  }

  // Recursive hierarchy: levels converge in parallel within a level and
  // sequentially across levels (bottom-up), each behind one channel RTT —
  // the Fig. 10 queueing model applied to the recovery message load.
  Duration queue_total{};
  int levels = 0;
  for (const auto& [level, mx] : level_max) {
    sim::QueueingStation station(sim::kControllerServiceTime,
                                 std::string("fault-") + kind_name + "-l" +
                                     std::to_string(level),
                                 level);
    TimePoint done = station.submit_burst(TimePoint::zero(), mx);
    queue_total = queue_total + (done - TimePoint::zero());
    ++levels;
  }
  if (levels == 0) levels = 1;
  Duration mttr =
      outage + detect + queue_total + sim::kControlRtt * static_cast<double>(levels);

  // Flat baseline: one controller serves the entire recovery load, and it
  // sits where the root sits — every control-channel exchange with a
  // physical switch crosses the full hierarchy depth of parent links, while
  // a leaf is one local RTT from its own region.
  sim::QueueingStation flat(sim::kControllerServiceTime,
                            std::string("fault-") + kind_name + "-flat", 0);
  TimePoint flat_done = flat.submit_burst(TimePoint::zero(), total);
  double depth = static_cast<double>(mp.root().level() > 0 ? mp.root().level() : 1);
  Duration mttr_flat =
      outage + detect + (flat_done - TimePoint::zero()) + sim::kControlRtt * depth;

  rec.mttr_ms = mttr.to_millis();
  rec.mttr_flat_ms = mttr_flat.to_millis();

  obs::Histogram* recovery_hist = obs::default_registry().histogram(
      "recovery_ms", obs::Histogram::exponential_bounds(1.0, 2.0, 24),
      {{"kind", kind_name}});
  recovery_hist->observe(rec.mttr_ms);
  for (std::size_t i = 0; i < rec.bearers_disrupted; ++i) disruption_ms_->observe(rec.mttr_ms);
  if (recorder_ != nullptr) recorder_->force_sample(ev.at + mttr);

  obs::Tracer& tracer = obs::default_tracer();
  tracer.span_under(span, ev.at, ev.at + detect, "fault.detect", 0, "faults",
                    obs::SpanKind::kPropagate);
  tracer.span_under(span, ev.at + detect, ev.at + detect + queue_total, "fault.repair",
                    rec.resolved_level, "faults", obs::SpanKind::kProcess,
                    std::to_string(total) + " messages");
  char detail[128];
  std::snprintf(detail, sizeof(detail), "mttr %.1fms recursive / %.1fms flat (L%d)",
                rec.mttr_ms, rec.mttr_flat_ms, rec.resolved_level);
  tracer.close_span(span, ev.at + mttr, detail);
}

std::optional<FaultRecord> RecoveryCoordinator::execute(const FaultEvent& ev) {
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  refresh_standbys(ev.at);
  obs::Tracer& tracer = obs::default_tracer();
  FaultRecord rec;
  rec.event = ev;

  obs::TraceContext span =
      tracer.open_span_under({}, ev.at, "fault.recover", 0, "faults");
  tracer.event_under(span, ev.at, std::string("fault.") + fault_kind_name(ev.kind), 0,
                     "faults", ev.str());
  {
    obs::Tracer::ScopedContext scoped(tracer, span);
    apply_mutation(ev);
  }

  rec.bearers_disrupted = probe_failures();
  rec.blackholed = rec.bearers_disrupted;
  if (rec.bearers_disrupted != 0) {
    disrupted_metric_->inc(rec.bearers_disrupted);
    blackholed_metric_->inc(rec.blackholed);
  }

  if (ev.kind == FaultKind::kSwitchCrash) {
    crashed_at_[ev.sw] = ev.at;
    tracer.close_span(span, ev.at + detection_for(ev.kind), "outage open");
    return std::nullopt;
  }

  Baseline base = capture_baseline();
  {
    obs::Tracer::ScopedContext scoped(tracer, span);
    dispatch_recovery(ev, rec, span);
    drain_engine();
  }
  finish_record(ev, rec, base, span);

  rec.probe_failures = probe_failures();

  // Incremental re-verification over the switches this recovery touched.
  // While a switch outage is still open its wiped TCAM *should* fail
  // verification, so defer those switches until the outage closes.
  std::set<SwitchId> dirty_set = std::move(pending_dirty_);
  pending_dirty_.clear();
  std::map<SwitchId, std::uint64_t> digests = rule_digests(scenario_->net);
  for (const auto& [sw, digest] : digests) {
    auto it = base.rule_digest.find(sw);
    if (it == base.rule_digest.end() || it->second != digest) dirty_set.insert(sw);
  }
  if (ev.sw.valid()) dirty_set.insert(ev.sw);
  if (crashed_at_.empty()) {
    std::vector<SwitchId> dirty(dirty_set.begin(), dirty_set.end());
    verify::VerifyReport report = mp.reverify_data_plane(dirty);
    rec.verify_findings = report.findings.size();
    if (!report.clean()) {
      SOFTMOW_LOG(LogLevel::kWarn, "faults")
          << "post-recovery verification found " << report.findings.size()
          << " issue(s) after " << ev.str();
    }
  } else {
    pending_dirty_ = std::move(dirty_set);  // re-verify once the outage closes
  }
  return rec;
}

}  // namespace softmow::faults
