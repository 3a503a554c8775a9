#include "migrate/migration.h"

#include <algorithm>

#include "core/log.h"
#include "obs/metrics.h"
#include "sim/queueing.h"
#include "sim/sharded.h"

namespace softmow::migrate {

namespace {

/// Modeled cost of the window barrier that fences the flip.
constexpr sim::Duration kFlipBarrier = sim::Duration::millis(5);
/// Checkpoint stream rate between sites (KB per modeled millisecond).
constexpr double kStreamKbPerMs = 64.0;
/// Modeled cost of pre-warming one southbound standby session.
constexpr sim::Duration kSessionPrewarm = sim::Duration::millis(2);
/// Catch-up rounds before the flip stops waiting and ships the remainder
/// inside the window.
constexpr int kMaxCatchupRounds = 4;

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kIdle: return "idle";
    case Phase::kSnapshot: return "snapshot";
    case Phase::kCatchUp: return "catchup";
    case Phase::kReady: return "ready";
    case Phase::kFlip: return "flip";
    case Phase::kDrain: return "drain";
    case Phase::kDone: return "done";
    case Phase::kAborted: return "aborted";
  }
  return "unknown";
}

MigrationManager::MigrationManager(topo::Scenario& scenario,
                                   obs::TimeSeriesRecorder* recorder)
    : scenario_(&scenario), recorder_(recorder) {
  obs::MetricsRegistry& reg = obs::default_registry();
  disruption_ms_ = reg.histogram("migration_disruption_ms",
                                 obs::Histogram::exponential_bounds(1.0, 2.0, 24));
  bytes_metric_ = reg.counter("migration_bytes_transferred");
}

void MigrationManager::drain_engine() {
  if (sim::ShardedSimulator* engine = scenario_->mgmt->engine()) engine->run();
}

void MigrationManager::finish_phase(Active& a, Phase p, double ms) {
  sim::TimePoint begin = a.clock;
  a.clock = a.clock + sim::Duration::millis(ms);
  obs::default_tracer().span_under(a.span, begin, a.clock,
                                   std::string("migrate.") + phase_name(p), 1,
                                   a.rec.leaf_name);
  obs::default_registry()
      .histogram("migration_ms", obs::Histogram::exponential_bounds(1.0, 2.0, 24),
                 {{"phase", phase_name(p)}})
      ->observe(ms);
  if (recorder_ != nullptr) recorder_->force_sample(a.clock);
}

void MigrationManager::close_cycle(Active& a, Phase final_phase, const std::string& detail) {
  a.rec.final_phase = final_phase;
  obs::default_tracer().close_span(a.span, a.clock, detail);
  SOFTMOW_LOG(LogLevel::kInfo, "migrate")
      << "cycle for leaf " << a.rec.leaf_name << " closed: " << phase_name(final_phase)
      << " (" << detail << ")";
  records_.push_back(a.rec);
  active_.reset();
}

Result<void> MigrationManager::begin(std::size_t leaf, mgmt::LeafPlacement placement,
                                     sim::TimePoint at) {
  if (active_ != nullptr)
    return {ErrorCode::kConflict, "a migration cycle is already in flight"};
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  if (leaf >= mp.leaf_count()) return {ErrorCode::kNotFound, "no such leaf"};
  auto a = std::make_unique<Active>();
  a->leaf = leaf;
  a->placement = placement;
  a->clock = at;
  a->rec.leaf = leaf;
  a->rec.leaf_name = mp.leaf(leaf).name();
  a->rec.placement = placement;
  a->span = obs::default_tracer().open_span_under({}, at, "migrate.cycle", 1,
                                                  a->rec.leaf_name);
  active_ = std::move(a);
  return Ok();
}

Result<void> MigrationManager::stream_snapshot() {
  if (active_ == nullptr || active_->phase != Phase::kIdle)
    return {ErrorCode::kConflict, "no cycle awaiting its snapshot"};
  Active& a = *active_;
  drain_engine();
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  reca::Controller& source = mp.leaf(a.leaf);
  a.phase = Phase::kSnapshot;
  // Same ControllerId and name: the target steps into the source's identity
  // so the parent's child maps, the G-switch id, and app registrations all
  // carry over at the flip.
  a.rec.bytes_snapshot = a.base.sync(source).bytes;
  a.target = std::make_unique<reca::Controller>(source.id(), 1, source.name(),
                                                mp.label_mode());
  mgmt::restore_checkpoint(*a.target, a.base);
  a.rec.devices = a.base.devices.size();
  double stream_ms =
      static_cast<double>(a.rec.bytes_snapshot) / (1024.0 * kStreamKbPerMs);
  a.rec.snapshot_ms = a.placement.control_rtt.to_millis() + stream_ms;
  finish_phase(a, Phase::kSnapshot, a.rec.snapshot_ms);
  a.phase = Phase::kCatchUp;
  return Ok();
}

std::optional<double> MigrationManager::ship_changes(Active& a, reca::Controller& source) {
  mgmt::SyncCost cost = a.base.sync(source);
  if (!cost.changed) return std::nullopt;
  a.rec.bytes_delta += cost.bytes;
  mgmt::restore_checkpoint(*a.target, a.base);
  return static_cast<double>(cost.bytes) / (1024.0 * kStreamKbPerMs);
}

Result<void> MigrationManager::catch_up() {
  if (active_ == nullptr || active_->phase != Phase::kCatchUp)
    return {ErrorCode::kConflict, "no dual-control window open"};
  Active& a = *active_;
  drain_engine();
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  reca::Controller& source = mp.leaf(a.leaf);

  double prewarm_ms = 0;
  if (a.prewarmed.empty()) {
    // First round: park a pre-warmed standby session on every device the
    // source serves. The source's live sessions are untouched — the parked
    // ones handshake (Hello / FeaturesReply) but see no data-plane events.
    for (SwitchId sw : source.devices()) {
      a.target->adopt_physical_switch_standby(mp.hub(), sw);
      a.prewarmed.push_back(sw);
    }
    prewarm_ms =
        static_cast<double>(a.prewarmed.size()) * kSessionPrewarm.to_millis();
  }

  std::optional<double> stream_ms = ship_changes(a, source);
  // Session pre-warming overlaps the stream: the round costs one RTT plus
  // whichever of the two took longer.
  double round_ms =
      a.placement.control_rtt.to_millis() + std::max(stream_ms.value_or(0), prewarm_ms);
  a.rec.catchup_rounds += 1;
  a.rec.catchup_ms += round_ms;
  finish_phase(a, Phase::kCatchUp, round_ms);
  if (!stream_ms || a.rec.catchup_rounds >= kMaxCatchupRounds)
    a.phase = Phase::kReady;
  return Ok();
}

bool MigrationManager::ready_to_flip() const {
  return active_ != nullptr && active_->phase == Phase::kReady;
}

Result<void> MigrationManager::flip() {
  if (active_ == nullptr) return {ErrorCode::kConflict, "no cycle in flight"};
  Active& a = *active_;
  if (a.phase != Phase::kReady) return {ErrorCode::kConflict, "target not caught up"};
  drain_engine();
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  reca::Controller& source = mp.leaf(a.leaf);
  a.phase = Phase::kFlip;

  // Whatever trickled in since the last catch-up round ships inside the
  // window — it is the only state transfer that counts as disruption.
  double window_ms = kFlipBarrier.to_millis() + ship_changes(a, source).value_or(0);

  // The atomic flip: standby sessions promote to master, the parent
  // re-adopts the G-switch, shards rebind, apps re-attach.
  a.retired = mp.migrate_leaf(a.leaf, std::move(a.target), a.placement);

  // Per-device role promotions drain through one station inside the window
  // (the Fig. 10 queueing idiom), then the parent's re-adoption costs one
  // control RTT to the new site.
  sim::QueueingStation station(sim::kControllerServiceTime, "migrate-flip", 1);
  sim::TimePoint window_start = a.clock;
  sim::TimePoint done = station.submit_burst(window_start, a.rec.devices);
  window_ms += (done - window_start).to_millis();
  window_ms += a.placement.control_rtt.to_millis();

  a.rec.flip_ms = window_ms;
  a.rec.disruption_ms = window_ms;
  disruption_ms_->observe(window_ms);
  bytes_metric_->inc(a.rec.bytes_total());
  finish_phase(a, Phase::kFlip, window_ms);
  a.phase = Phase::kDrain;
  return Ok();
}

Result<void> MigrationManager::drain() {
  if (active_ == nullptr || active_->phase != Phase::kDrain)
    return {ErrorCode::kConflict, "nothing to drain"};
  Active& a = *active_;
  drain_engine();
  a.retired.reset();  // the source served until the flip; retire it now
  a.rec.drain_ms = a.placement.control_rtt.to_millis();
  finish_phase(a, Phase::kDrain, a.rec.drain_ms);
  close_cycle(a, Phase::kDone, "migrated to " + a.placement.site);
  return Ok();
}

Result<void> MigrationManager::abort(const std::string& reason) {
  if (active_ == nullptr) return {ErrorCode::kConflict, "no cycle in flight"};
  Active& a = *active_;
  if (a.phase == Phase::kFlip || a.phase == Phase::kDrain)
    return {ErrorCode::kConflict, "past the point of no return"};
  drain_engine();
  mgmt::ManagementPlane& mp = *scenario_->mgmt;
  // Roll back: parked sessions drop, the half-built target is discarded,
  // the source never stopped serving.
  for (SwitchId sw : a.prewarmed) {
    if (southbound::SwitchAgent* agent = mp.hub().agent(sw))
      agent->drop_standby(mp.leaf(a.leaf).id());
  }
  a.target.reset();
  close_cycle(a, Phase::kAborted, "abort: " + reason);
  return Ok();
}

Result<MigrationRecord> MigrationManager::migrate_leaf(std::size_t leaf,
                                                       mgmt::LeafPlacement placement,
                                                       sim::TimePoint at) {
  if (auto r = begin(leaf, placement, at); !r.ok()) return r.error();
  if (auto r = stream_snapshot(); !r.ok()) return r.error();
  while (active_ != nullptr && active_->phase == Phase::kCatchUp) {
    if (auto r = catch_up(); !r.ok()) return r.error();
  }
  if (auto r = flip(); !r.ok()) return r.error();
  if (auto r = drain(); !r.ok()) return r.error();
  return records_.back();
}

Phase MigrationManager::phase() const {
  return active_ == nullptr ? Phase::kIdle : active_->phase;
}

std::size_t MigrationManager::completed() const {
  std::size_t n = 0;
  for (const MigrationRecord& r : records_)
    if (r.final_phase == Phase::kDone) ++n;
  return n;
}

std::size_t MigrationManager::aborted() const {
  std::size_t n = 0;
  for (const MigrationRecord& r : records_)
    if (r.final_phase == Phase::kAborted) ++n;
  return n;
}

}  // namespace softmow::migrate
