#include "nos/discovery.h"

#include "core/log.h"
#include "dataplane/network.h"

namespace softmow::nos {

DiscoveryModule::DiscoveryModule(ControllerId self, Nib* nib, DeviceBus* bus, int level)
    : self_(self), nib_(nib), bus_(bus), level_(level) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const obs::Labels by_level{{"level", std::to_string(level)}};
  rounds_metric_ = reg.counter("discovery_rounds_total", by_level);
  frames_sent_metric_ =
      reg.counter("discovery_frames_total", {{"level", std::to_string(level)}, {"kind", "sent"}});
  frames_received_metric_ = reg.counter(
      "discovery_frames_total", {{"level", std::to_string(level)}, {"kind", "received"}});
  links_metric_ = reg.counter("discovery_links_total", by_level);
}

void DiscoveryModule::on_hello(SwitchId sw) {
  pending_features_.insert(sw);
  southbound::FeaturesRequest req;
  req.xid = Xid{next_xid_++};
  req.sw = sw;
  if (auto sent = bus_->send(sw, req); !sent.ok()) {
    // No request went out, so no reply will clear the entry.
    pending_features_.erase(sw);
    SOFTMOW_LOG(LogLevel::kWarn, "discovery")
        << self_.str() << " cannot ask " << sw.str() << " for features: " << sent.error();
    return;
  }
  ++stats_.features_requests;
}

void DiscoveryModule::on_features_reply(const southbound::FeaturesReply& reply) {
  ++stats_.features_replies;
  pending_features_.erase(reply.sw);

  // On re-announcement (e.g. after region reconfiguration), prune links on
  // ports that no longer exist.
  if (const SwitchRecord* old = nib_->sw(reply.sw)) {
    for (const auto& [pid, desc] : old->ports) {
      bool still_there = false;
      for (const southbound::PortDesc& p : reply.ports) {
        if (p.port == pid) {
          still_there = true;
          break;
        }
      }
      if (!still_there) nib_->remove_links_at(Endpoint{reply.sw, pid});
    }
  }

  SwitchRecord rec;
  rec.id = reply.sw;
  rec.is_gswitch = reply.is_gswitch;
  std::vector<Endpoint> down_ports;
  for (const southbound::PortDesc& p : reply.ports) {
    rec.ports[p.port] = p;
    // Only *physical* switches with a radio port are access switches; a
    // G-switch also carries G-BS attachment ports but is not one.
    if (!reply.is_gswitch && p.peer == dataplane::PeerKind::kBsGroup) rec.is_access = true;
    if (!p.up) down_ports.push_back(Endpoint{reply.sw, p.port});
  }
  rec.vfabric = reply.vfabric;
  nib_->upsert_switch(std::move(rec));
  // Links over ports the device reports down are unusable (§6).
  for (Endpoint e : down_ports) nib_->set_links_at_up(e, false);
}

void DiscoveryModule::run_link_discovery() {
  rounds_metric_->inc();
  // The live control plane runs at sim-time zero: this span contributes
  // causal structure (every frame's descent/ascent attaches under it), while
  // the timing benches model durations on top of the same shape.
  obs::Tracer& tracer = obs::default_tracer();
  obs::TraceContext round =
      tracer.open_span(sim::TimePoint::zero(), "discovery.round", level_, self_.str());
  obs::Tracer::ScopedContext scoped(tracer, round);
  std::uint64_t frames = 0;
  for (SwitchId sw : nib_->switches()) {
    const SwitchRecord* rec = nib_->sw(sw);
    // One batch per switch: every probe frame leaving this device shares a
    // single southbound delivery (and a single shard handoff under the
    // sharded engine).
    std::vector<southbound::Message> batch;
    for (const auto& [pid, desc] : rec->ports) {
      if (desc.peer != dataplane::PeerKind::kSwitch || !desc.up) continue;
      southbound::DiscoveryPayload payload;
      payload.stack.push_back(southbound::DiscoveryStackEntry{self_, sw, pid});
      payload.ctx = round;
      batch.push_back(southbound::PacketOut{sw, pid, std::move(payload)});
    }
    if (batch.empty()) continue;
    // reca::Controller fails a batch whole, before any frame goes out, so a
    // failed batch counts no frame as sent.
    if (auto sent = bus_->send_batch(sw, batch); !sent.ok()) {
      SOFTMOW_LOG(LogLevel::kWarn, "discovery")
          << self_.str() << " cannot probe " << sw.str() << ": " << sent.error();
      continue;
    }
    stats_.frames_sent += batch.size();
    frames += batch.size();
    frames_sent_metric_->inc(batch.size());
  }
  tracer.close_span(round, sim::TimePoint::zero(), std::to_string(frames) + " frames");
}

DiscoveryVerdict DiscoveryModule::on_discovery_packet_in(
    Endpoint at, southbound::DiscoveryPayload& payload) {
  ++stats_.frames_received;
  frames_received_metric_->inc();
  if (payload.stack.empty()) {
    ++stats_.frames_dropped;
    return DiscoveryVerdict::kDrop;
  }
  southbound::DiscoveryStackEntry top = payload.stack.back();
  payload.stack.pop_back();

  if (top.controller == self_) {
    // This controller originated the frame: a link between (top.sw,
    // top.port) and the arrival endpoint exists in *its* topology (§4.1.2).
    EdgeMetrics m;
    m.latency_us = payload.meta.filled ? payload.meta.latency_us : 0.0;
    m.hop_count = 1.0;
    m.bandwidth_kbps = payload.meta.filled ? payload.meta.bandwidth_kbps
                                           : std::numeric_limits<double>::infinity();
    nib_->upsert_link(Endpoint{top.sw, top.port}, at, m);
    ++stats_.links_discovered;
    links_metric_->inc();
    obs::default_tracer().event_under(payload.ctx, sim::TimePoint::zero(), "discovery.link",
                                      level_, self_.str(),
                                      top.sw.str() + ":" + top.port.str() + " <-> " +
                                          at.sw.str() + ":" + at.port.str());
    return DiscoveryVerdict::kConsumed;
  }
  if (payload.stack.empty()) {
    ++stats_.frames_dropped;
    return DiscoveryVerdict::kDrop;  // §4.1.2: no inter G-switch link here
  }
  return DiscoveryVerdict::kForward;
}

std::uint64_t flat_discovery_message_count(const dataplane::PhysicalNetwork& net) {
  std::uint64_t switches = 0, switch_ports = 0;
  for (SwitchId sw : net.all_switches()) {
    ++switches;
    for (const auto& [pid, port] : net.sw(sw)->ports()) {
      if (port.peer == dataplane::PeerKind::kSwitch) ++switch_ports;
    }
  }
  // Hello + FeaturesRequest + FeaturesReply per switch, one LLDP probe sent
  // per switch-facing port, one Packet-In per received probe (every such
  // port also receives its peer's probe).
  return 3 * switches + 2 * switch_ports;
}

}  // namespace softmow::nos
