#include "nos/path_impl.h"

#include "core/log.h"

namespace softmow::nos {

bool route_intact(const Nib& nib, const ComputedRoute& route) {
  auto port_ok = [&](SwitchId sw, PortId port) {
    const SwitchRecord* rec = nib.sw(sw);
    if (rec == nullptr) return false;
    const southbound::PortDesc* desc = rec->port(port);
    return desc != nullptr && desc->up;
  };
  for (std::size_t i = 0; i < route.hops.size(); ++i) {
    const RouteHop& hop = route.hops[i];
    if (!port_ok(hop.sw, hop.in) || !port_ok(hop.sw, hop.out)) return false;
    // Between two hops on *different* switches the flow crosses a link the
    // controller discovered; it must still be up. (Consecutive hops on the
    // same switch are middlebox detours — no link involved.)
    if (i + 1 < route.hops.size() && !(route.hops[i + 1].sw == hop.sw)) {
      const LinkRecord* link = nib.link_at(Endpoint{hop.sw, hop.out});
      if (link == nullptr || !link->up) return false;
    }
  }
  return true;
}

PathImplementer::PathImplementer(DeviceBus* bus, std::uint32_t controller_tag,
                                 std::uint8_t level, Nib* nib)
    : bus_(bus), nib_(nib), controller_tag_(controller_tag & 0x7ff), level_(level) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const obs::Labels by_level{{"level", std::to_string(level)}};
  setups_metric_ = reg.counter("path_setups_total", by_level);
  flowmods_metric_ = reg.counter("flowmods_sent_total", by_level);
  label_push_metric_ = reg.counter("label_pushes_total", by_level);
}

Label PathImplementer::allocate_label() {
  // Partitioned label space: high bits identify the allocating controller,
  // low 20 bits are a per-controller sequence (~1M concurrent labels).
  std::uint32_t value = (controller_tag_ << 20) | static_cast<std::uint32_t>(next_label_++ & 0xfffff);
  return Label{value, level_};
}

PathImplementer::HopRules PathImplementer::hop_rules(const InstalledPath& p) {
  return {p.classifier, p.label, p.route, p.options, false};
}

PathImplementer::HopRules PathImplementer::hop_rules(const TagAggregate& agg) {
  // Shared rules start at the second hop: they match on the tag alone.
  static const dataplane::Match kTagOnly;
  return {kTagOnly, agg.tag, agg.route, agg.options, true};
}

Result<PathId> PathImplementer::setup(const ComputedRoute& route,
                                      dataplane::Match classifier,
                                      PathSetupOptions options) {
  SHARD_CHECKED(guard_, kWrite);
  if (route.hops.empty())
    return Error{ErrorCode::kInvalidArgument, "route has no switch traversals"};

  InstalledPath p;
  p.id = PathId{next_path_++};
  p.classifier = std::move(classifier);
  p.options = std::move(options);
  place(p, route);
  if (auto attached = attach(p); !attached.ok()) return attached.error();
  PathId id = p.id;
  paths_.emplace(id, std::move(p));
  setups_metric_->inc();
  return id;
}

void PathImplementer::place(InstalledPath& p, const ComputedRoute& route) {
  p.route = route;
  if (p.options.shared_tag.has_value() && route.hops.size() > 1) {
    p.label = *p.options.shared_tag;
  } else {
    // Single-switch tagged routes degenerate to plain paths: there is no
    // transit state to share and the local classifier says it all.
    p.options.shared_tag.reset();
    p.label = allocate_label();
  }
}

Result<void> PathImplementer::attach(InstalledPath& p) {
  bool tagged = p.options.shared_tag.has_value();
  if (tagged) {
    auto agg = ensure_aggregate(p.label, p.route, p.options);
    if (!agg.ok()) return agg;
    // Attach to the aggregate's route: it is the route actually programmed
    // (an existing aggregate may predate — and outlive — the offered one).
    p.route = aggregates_.at(p.label.value).route;
  }

  // Resources first: failing admission must not leave half a path behind.
  auto acquired = acquire_resources(p);
  if (!acquired.ok()) {
    if (tagged) gc_aggregate(p.label.value);
    return acquired;
  }
  // A tagged path owns only its first-hop classifier; the aggregate holds
  // the rest.
  auto installed = program(hop_rules(p), 0, tagged ? 1 : p.route.hops.size(), p.rules);
  if (!installed.ok()) {
    release_resources(p);
    if (tagged) gc_aggregate(p.label.value);
    return installed;
  }
  if (tagged) ++aggregates_.at(p.label.value).refs;
  return Ok();
}

void PathImplementer::detach(InstalledPath& p) {
  remove(p.rules);
  release_resources(p);
  if (!p.options.shared_tag) return;
  auto agg = aggregates_.find(p.label.value);
  if (agg != aggregates_.end() && agg->second.refs > 0) {
    --agg->second.refs;
    gc_aggregate(p.label.value);
  }
}

Result<void> PathImplementer::ensure_aggregate(Label tag, const ComputedRoute& route,
                                               const PathSetupOptions& options) {
  auto [it, inserted] = aggregates_.try_emplace(tag.value);
  TagAggregate& agg = it->second;
  if (inserted) {
    agg.tag = tag;
    agg.route = route;
    agg.options = options;
    auto installed = program(hop_rules(agg), 1, agg.route.hops.size(), agg.rules);
    if (!installed.ok()) {
      aggregates_.erase(it);
      return installed;
    }
    if (tag_allocator_ != nullptr) tag_allocator_->retain(tag.value);
    return Ok();
  }
  // Existing aggregate whose route broke (failure repair): adopt the fresh
  // route offered by the first repaired path and rebuild the shared rules in
  // place. Other attached paths refresh their stored route on their own
  // repair pass.
  if (agg.rules.empty() || (nib_ != nullptr && !route_intact(*nib_, agg.route))) {
    remove(agg.rules);
    agg.route = route;
    agg.options = options;
    return program(hop_rules(agg), 1, agg.route.hops.size(), agg.rules);
  }
  return Ok();
}

void PathImplementer::gc_aggregate(std::uint32_t tag_value) {
  auto it = aggregates_.find(tag_value);
  if (it == aggregates_.end() || it->second.refs != 0) return;
  remove(it->second.rules);
  aggregates_.erase(it);
  // Last path using the aggregate drained: let the allocator recycle the
  // tag's aggregate ids once nothing live references them.
  if (tag_allocator_ != nullptr) tag_allocator_->release(tag_value);
}

Result<void> PathImplementer::acquire_resources(InstalledPath& p) {
  if (nib_ == nullptr || p.options.reserve_kbps <= 0) return Ok();
  const std::vector<RouteHop>& hops = p.route.hops;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i + 1].sw == hops[i].sw) continue;  // middlebox detour: no link
    Endpoint at{hops[i].sw, hops[i].out};
    auto reserved = nib_->reserve_link_bandwidth(at, p.options.reserve_kbps);
    if (!reserved.ok()) {
      release_resources(p);
      return reserved;
    }
    p.reserved_links.push_back(at);
  }
  for (MiddleboxId mb : p.route.middleboxes) {
    const southbound::GMiddleboxAnnounce* rec = nib_->middlebox(mb);
    if (rec == nullptr || rec->total_capacity_kbps <= 0) continue;
    double fraction = p.options.reserve_kbps / rec->total_capacity_kbps;
    if (nib_->adjust_middlebox_utilization(mb, fraction).ok())
      p.reserved_middleboxes.emplace_back(mb, fraction);
  }
  return Ok();
}

void PathImplementer::release_resources(InstalledPath& p) {
  if (nib_ == nullptr) return;
  // Both releases fail only with kNotFound: the link or middlebox left the
  // NIB (failure recovery, region reconfiguration) and took its reservation
  // with it, so there is nothing left to give back.
  for (Endpoint at : p.reserved_links)
    (void)nib_->release_link_bandwidth(at, p.options.reserve_kbps);
  p.reserved_links.clear();
  for (auto& [mb, fraction] : p.reserved_middleboxes)
    (void)nib_->adjust_middlebox_utilization(mb, -fraction);
  p.reserved_middleboxes.clear();
}

dataplane::FlowRule PathImplementer::build_rule(const HopRules& r, std::size_t i,
                                                std::uint64_t cookie) {
  using dataplane::FlowRule;
  const dataplane::Match& classifier = r.classifier;
  const PathSetupOptions& options = r.options;
  const Label label = r.label;
  const std::vector<RouteHop>& hops = r.route.hops;
  const RouteHop& hop = hops[i];
  FlowRule rule;
  rule.cookie = cookie;
  rule.priority = options.priority;

  bool is_first = i == 0;
  bool is_last = i + 1 == hops.size();

  if (is_first && is_last) {
    // Degenerate single-switch path: translate the outer-label intent
    // directly, with no local label at all.
    rule.match = classifier;
    rule.match.in_port = hop.in;
    if (options.version != 0)
      rule.actions.push_back(dataplane::set_version(options.version));
    if (options.outer_pop && options.outer_push) {
      if (options.outer_push->value != classifier.label.value_or(~0u))
        rule.actions.push_back(dataplane::swap_label(*options.outer_push));
      // else: keep the outer label untouched
    } else if (options.outer_pop) {
      rule.actions.push_back(dataplane::pop_label());
    } else if (options.outer_push) {
      rule.actions.push_back(dataplane::push_label(*options.outer_push));
    } else {
      // Stacking mode, degenerate single-switch path: apply the parent's
      // pops/pushes directly.
      for (int pop = 0; pop < options.extra_pops_at_exit; ++pop)
        rule.actions.push_back(dataplane::pop_label());
      for (const Label& under : options.push_under)
        rule.actions.push_back(dataplane::push_label(under));
    }
  } else if (is_first) {
    // Classification at the flow's first switch (§4.3: the access switch
    // performs fine-grained classification and pushes the local label —
    // or the shared policy tag, under tag encapsulation).
    // When translating a parent rule (outer_pop), the parent's label is
    // swapped for the local one so at most one label rides any link.
    rule.match = classifier;
    rule.match.in_port = hop.in;
    if (options.version != 0)
      rule.actions.push_back(dataplane::set_version(options.version));
    if (options.outer_pop) {
      rule.actions.push_back(dataplane::swap_label(label));
    } else {
      for (const Label& under : options.push_under)
        rule.actions.push_back(dataplane::push_label(under));
      rule.actions.push_back(dataplane::push_label(label));
    }
  } else if (is_last) {
    rule.match.label = label.value;
    rule.match.in_port = hop.in;
    if (options.outer_push) {
      // Pop the local label and push back the ancestor's (§4.3).
      rule.actions.push_back(dataplane::swap_label(*options.outer_push));
    } else {
      // The flow leaves this region (or the network): pop the local label.
      rule.actions.push_back(dataplane::pop_label());
      for (int pop = 0; pop < options.extra_pops_at_exit; ++pop)
        rule.actions.push_back(dataplane::pop_label());
    }
  } else {
    rule.match.label = label.value;
    rule.match.in_port = hop.in;
  }
  rule.actions.push_back(dataplane::output(hop.out));
  return rule;
}

southbound::FlowMod PathImplementer::hop_mod(const HopRules& r, std::size_t i,
                                             std::uint64_t cookie) {
  flowmods_metric_->inc();
  southbound::FlowMod mod;
  mod.op = southbound::FlowMod::Op::kAdd;
  mod.sw = r.route.hops[i].sw;
  mod.rule = build_rule(r, i, cookie);
  if (!r.shared) mod.reserve_kbps = r.options.reserve_kbps;
  return mod;
}

Result<void> PathImplementer::program(const HopRules& r, std::size_t first, std::size_t last,
                                      RuleList& rules) {
  // FlowMods for consecutive hops on the same switch share one southbound
  // batch, so a setup costs one delivery per switch instead of one per rule
  // (and one shard handoff under the sharded engine).
  const std::size_t installed_from = rules.size();
  std::vector<southbound::Message> batch;
  SwitchId batch_sw{};
  auto flush = [&]() -> Result<void> {
    if (batch.empty()) return Ok();
    auto sent = bus_->send_batch(batch_sw, batch);
    if (sent.ok())
      for (const southbound::Message& m : batch)
        rules.emplace_back(batch_sw, std::get<southbound::FlowMod>(m).rule.cookie);
    batch.clear();
    return sent;
  };

  for (std::size_t i = first; i < last; ++i) {
    std::uint64_t cookie = r.shared ? shared_tag_cookie(r.label.value, i) : allocate_cookie();
    southbound::FlowMod mod = hop_mod(r, i, cookie);
    if (!r.shared) {
      for (const dataplane::Action& a : mod.rule.actions) {
        // A swap leaves a new label on the wire just like a push (§4.3).
        if (a.type == dataplane::ActionType::kPushLabel ||
            a.type == dataplane::ActionType::kSwapLabel)
          label_push_metric_->inc();
      }
    }
    if (!batch.empty() && batch_sw != mod.sw) {
      if (auto sent = flush(); !sent.ok()) {
        remove(rules, installed_from);
        return sent;
      }
    }
    batch_sw = mod.sw;
    batch.push_back(std::move(mod));
  }
  if (auto sent = flush(); !sent.ok()) {
    remove(rules, installed_from);
    return sent;
  }
  return Ok();
}

void PathImplementer::remove(RuleList& rules, std::size_t from) {
  // Teardown batches per switch too (rules are in install order, so
  // same-switch runs are adjacent).
  std::vector<southbound::Message> batch;
  std::size_t i = from;
  while (i < rules.size()) {
    SwitchId sw = rules[i].first;
    batch.clear();
    for (; i < rules.size() && rules[i].first == sw; ++i) {
      southbound::FlowMod rm;
      rm.op = southbound::FlowMod::Op::kRemoveByCookie;
      rm.sw = sw;
      rm.cookie = rules[i].second;
      batch.push_back(std::move(rm));
    }
    // A send fails only with kNotFound — no channel to `sw` any more (it
    // left this controller) — so no table of ours is left there to clean.
    (void)bus_->send_batch(sw, batch);
  }
  rules.resize(from);
}

Result<void> PathImplementer::deactivate(PathId id) {
  SHARD_CHECKED(guard_, kWrite);
  auto it = paths_.find(id);
  if (it == paths_.end()) return {ErrorCode::kNotFound, "no such path"};
  detach(it->second);
  paths_.erase(it);
  return Ok();
}

Result<void> PathImplementer::reroute(PathId id, const ComputedRoute& route) {
  SHARD_CHECKED(guard_, kWrite);
  auto it = paths_.find(id);
  if (it == paths_.end()) return {ErrorCode::kNotFound, "no such path"};
  detach(it->second);
  if (route.hops.empty()) {
    paths_.erase(it);
    return Error{ErrorCode::kInvalidArgument, "route has no switch traversals"};
  }
  place(it->second, route);
  if (auto attached = attach(it->second); !attached.ok()) {
    paths_.erase(it);
    return attached;
  }
  setups_metric_->inc();
  return Ok();
}

std::size_t PathImplementer::resync_switch(SwitchId sw) {
  SHARD_CHECKED(guard_, kWrite);
  std::size_t pushed = 0;
  std::vector<southbound::Message> batch;
  auto flush = [&] {
    if (!batch.empty() && bus_->send_batch(sw, batch).ok()) pushed += batch.size();
    batch.clear();
  };
  for (const auto& [id, p] : paths_) {
    // Only fully-installed paths have a stable hop<->cookie pairing
    // (rules are pushed in hop order, so rules[i] programs route.hops[i]).
    // Tagged paths own only their first-hop classifier; shared rules are
    // resynced once per aggregate below.
    std::size_t owned = p.options.shared_tag ? 1 : p.route.hops.size();
    if (p.rules.size() != owned) continue;
    for (std::size_t i = 0; i < owned; ++i)
      if (p.route.hops[i].sw == sw) batch.push_back(hop_mod(hop_rules(p), i, p.rules[i].second));
    flush();
  }
  for (const auto& [tag_value, agg] : aggregates_) {
    for (std::size_t i = 1; i < agg.route.hops.size(); ++i)
      if (agg.route.hops[i].sw == sw)
        batch.push_back(hop_mod(hop_rules(agg), i, shared_tag_cookie(tag_value, i)));
    flush();
  }
  return pushed;
}

PathImplementer::Snapshot PathImplementer::snapshot() const {
  Snapshot snap;
  snap.next_label = next_label_;
  snap.next_cookie = next_cookie_;
  snap.next_path = next_path_;
  snap.paths = paths_;
  snap.aggregates = aggregates_;
  return snap;
}

void PathImplementer::restore(Snapshot snap) {
  SHARD_CHECKED(guard_, kWrite);
  // Rebase the allocator's refcounts onto the restored aggregate set (a
  // promoted standby replaces the whole map; the allocator is shared and
  // survives the failover).
  if (tag_allocator_ != nullptr) {
    for (const auto& [tag_value, agg] : aggregates_) tag_allocator_->release(tag_value);
    for (const auto& [tag_value, agg] : snap.aggregates) tag_allocator_->retain(tag_value);
  }
  next_label_ = snap.next_label;
  next_cookie_ = snap.next_cookie;
  next_path_ = snap.next_path;
  paths_ = std::move(snap.paths);
  aggregates_ = std::move(snap.aggregates);
}

std::vector<std::pair<SwitchId, std::uint64_t>> PathImplementer::shared_rules() const {
  std::vector<std::pair<SwitchId, std::uint64_t>> out;
  for (const auto& [tag_value, agg] : aggregates_)
    for (const auto& r : agg.rules) out.push_back(r);
  return out;
}

const InstalledPath* PathImplementer::path(PathId id) const {
  auto it = paths_.find(id);
  return it == paths_.end() ? nullptr : &it->second;
}

std::vector<PathId> PathImplementer::paths() const {
  std::vector<PathId> out;
  out.reserve(paths_.size());
  for (const auto& [id, p] : paths_) out.push_back(id);
  return out;
}

}  // namespace softmow::nos
