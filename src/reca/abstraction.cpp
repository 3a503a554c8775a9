#include "reca/abstraction.h"

#include <algorithm>
#include <limits>

#include "core/log.h"
#include "nos/port_graph.h"

namespace softmow::reca {

using nos::port_key;

TopologyAbstraction::TopologyAbstraction(ControllerId self, int level, const nos::Nib* nib,
                                         const nos::RoutingService* routing)
    : self_(self), level_(level), gswitch_id_(gswitch_id_for(self)), nib_(nib),
      routing_(routing) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const std::string lvl = std::to_string(level);
  full_refresh_metric_ =
      reg.counter("abstraction_refresh_total", {{"level", lvl}, {"kind", "full"}});
  bandwidth_refresh_metric_ =
      reg.counter("abstraction_refresh_total", {{"level", lvl}, {"kind", "bandwidth"}});
  entries_recomputed_metric_ = reg.counter("vfabric_entries_recomputed_total", {{"level", lvl}});
}

void TopologyAbstraction::set_border_gbs(std::set<GBsId> border) {
  border_gbs_ = std::move(border);
  dirty_ = true;
}

PortId TopologyAbstraction::exposed_port_for(Endpoint local) {
  auto it = local_to_port_.find(local);
  if (it != local_to_port_.end()) return it->second;
  PortId p{next_port_++};
  local_to_port_.emplace(local, p);
  port_to_local_.emplace(p, local);
  return p;
}

void TopologyAbstraction::refresh() {
  if (dirty_)
    recompute();
  else if (nib_->bandwidth_epoch() != seen_bandwidth_epoch_)
    refresh_bandwidth();
}

void TopologyAbstraction::refresh_bandwidth() {
  if (!paths_built_) build_paths();
  const std::vector<nos::LinkRecord>& links = nib_->links();
  ++refresh_stamp_;
  std::uint64_t recomputed = 0;
  bool changed = false;
  for (std::uint32_t slot = 0; slot + 1 < link_begin_.size(); ++slot) {
    if (links[slot].bandwidth_epoch <= seen_bandwidth_epoch_) continue;
    for (std::uint32_t k = link_begin_[slot]; k < link_begin_[slot + 1]; ++k) {
      const std::uint32_t entry = link_entries_[k];
      if (entry_stamp_[entry] == refresh_stamp_) continue;
      entry_stamp_[entry] = refresh_stamp_;
      ++recomputed;
      double bandwidth = fixed_bandwidth_[entry];
      for (std::uint32_t j = path_begin_[entry]; j < path_begin_[entry + 1]; ++j)
        bandwidth = std::min(bandwidth, links[path_slots_[j]].metrics.bandwidth_kbps);
      double& exposed = features_.vfabric[entry].metrics.bandwidth_kbps;
      if (bandwidth != exposed) {
        exposed = bandwidth;
        changed = true;
      }
    }
  }
  seen_bandwidth_epoch_ = nib_->bandwidth_epoch();
  if (changed) ++vfabric_generation_;
  bandwidth_refresh_metric_->inc();
  entries_recomputed_metric_->inc(recomputed);
}

void TopologyAbstraction::build_paths() {
  const Graph& graph = routing_->port_graph();
  const nos::PortGraphLinks& links = routing_->port_graph_links();
  path_slots_.clear();
  path_begin_.assign(1, 0);
  fixed_bandwidth_.clear();
  // Same loops as recompute()'s step 4, so entries line up with the vFabric.
  for (const Endpoint& from : exposed_locals_) {
    auto reach = routing_->reachability(from, Metric::kHops, &tree_);
    for (const Endpoint& to : exposed_locals_) {
      if (from == to) continue;
      const NodeKey to_key = port_key(to.sw, to.port);
      if (!reach.contains(to_key)) continue;
      const Result<GraphPath> path = graph.tree_path(tree_, to_key);
      double fixed = std::numeric_limits<double>::infinity();
      for (const EdgeKey edge : path->edges) {
        const std::uint32_t slot = links.slot_of(edge);
        if (slot == nos::PortGraphLinks::kNoLink)
          fixed = std::min(fixed, graph.edge(edge)->metrics.bandwidth_kbps);
        else
          path_slots_.push_back(slot);
      }
      fixed_bandwidth_.push_back(fixed);
      path_begin_.push_back(static_cast<std::uint32_t>(path_slots_.size()));
    }
  }

  // Counting sort of (slot, entry) pairs by slot; entries stay ascending
  // within a slot.
  link_begin_.assign(nib_->links().size() + 1, 0);
  for (std::uint32_t slot : path_slots_) ++link_begin_[slot + 1];
  for (std::size_t s = 1; s < link_begin_.size(); ++s) link_begin_[s] += link_begin_[s - 1];
  link_entries_.resize(path_slots_.size());
  std::vector<std::uint32_t> fill(link_begin_.begin(), link_begin_.end() - 1);
  for (std::uint32_t entry = 0; entry + 1 < path_begin_.size(); ++entry) {
    for (std::uint32_t j = path_begin_[entry]; j < path_begin_[entry + 1]; ++j)
      link_entries_[fill[path_slots_[j]]++] = entry;
  }
  entry_stamp_.assign(fixed_bandwidth_.size(), 0);
  paths_built_ = true;
}

void TopologyAbstraction::recompute() {
  dirty_ = false;
  seen_bandwidth_epoch_ = nib_->bandwidth_epoch();
  ++vfabric_generation_;
  features_ = southbound::FeaturesReply{};
  features_.sw = gswitch_id_;
  features_.is_gswitch = true;
  exposed_gbs_.clear();
  exposed_gmbs_.clear();

  // Retire mappings for endpoints that no longer exist, keep the rest stable.
  // (Stability matters: the parent's NIB keys rules and links by port.)
  struct Exposure {
    Endpoint local;
    southbound::PortDesc desc;
  };
  std::vector<Exposure> exposures;

  // 1. Egress ports and cross-region candidates from switch records (§3.1:
  //    each G-switch port "is connected to either Internet domains or
  //    neighboring regions").
  for (SwitchId sw : nib_->switches()) {
    const nos::SwitchRecord* rec = nib_->sw(sw);
    for (const auto& [pid, desc] : rec->ports) {
      Endpoint local{sw, pid};
      if (desc.peer == dataplane::PeerKind::kExternal) {
        southbound::PortDesc d = desc;
        exposures.push_back({local, d});
      } else if (desc.peer == dataplane::PeerKind::kSwitch && desc.up &&
                 !nib_->endpoint_linked(local)) {
        // A switch-facing port with no locally-discovered link leads out of
        // this region: it becomes a border port the parent can discover
        // links on.
        southbound::PortDesc d = desc;
        exposures.push_back({local, d});
      }
    }
  }

  // 2. G-BS exposure (§5.2): border G-BSes 1:1, internals aggregated.
  southbound::GBsAnnounce internal_agg;
  internal_agg.gbs = internal_gbs_id_for(self_);
  internal_agg.is_border = false;
  bool have_internal = false;
  std::size_t internal_count = 0;
  double cx = 0, cy = 0, cr = 0;
  Endpoint first_internal_attach;
  std::vector<Endpoint> internal_attaches;
  port_constituents_.clear();

  for (GBsId id : nib_->gbs_list()) {
    const southbound::GBsAnnounce* g = nib_->gbs(id);
    Endpoint local{g->attached_switch, g->attached_port};
    if (border_gbs_.contains(id)) {
      southbound::GBsAnnounce out = *g;
      out.is_border = true;
      southbound::PortDesc d;
      d.peer = dataplane::PeerKind::kBsGroup;
      d.gbs = out.gbs;
      exposures.push_back({local, d});
      exposed_gbs_.push_back(out);  // attach fixed up after port assignment
    } else {
      if (!have_internal) {
        first_internal_attach = local;
        have_internal = true;
      }
      internal_attaches.push_back(local);
      ++internal_count;
      cx += g->centroid.x;
      cy += g->centroid.y;
      cr = std::max(cr, g->coverage_radius);
      internal_agg.constituent_groups.insert(internal_agg.constituent_groups.end(),
                                             g->constituent_groups.begin(),
                                             g->constituent_groups.end());
    }
  }
  if (have_internal) {
    internal_agg.centroid = {cx / static_cast<double>(internal_count),
                             cy / static_cast<double>(internal_count)};
    internal_agg.coverage_radius = cr;
    southbound::PortDesc d;
    d.peer = dataplane::PeerKind::kBsGroup;
    d.gbs = internal_agg.gbs;
    exposures.push_back({first_internal_attach, d});
    exposed_gbs_.push_back(internal_agg);
  }

  // 3. One G-middlebox per type (§3.1), attached at its first instance.
  std::map<dataplane::MiddleboxType, std::vector<const southbound::GMiddleboxAnnounce*>>
      by_type;
  for (MiddleboxId id : nib_->middleboxes()) by_type[nib_->middlebox(id)->type].push_back(nib_->middlebox(id));
  for (auto& [type, instances] : by_type) {
    southbound::GMiddleboxAnnounce agg;
    agg.gmb = MiddleboxId{(1ull << 40) | (self_.value << 8) | static_cast<std::uint64_t>(type)};
    agg.type = type;
    double cap = 0, used = 0;
    for (const auto* m : instances) {
      cap += m->total_capacity_kbps;
      used += m->total_capacity_kbps * m->utilization;
    }
    agg.total_capacity_kbps = cap;
    agg.utilization = cap > 0 ? used / cap : 0.0;
    Endpoint local{instances.front()->attached_switch, instances.front()->attached_port};
    southbound::PortDesc d;
    d.peer = dataplane::PeerKind::kMiddlebox;
    d.middlebox = agg.gmb;
    exposures.push_back({local, d});
    exposed_gmbs_.push_back(agg);
  }

  // Assign stable exposed port numbers and fix up attachment references.
  std::map<GBsId, PortId> gbs_port;
  std::map<MiddleboxId, PortId> gmb_port;
  for (Exposure& e : exposures) {
    PortId exposed = exposed_port_for(e.local);
    e.desc.port = exposed;
    features_.ports.push_back(e.desc);
    if (e.desc.gbs.valid()) gbs_port[e.desc.gbs] = exposed;
    if (e.desc.peer == dataplane::PeerKind::kMiddlebox) gmb_port[e.desc.middlebox] = exposed;
    if (e.desc.gbs == internal_agg.gbs && have_internal)
      port_constituents_[exposed] = internal_attaches;
  }
  for (southbound::GBsAnnounce& g : exposed_gbs_) {
    g.attached_switch = gswitch_id_;
    g.attached_port = gbs_port[g.gbs];
  }
  for (southbound::GMiddleboxAnnounce& m : exposed_gmbs_) {
    m.attached_switch = gswitch_id_;
    m.attached_port = gmb_port[m.gmb];
  }

  // 4. vFabric: best-path metrics between every exposed port pair (§3.2),
  //    computed from the controller's own (port-level) topology.
  exposed_locals_.clear();
  for (const Exposure& e : exposures) exposed_locals_.push_back(e.local);
  paths_built_ = false;
  for (const Exposure& from : exposures) {
    auto tree = routing_->reachability(from.local, Metric::kHops);
    PortId from_port = local_to_port_.at(from.local);
    for (const Exposure& to : exposures) {
      if (from.local == to.local) continue;
      auto it = tree.find(port_key(to.local.sw, to.local.port));
      if (it == tree.end()) continue;  // unreachable pair: no vFabric entry
      features_.vfabric.push_back(
          southbound::VFabricEntry{from_port, local_to_port_.at(to.local), it->second});
    }
  }
  full_refresh_metric_->inc();
  entries_recomputed_metric_->inc(features_.vfabric.size());

  SOFTMOW_LOG(LogLevel::kDebug, "reca")
      << self_.str() << " abstraction: " << features_.ports.size() << " ports, "
      << features_.vfabric.size() << " vfabric entries, " << exposed_gbs_.size()
      << " G-BSes, " << exposed_gmbs_.size() << " G-middleboxes";
}

std::optional<Endpoint> TopologyAbstraction::to_local(PortId exposed) const {
  auto it = port_to_local_.find(exposed);
  if (it == port_to_local_.end()) return std::nullopt;
  return it->second;
}

std::optional<PortId> TopologyAbstraction::to_exposed(Endpoint local) const {
  auto it = local_to_port_.find(local);
  if (it == local_to_port_.end()) return std::nullopt;
  return it->second;
}

std::vector<Endpoint> TopologyAbstraction::constituents(PortId exposed) const {
  auto it = port_constituents_.find(exposed);
  if (it != port_constituents_.end()) return it->second;
  auto single = to_local(exposed);
  if (single) return {*single};
  return {};
}

TopologyAbstraction::Stats TopologyAbstraction::stats() const {
  Stats s;
  for (SwitchId sw : nib_->switches()) {
    const nos::SwitchRecord* rec = nib_->sw(sw);
    s.total_ports += rec->ports.size();
    if (rec->is_access) continue;
    ++s.switches;
    s.ports += rec->ports.size();
  }
  s.links = nib_->links().size();
  s.exposed_ports = features_.ports.size();
  return s;
}

}  // namespace softmow::reca
