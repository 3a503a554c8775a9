#include "nos/routing.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>

#include "core/log.h"

namespace softmow::nos {

namespace {

/// Maximum middlebox utilization at which an instance is still eligible.
constexpr double kMaxMiddleboxUtilization = 0.95;

/// Appends `seg` to `acc` (which may be empty), merging the junction node.
void stitch(GraphPath& acc, const GraphPath& seg) {
  if (acc.nodes.empty()) {
    acc = seg;
    return;
  }
  // The segment starts where the accumulator ends.
  acc.nodes.insert(acc.nodes.end(), seg.nodes.begin() + 1, seg.nodes.end());
  acc.edges.insert(acc.edges.end(), seg.edges.begin(), seg.edges.end());
  acc.metrics = acc.metrics.then(seg.metrics);
}

}  // namespace

RoutingService::RoutingService(const Nib* nib, std::uint8_t level) : nib_(nib) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const std::string by_level = std::to_string(level);
  trees_built_metric_ =
      reg.counter("route_trees_total", {{"level", by_level}, {"result", "built"}});
  trees_reused_metric_ =
      reg.counter("route_trees_total", {{"level", by_level}, {"result", "reused"}});
  floored_hit_metric_ =
      reg.counter("route_trees_total", {{"level", by_level}, {"result", "floored_hit"}});
  floored_miss_metric_ =
      reg.counter("route_trees_total", {{"level", by_level}, {"result", "floored_miss"}});
}

const Graph& RoutingService::port_graph() const {
  if (cache_version_ != nib_->version()) {
    graph_cache_ = build_port_graph(*nib_, &links_cache_);
    trees_.clear();
    cache_version_ = nib_->version();
    cache_bandwidth_epoch_ = nib_->bandwidth_epoch();
  } else if (cache_bandwidth_epoch_ != nib_->bandwidth_epoch()) {
    const std::vector<std::uint32_t>& up_links = links_cache_.slot_of_pair;
    for (std::size_t k = 0; k < up_links.size(); ++k) {
      const LinkRecord& l = nib_->links()[up_links[k]];
      if (l.bandwidth_epoch <= cache_bandwidth_epoch_) continue;
      const EdgeKey ab = links_cache_.first_edge + 2 * k;
      // Up link k owns edges ab and ab + 1 of the graph built with links_cache_.
      for (EdgeKey e : {ab, ab + 1}) {
        [[maybe_unused]] Result<void> patched = graph_cache_.set_edge_metrics(e, l.metrics);
        assert(patched.ok());
      }
    }
    cache_bandwidth_epoch_ = nib_->bandwidth_epoch();
  }
  return graph_cache_;
}

const PathTree& RoutingService::tree_from(NodeKey src, Metric objective) const {
  auto [it, fresh] = trees_.try_emplace({src, objective});
  if (fresh) {
    it->second = graph_cache_.path_tree(src, objective);
    trees_built_metric_->inc();
  } else {
    trees_reused_metric_->inc();
  }
  return it->second;
}

core::FlatMap<NodeKey, EdgeMetrics> RoutingService::reachability(Endpoint source, Metric metric,
                                                                 PathTree* via) const {
  return port_graph().shortest_tree(port_key(source.sw, source.port), metric, via);
}

Result<ComputedRoute> RoutingService::route(const RoutingRequest& req) const {
  std::vector<ExternalRoute> candidates;
  if (req.dst) {
    candidates.push_back(ExternalRoute{*req.dst, PrefixId{}, 0.0, 0.0});
  } else if (req.dst_prefix) {
    auto routes = nib_->external_routes(*req.dst_prefix);
    candidates.assign(routes.begin(), routes.end());
    if (candidates.empty())
      return Error{ErrorCode::kNotFound,
                   "no interdomain route for prefix " + req.dst_prefix->str()};
  } else {
    return Error{ErrorCode::kInvalidArgument, "request has neither dst nor dst_prefix"};
  }
  return route_to_candidates(req, candidates);
}

Result<ComputedRoute> RoutingService::route_to_candidates(
    const RoutingRequest& req, const std::vector<ExternalRoute>& candidates) const {
  const Graph& g = port_graph();
  NodeKey src_key = port_key(req.source.sw, req.source.port);
  if (!g.has_node(src_key))
    return Error{ErrorCode::kNotFound, "source port not in topology"};

  // Resolve middlebox stages.
  std::vector<std::vector<StageNode>> stages;
  stages.push_back({StageNode{req.source, MiddleboxId{}}});
  for (dataplane::MiddleboxType type : req.policy.chain) {
    std::vector<StageNode> instances;
    for (MiddleboxId id : nib_->middleboxes_of_type(type)) {
      const southbound::GMiddleboxAnnounce* mb = nib_->middlebox(id);
      if (mb->utilization >= kMaxMiddleboxUtilization) continue;
      Endpoint at{mb->attached_switch, mb->attached_port};
      if (!g.has_node(port_key(at.sw, at.port))) continue;
      instances.push_back(StageNode{at, id});
    }
    if (instances.empty())
      return Error{ErrorCode::kUnsatisfiable,
                   std::string("no available middlebox of type ") + to_string(type)};
    stages.push_back(std::move(instances));
  }

  // Shortest segments, bandwidth-filtered only (latency and hop bounds are
  // checked on the stitched total). Every segment first reads the source's
  // cached tree, which gives shortest_path's answer edge for edge; under a
  // bandwidth floor that holds whenever the tree path clears the floor on
  // every edge (the search's own per-edge test) or the destination is
  // unreached (DESIGN §5 item 3). Otherwise the floored search runs,
  // memoized per call.
  const double floor_kbps = req.constraints.min_bandwidth_kbps;
  const bool best_effort = floor_kbps == 0.0;
  std::map<std::pair<NodeKey, NodeKey>, Result<GraphPath>> memo;
  auto segment = [&](Endpoint from, Endpoint to) -> Result<GraphPath> {
    auto key = std::make_pair(port_key(from.sw, from.port), port_key(to.sw, to.port));
    Result<GraphPath> cached = g.tree_path(tree_from(key.first, req.objective), key.second);
    if (best_effort) return cached;
    if (!cached.ok() || cached->metrics.bandwidth_kbps + 1e-9 >= floor_kbps) {
      floored_hit_metric_->inc();
      return cached;
    }
    floored_miss_metric_->inc();
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, g.shortest_path(key.first, key.second, req.objective, floor_kbps))
               .first;
    }
    return it->second;
  };

  // Enumerate middlebox instance combinations (small: |chain| <= 3, few
  // instances per type) x final candidates; keep the best feasible total.
  struct Best {
    double cost = std::numeric_limits<double>::infinity();
    GraphPath path;
    std::vector<MiddleboxId> mbs;
    ExternalRoute candidate;
    bool found = false;
  } best;
  bool any_internal_route = false;

  std::vector<std::size_t> combo(stages.size() - 1, 0);  // index per mb stage
  while (true) {
    // Build the waypoint list for this combination.
    std::vector<StageNode> waypoints;
    waypoints.push_back(stages[0][0]);
    for (std::size_t s = 1; s < stages.size(); ++s)
      waypoints.push_back(stages[s][combo[s - 1]]);

    // Pre-stitch the middlebox portion once, then try every candidate.
    GraphPath prefix_path;
    bool prefix_ok = true;
    std::vector<MiddleboxId> mbs;
    for (std::size_t i = 0; i + 1 < waypoints.size(); ++i) {
      const auto& seg = segment(waypoints[i].at, waypoints[i + 1].at);
      if (!seg.ok()) {
        prefix_ok = false;
        break;
      }
      stitch(prefix_path, seg.value());
      mbs.push_back(waypoints[i + 1].middlebox);
    }
    if (prefix_ok) {
      Endpoint tail_from = waypoints.back().at;
      for (const ExternalRoute& cand : candidates) {
        const auto& seg = segment(tail_from, cand.egress);
        if (!seg.ok()) continue;
        GraphPath total = prefix_path;
        if (total.nodes.empty() && seg->nodes.empty()) continue;
        stitch(total, seg.value());
        any_internal_route = true;

        EdgeMetrics with_ext = total.metrics;
        with_ext.latency_us += cand.latency_us;
        with_ext.hop_count += cand.hops;
        if (!req.constraints.satisfied_by(with_ext)) continue;

        double cost = req.objective == Metric::kLatency ? with_ext.latency_us
                                                        : with_ext.hop_count;
        if (cost < best.cost) {
          best.cost = cost;
          best.path = std::move(total);
          best.mbs = mbs;
          best.candidate = cand;
          best.found = true;
        }
      }
    }

    // Advance the combination counter.
    if (combo.empty()) break;
    std::size_t s = 0;
    for (; s < combo.size(); ++s) {
      if (++combo[s] < stages[s + 1].size()) break;
      combo[s] = 0;
    }
    if (s == combo.size()) break;
  }

  if (!best.found) {
    if (!any_internal_route)
      return Error{ErrorCode::kNotFound, "no internal route to any egress/destination"};
    return Error{ErrorCode::kUnsatisfiable, "no route satisfies the constraints"};
  }

  ComputedRoute out;
  out.port_path = std::move(best.path);
  out.hops = hops_from_path(out.port_path);
  out.source = req.source;
  out.exit = key_endpoint(out.port_path.nodes.back());
  out.internal = out.port_path.metrics;
  out.external_hops = best.candidate.hops;
  out.external_latency_us = best.candidate.latency_us;
  out.middleboxes = std::move(best.mbs);
  if (req.dst_prefix) {
    out.prefix = *req.dst_prefix;
    if (const SwitchRecord* rec = nib_->sw(out.exit.sw)) {
      if (const southbound::PortDesc* pd = rec->port(out.exit.port)) {
        if (pd->egress.valid()) out.egress_id = pd->egress;
      }
    }
  }
  return out;
}

}  // namespace softmow::nos
