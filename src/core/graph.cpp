#include "core/graph.h"

#include <algorithm>
#include <cassert>

namespace softmow {

void Graph::add_node(NodeKey node) { adjacency_.try_emplace(node); }

bool Graph::has_node(NodeKey node) const { return adjacency_.contains(node); }

std::vector<NodeKey> Graph::nodes() const {
  std::vector<NodeKey> out;
  out.reserve(adjacency_.size());
  for (const auto& [node, edges] : adjacency_) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

EdgeKey Graph::add_edge(NodeKey from, NodeKey to, EdgeMetrics metrics) {
  add_node(from);
  add_node(to);
  EdgeKey id = static_cast<EdgeKey>(edges_.size()) + 1;
  edges_.push_back(GraphEdge{id, from, to, metrics, /*up=*/true});
  ++live_edges_;
  adjacency_.at(from).push_back(id);
  return id;
}

std::pair<EdgeKey, EdgeKey> Graph::add_bidirectional(NodeKey a, NodeKey b,
                                                     EdgeMetrics metrics) {
  return {add_edge(a, b, metrics), add_edge(b, a, metrics)};
}

void Graph::remove_edge(EdgeKey edge) {
  if (edge == 0 || edge > edges_.size()) return;
  GraphEdge& e = edges_[edge - 1];
  if (e.id == 0) return;
  auto* list = adjacency_.find_value(e.from);
  if (list != nullptr) list->erase(std::remove(list->begin(), list->end(), edge), list->end());
  e = GraphEdge{};  // id 0 marks the hole; keys are never reissued
  --live_edges_;
}

void Graph::remove_node(NodeKey node) {
  auto* list = adjacency_.find_value(node);
  if (list == nullptr) return;
  // Collect every edge that touches `node` (out-edges are in its adjacency
  // list; in-edges require a scan).
  std::vector<EdgeKey> doomed = *list;
  for (const GraphEdge& e : edges_) {
    if (e.id != 0 && e.to == node) doomed.push_back(e.id);
  }
  for (EdgeKey e : doomed) remove_edge(e);
  adjacency_.erase(node);
}

Result<void> Graph::set_edge_up(EdgeKey edge, bool up) {
  if (edge == 0 || edge > edges_.size() || edges_[edge - 1].id == 0)
    return {ErrorCode::kNotFound, "no such edge"};
  edges_[edge - 1].up = up;
  return Ok();
}

Result<void> Graph::set_edge_metrics(EdgeKey edge, EdgeMetrics metrics) {
  if (edge == 0 || edge > edges_.size() || edges_[edge - 1].id == 0)
    return {ErrorCode::kNotFound, "no such edge"};
  edges_[edge - 1].metrics = metrics;
  return Ok();
}

const GraphEdge* Graph::edge(EdgeKey edge) const {
  if (edge == 0 || edge > edges_.size()) return nullptr;
  const GraphEdge& e = edges_[edge - 1];
  return e.id == 0 ? nullptr : &e;
}

std::span<const EdgeKey> Graph::out_edges(NodeKey node) const {
  const auto* list = adjacency_.find_value(node);
  if (list == nullptr) return {};
  return {list->data(), list->size()};
}

std::vector<const GraphEdge*> Graph::all_edges() const {
  std::vector<const GraphEdge*> out;
  out.reserve(live_edges_);
  for (const GraphEdge& e : edges_) {
    if (e.id != 0) out.push_back(&e);  // dense store is already in id order
  }
  return out;
}

namespace {

double primary_of(const EdgeMetrics& m, Metric metric) {
  return metric == Metric::kLatency ? m.latency_us : m.hop_count;
}
double secondary_of(const EdgeMetrics& m, Metric metric) {
  return metric == Metric::kLatency ? m.hop_count : m.latency_us;
}

/// Min-heap order over (primary, secondary) for std::push_heap/pop_heap
/// (std::push_heap builds a max-heap, so inverting the order puts the
/// minimum at the front). Templated so it deduces Graph's private HeapItem.
struct HeapGreater {
  template <class Item>
  bool operator()(const Item& a, const Item& b) const {
    if (a.primary != b.primary) return a.primary > b.primary;
    return a.secondary > b.secondary;
  }
};

}  // namespace

std::uint32_t Graph::node_index(NodeKey node) const {
  auto it = adjacency_.find(node);
  if (it == adjacency_.end()) return kNoNode;
  return static_cast<std::uint32_t>(it - adjacency_.begin());
}

void Graph::begin_query() const {
  Scratch& s = scratch_;
  const std::size_t n = adjacency_.size();
  if (s.node_epoch.size() < n) {
    s.node_epoch.resize(n, 0);
    s.primary.resize(n);
    s.secondary.resize(n);
    s.via_edge.resize(n);
    s.via_node.resize(n);
    s.settled.resize(n);
    s.metrics.resize(n);
    s.tree_pos.resize(n);
  }
  ++s.epoch;
  s.heap.clear();
  s.order.clear();
}

void Graph::clear_bans() const {
  Scratch& s = scratch_;
  if (s.ban_node_epoch.size() < adjacency_.size()) s.ban_node_epoch.resize(adjacency_.size(), 0);
  if (s.ban_edge_epoch.size() < edges_.size()) s.ban_edge_epoch.resize(edges_.size(), 0);
  ++s.ban_epoch;
  s.any_ban = false;
}

void Graph::ban_node(NodeKey node) const {
  std::uint32_t index = node_index(node);
  if (index == kNoNode) return;
  scratch_.ban_node_epoch[index] = scratch_.ban_epoch;
  scratch_.any_ban = true;
}

void Graph::ban_edge(EdgeKey edge) const {
  if (edge == 0 || edge > edges_.size()) return;
  scratch_.ban_edge_epoch[edge - 1] = scratch_.ban_epoch;
  scratch_.any_ban = true;
}

bool Graph::node_banned(std::uint32_t index) const {
  return scratch_.ban_node_epoch[index] == scratch_.ban_epoch;
}

bool Graph::edge_banned(EdgeKey edge) const {
  return scratch_.ban_edge_epoch[edge - 1] == scratch_.ban_epoch;
}

void Graph::touch(std::uint32_t index) const {
  Scratch& s = scratch_;
  if (s.node_epoch[index] == s.epoch) return;
  s.node_epoch[index] = s.epoch;
  s.primary[index] = std::numeric_limits<double>::infinity();
  s.secondary[index] = std::numeric_limits<double>::infinity();
  s.via_edge[index] = 0;
  s.settled[index] = 0;
}

template <bool kSecondaryTies>
void Graph::search(std::uint32_t src_index, std::uint32_t dst_index, Metric metric,
                   double min_bandwidth_kbps) const {
  begin_query();
  Scratch& s = scratch_;
  touch(src_index);
  s.primary[src_index] = 0.0;
  s.secondary[src_index] = 0.0;
  s.heap.push_back({0.0, 0.0, src_index});
  const bool bans = s.any_ban;  // only Yen's spur searches carry bans

  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), HeapGreater{});
    HeapItem item = s.heap.back();
    s.heap.pop_back();
    if (s.settled[item.node] != 0) continue;
    s.settled[item.node] = 1;
    s.order.push_back(item.node);
    if (item.node == dst_index) break;

    for (EdgeKey ek : (adjacency_.begin() + item.node)->second) {
      if (bans && edge_banned(ek)) continue;
      const GraphEdge& e = edges_[ek - 1];
      if (!e.up) continue;
      if (e.metrics.bandwidth_kbps + 1e-9 < min_bandwidth_kbps) continue;
      const std::uint32_t to = node_index(e.to);
      if (bans && node_banned(to)) continue;
      double np = item.primary + primary_of(e.metrics, metric);
      double nsnd = item.secondary + secondary_of(e.metrics, metric);
      touch(to);
      if (s.settled[to] != 0) continue;
      if (np < s.primary[to] ||
          (kSecondaryTies && np == s.primary[to] && nsnd < s.secondary[to])) {
        s.primary[to] = np;
        s.secondary[to] = nsnd;
        s.via_edge[to] = ek;
        s.via_node[to] = item.node;
        s.heap.push_back({np, nsnd, to});
        std::push_heap(s.heap.begin(), s.heap.end(), HeapGreater{});
      }
    }
  }
}

GraphPath Graph::via_path(std::span<const EdgeKey> via_edge, NodeKey src, NodeKey dst) const {
  GraphPath path;
  NodeKey cur = dst;
  while (cur != src) {
    EdgeKey via = via_edge[node_index(cur)];
    const GraphEdge& e = edges_[via - 1];
    path.edges.push_back(via);
    path.nodes.push_back(cur);
    cur = e.from;
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  path.metrics = EdgeMetrics{0.0, 0.0, std::numeric_limits<double>::infinity()};
  for (EdgeKey ek : path.edges) path.metrics = path.metrics.then(edges_[ek - 1].metrics);
  return path;
}

Result<GraphPath> Graph::dijkstra(NodeKey src, NodeKey dst, Metric metric,
                                  const PathConstraints& constraints) const {
  const std::uint32_t src_index = node_index(src);
  const std::uint32_t dst_index = node_index(dst);
  if (src_index == kNoNode || dst_index == kNoNode)
    return Error{ErrorCode::kNotFound, "src or dst not in graph"};
  if (node_banned(src_index) || node_banned(dst_index))
    return Error{ErrorCode::kNotFound, "endpoint banned"};

  search<true>(src_index, dst_index, metric, constraints.min_bandwidth_kbps);
  const Scratch& s = scratch_;
  if (s.node_epoch[dst_index] != s.epoch || s.settled[dst_index] == 0)
    return Error{ErrorCode::kNotFound, "no path"};
  return via_path(s.via_edge, src, dst);
}

PathTree Graph::path_tree(NodeKey src, Metric metric) const {
  PathTree tree;
  tree.src = src;
  const std::uint32_t src_index = node_index(src);
  if (src_index == kNoNode) return tree;
  clear_bans();
  search<true>(src_index, kNoNode, metric, 0.0);
  const Scratch& s = scratch_;
  tree.via_edge.assign(adjacency_.size(), 0);
  for (std::uint32_t i : s.order) tree.via_edge[i] = s.via_edge[i];
  return tree;
}

Result<GraphPath> Graph::tree_path(const PathTree& tree, NodeKey dst) const {
  const std::uint32_t dst_index = node_index(dst);
  if (tree.via_edge.empty() || dst_index == kNoNode)
    return Error{ErrorCode::kNotFound, "src or dst not in graph"};
  assert(tree.via_edge.size() == adjacency_.size());
  if (dst != tree.src && tree.via_edge[dst_index] == 0)
    return Error{ErrorCode::kNotFound, "no path"};
  return via_path(tree.via_edge, tree.src, dst);
}

Result<GraphPath> Graph::shortest_path(NodeKey src, NodeKey dst, Metric metric,
                                       const PathConstraints& constraints) const {
  if (src == dst && has_node(src)) {
    GraphPath trivial;
    trivial.nodes = {src};
    trivial.metrics = EdgeMetrics{0.0, 0.0, std::numeric_limits<double>::infinity()};
    return trivial;
  }
  clear_bans();
  auto best = dijkstra(src, dst, metric, constraints);
  if (!best.ok()) return best;
  if (constraints.satisfied_by(best->metrics)) return best;

  // The path optimal in `metric` violates a constraint on the other metric:
  // retry optimizing the other metric (exact when only one bound is active),
  // then a small sweep of weighted combinations as a heuristic fallback.
  Metric other = metric == Metric::kLatency ? Metric::kHops : Metric::kLatency;
  clear_bans();
  auto alt = dijkstra(src, dst, other, constraints);
  if (alt.ok() && constraints.satisfied_by(alt->metrics)) return alt;

  for (const GraphPath& candidate :
       k_shortest_paths(src, dst, 16, metric,
                        PathConstraints{.min_bandwidth_kbps = constraints.min_bandwidth_kbps})) {
    if (constraints.satisfied_by(candidate.metrics)) return candidate;
  }
  return Error{ErrorCode::kUnsatisfiable, "no path within constraints"};
}

core::FlatMap<NodeKey, EdgeMetrics> Graph::shortest_tree(NodeKey src, Metric metric,
                                                         double min_bandwidth_kbps,
                                                         std::vector<TreeVia>* via) const {
  core::FlatMap<NodeKey, EdgeMetrics> best;
  const std::uint32_t src_index = node_index(src);
  if (src_index == kNoNode) return best;

  // Keyed on the primary metric alone; bandwidth is the bottleneck along the
  // chosen (primary-optimal) path, matching vFabric semantics. Each node's
  // metrics fold from its parent's, which settled before it.
  clear_bans();
  search<false>(src_index, kNoNode, metric, min_bandwidth_kbps);
  Scratch& s = scratch_;
  s.metrics[src_index] = EdgeMetrics{0.0, 0.0, std::numeric_limits<double>::infinity()};
  for (std::uint32_t i : s.order) {
    if (i == src_index) continue;
    s.metrics[i] = s.metrics[s.via_node[i]].then(edges_[s.via_edge[i] - 1].metrics);
  }

  // Emit in node-insertion order: deterministic, unlike the old
  // unordered_map drain.
  best.reserve(adjacency_.size());
  for (std::uint32_t i = 0; i < adjacency_.size(); ++i) {
    if (s.node_epoch[i] == s.epoch && s.settled[i] != 0)
      best.try_emplace((adjacency_.begin() + i)->first, s.metrics[i]);
  }
  if (via != nullptr) fill_tree_via(src_index, *via);
  return best;
}

void Graph::fill_tree_via(std::uint32_t src_index, std::vector<TreeVia>& via) const {
  // Same order as shortest_tree's map. Parents start as node indexes, since
  // a parent's position may not be assigned yet, and are then translated.
  Scratch& s = scratch_;
  via.clear();
  for (std::uint32_t i = 0; i < adjacency_.size(); ++i) {
    if (s.node_epoch[i] != s.epoch || s.settled[i] == 0) continue;
    s.tree_pos[i] = static_cast<std::uint32_t>(via.size());
    via.push_back(i == src_index ? TreeVia{} : TreeVia{s.via_edge[i], s.via_node[i]});
  }
  // Every settled node but the root has a settled parent.
  for (TreeVia& v : via) {
    if (v.parent != TreeVia::kRoot) v.parent = s.tree_pos[v.parent];
  }
}

std::vector<GraphPath> Graph::k_shortest_paths(NodeKey src, NodeKey dst, std::size_t k,
                                               Metric metric,
                                               const PathConstraints& constraints) const {
  std::vector<GraphPath> result;
  if (k == 0) return result;
  PathConstraints bw_only{.min_bandwidth_kbps = constraints.min_bandwidth_kbps};
  clear_bans();
  auto first = dijkstra(src, dst, metric, bw_only);
  if (!first.ok()) return result;
  result.push_back(std::move(first).value());

  auto path_less = [metric](const GraphPath& a, const GraphPath& b) {
    if (a.cost(metric) != b.cost(metric)) return a.cost(metric) < b.cost(metric);
    return a.edges < b.edges;
  };
  std::vector<GraphPath> candidates;

  while (result.size() < k) {
    const GraphPath& prev = result.back();
    // Spur from every node of the previous path (Yen).
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      NodeKey spur_node = prev.nodes[i];
      clear_bans();
      // Ban edges that would recreate an already-found path sharing this root.
      for (const GraphPath& p : result) {
        if (p.nodes.size() > i &&
            std::equal(p.nodes.begin(), p.nodes.begin() + static_cast<long>(i) + 1,
                       prev.nodes.begin())) {
          if (p.edges.size() > i) ban_edge(p.edges[i]);
        }
      }
      // Ban root-path nodes (loop-free paths).
      for (std::size_t j = 0; j < i; ++j) ban_node(prev.nodes[j]);

      auto spur = dijkstra(spur_node, dst, metric, bw_only);
      if (!spur.ok()) continue;

      GraphPath total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + static_cast<long>(i));
      total.edges.assign(prev.edges.begin(), prev.edges.begin() + static_cast<long>(i));
      total.nodes.insert(total.nodes.end(), spur->nodes.begin(), spur->nodes.end());
      total.edges.insert(total.edges.end(), spur->edges.begin(), spur->edges.end());
      total.metrics = EdgeMetrics{0.0, 0.0, std::numeric_limits<double>::infinity()};
      for (EdgeKey ek : total.edges) total.metrics = total.metrics.then(edges_[ek - 1].metrics);

      bool duplicate =
          std::any_of(result.begin(), result.end(),
                      [&](const GraphPath& p) { return p.edges == total.edges; }) ||
          std::any_of(candidates.begin(), candidates.end(),
                      [&](const GraphPath& p) { return p.edges == total.edges; });
      if (!duplicate) candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(), path_less);
    result.push_back(std::move(*best));
    candidates.erase(best);
  }

  // Apply latency/hop constraints at the end so near-optimal alternates
  // remain available to constrained callers.
  if (constraints.max_latency_us || constraints.max_hops) {
    std::erase_if(result, [&](const GraphPath& p) {
      return !constraints.satisfied_by(p.metrics);
    });
  }
  return result;
}

bool Graph::connected_from(NodeKey src) const {
  const std::uint32_t src_index = node_index(src);
  if (src_index == kNoNode) return adjacency_.empty();
  // Reuse the epoch-stamped scratch as the DFS visited set + stack.
  begin_query();
  Scratch& s = scratch_;
  touch(src_index);
  s.settled[src_index] = 1;
  std::size_t seen = 1;
  std::vector<std::uint32_t> stack{src_index};
  while (!stack.empty()) {
    std::uint32_t node = stack.back();
    stack.pop_back();
    for (EdgeKey ek : (adjacency_.begin() + node)->second) {
      const GraphEdge& e = edges_[ek - 1];
      if (!e.up) continue;
      const std::uint32_t to = node_index(e.to);
      touch(to);
      if (s.settled[to] != 0) continue;
      s.settled[to] = 1;
      ++seen;
      stack.push_back(to);
    }
  }
  return seen == adjacency_.size();
}

}  // namespace softmow
