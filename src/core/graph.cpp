#include "core/graph.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

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
  adjacency_.at(from).push_back(id);
  return id;
}

std::pair<EdgeKey, EdgeKey> Graph::add_bidirectional(NodeKey a, NodeKey b,
                                                     EdgeMetrics metrics) {
  return {add_edge(a, b, metrics), add_edge(b, a, metrics)};
}

Result<void> Graph::set_edge_up(EdgeKey edge, bool up) {
  if (edge == 0 || edge > edges_.size()) return {ErrorCode::kNotFound, "no such edge"};
  edges_[edge - 1].up = up;
  return Ok();
}

Result<void> Graph::set_edge_metrics(EdgeKey edge, EdgeMetrics metrics) {
  if (edge == 0 || edge > edges_.size()) return {ErrorCode::kNotFound, "no such edge"};
  edges_[edge - 1].metrics = metrics;
  return Ok();
}

const GraphEdge* Graph::edge(EdgeKey edge) const {
  if (edge == 0 || edge > edges_.size()) return nullptr;
  return &edges_[edge - 1];
}

std::span<const EdgeKey> Graph::out_edges(NodeKey node) const {
  const auto* list = adjacency_.find_value(node);
  if (list == nullptr) return {};
  return {list->data(), list->size()};
}

std::vector<const GraphEdge*> Graph::all_edges() const {
  std::vector<const GraphEdge*> out;
  out.reserve(edges_.size());
  for (const GraphEdge& e : edges_) out.push_back(&e);  // dense store is in id order
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
/// search<false> only: equal keys pop in heap-layout order.
struct HeapGreater {
  template <class Item>
  bool operator()(const Item& a, const Item& b) const {
    if (a.primary != b.primary) return a.primary > b.primary;
    return a.secondary > b.secondary;
  }
};

/// The canonical order of search<true>: (primary, secondary, depth, dense
/// node index), a total order on distinct nodes, so the settle order does
/// not depend on heap history (DESIGN §5 item 3).
struct CanonicalGreater {
  template <class Item>
  bool operator()(const Item& a, const Item& b) const {
    if (a.primary != b.primary) return a.primary > b.primary;
    if (a.secondary != b.secondary) return a.secondary > b.secondary;
    if (a.depth != b.depth) return a.depth > b.depth;
    return a.node > b.node;
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
    s.depth.resize(n);
    s.settled.resize(n);
    s.metrics.resize(n);
  }
  ++s.epoch;
  s.heap.clear();
  s.order.clear();
}

void Graph::touch(std::uint32_t index) const {
  Scratch& s = scratch_;
  if (s.node_epoch[index] == s.epoch) return;
  s.node_epoch[index] = s.epoch;
  s.primary[index] = std::numeric_limits<double>::infinity();
  s.secondary[index] = std::numeric_limits<double>::infinity();
  s.via_edge[index] = 0;
  s.depth[index] = kNoNode;
  s.settled[index] = 0;
}

template <bool kCanonical>
void Graph::search(std::uint32_t src_index, std::uint32_t dst_index, Metric metric,
                   double min_bandwidth_kbps) const {
  using Greater = std::conditional_t<kCanonical, CanonicalGreater, HeapGreater>;
  begin_query();
  Scratch& s = scratch_;
  touch(src_index);
  s.primary[src_index] = 0.0;
  s.secondary[src_index] = 0.0;
  s.depth[src_index] = 0;
  s.heap.push_back({0.0, 0.0, 0, src_index});

  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), Greater{});
    HeapItem item = s.heap.back();
    s.heap.pop_back();
    if (s.settled[item.node] != 0) continue;
    s.settled[item.node] = 1;
    s.order.push_back(item.node);
    if (item.node == dst_index) break;

    for (EdgeKey ek : (adjacency_.begin() + item.node)->second) {
      const GraphEdge& e = edges_[ek - 1];
      if (!e.up) continue;
      if (e.metrics.bandwidth_kbps + 1e-9 < min_bandwidth_kbps) continue;
      const std::uint32_t to = node_index(e.to);
      double np = item.primary + primary_of(e.metrics, metric);
      double nsnd = item.secondary + secondary_of(e.metrics, metric);
      std::uint32_t nd = 0;  // search<false> neither keys nor records depth
      if constexpr (kCanonical) nd = item.depth + 1;
      touch(to);
      if (s.settled[to] != 0) continue;
      bool better = np < s.primary[to];
      if constexpr (kCanonical) {
        better = better ||
                 (np == s.primary[to] &&
                  (nsnd < s.secondary[to] || (nsnd == s.secondary[to] && nd < s.depth[to])));
      }
      if (better) {
        s.primary[to] = np;
        s.secondary[to] = nsnd;
        if constexpr (kCanonical) s.depth[to] = nd;
        s.via_edge[to] = ek;
        s.via_node[to] = item.node;
        s.heap.push_back({np, nsnd, nd, to});
        std::push_heap(s.heap.begin(), s.heap.end(), Greater{});
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

void Graph::fill_tree(NodeKey src, PathTree& tree) const {
  tree.src = src;
  tree.via_edge.assign(adjacency_.size(), 0);
  for (std::uint32_t i : scratch_.order) tree.via_edge[i] = scratch_.via_edge[i];
}

PathTree Graph::path_tree(NodeKey src, Metric metric) const {
  PathTree tree{src, {}};
  const std::uint32_t src_index = node_index(src);
  if (src_index == kNoNode) return tree;
  search<true>(src_index, kNoNode, metric, 0.0);
  fill_tree(src, tree);
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
                                       double min_bandwidth_kbps) const {
  const std::uint32_t src_index = node_index(src);
  const std::uint32_t dst_index = node_index(dst);
  if (src_index == kNoNode || dst_index == kNoNode)
    return Error{ErrorCode::kNotFound, "src or dst not in graph"};
  if (src == dst) {
    GraphPath trivial;
    trivial.nodes = {src};
    trivial.metrics = EdgeMetrics{0.0, 0.0, std::numeric_limits<double>::infinity()};
    return trivial;
  }
  search<true>(src_index, dst_index, metric, min_bandwidth_kbps);
  const Scratch& s = scratch_;
  if (s.node_epoch[dst_index] != s.epoch || s.settled[dst_index] == 0)
    return Error{ErrorCode::kNotFound, "no path"};
  return via_path(s.via_edge, src, dst);
}

core::FlatMap<NodeKey, EdgeMetrics> Graph::shortest_tree(NodeKey src, Metric metric,
                                                         PathTree* via) const {
  core::FlatMap<NodeKey, EdgeMetrics> best;
  const std::uint32_t src_index = node_index(src);
  if (src_index == kNoNode) {
    if (via != nullptr) *via = PathTree{src, {}};
    return best;
  }

  // Keyed on the primary metric alone; bandwidth is the bottleneck along the
  // chosen (primary-optimal) path, matching vFabric semantics. Each node's
  // metrics fold from its parent's, which settled before it.
  search<false>(src_index, kNoNode, metric, 0.0);
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
  if (via != nullptr) fill_tree(src, *via);
  return best;
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
