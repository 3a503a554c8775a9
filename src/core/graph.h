// Multi-metric weighted directed graph used for every topology in SoftMoW:
// physical data planes, logical (G-switch) data planes, vFabrics, and
// handover graphs all reduce to this structure.
//
// Edges carry the three vFabric metrics of paper §3.2 — latency, hop count,
// and available bandwidth. Hop count is a double because a single logical
// edge (a vFabric port pair) may summarize a multi-hop physical segment.
//
// Memory model (DESIGN §12): edges live in a dense vector indexed by their
// sequential key, adjacency lists hang off a flat open-addressing node
// table, and every shortest-path query runs on preallocated epoch-stamped
// scratch — after warmup a query allocates nothing. The scratch makes const
// path queries non-reentrant; each controller's graph is shard-confined, so
// this costs nothing under the engine's ownership discipline.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/flat_map.h"
#include "core/result.h"

namespace softmow {

using NodeKey = std::uint64_t;
using EdgeKey = std::uint64_t;

/// The three per-edge metrics exposed in a G-switch virtual fabric (§3.2).
struct EdgeMetrics {
  double latency_us = 0.0;
  double hop_count = 1.0;
  double bandwidth_kbps = std::numeric_limits<double>::infinity();

  /// Series composition of two path segments.
  [[nodiscard]] EdgeMetrics then(const EdgeMetrics& next) const {
    return EdgeMetrics{latency_us + next.latency_us, hop_count + next.hop_count,
                       bandwidth_kbps < next.bandwidth_kbps ? bandwidth_kbps
                                                            : next.bandwidth_kbps};
  }
};

/// Which metric a shortest-path computation minimizes.
enum class Metric { kLatency, kHops };

/// QoS constraints attached to a routing request (§4.2).
struct PathConstraints {
  std::optional<double> max_latency_us;
  std::optional<double> max_hops;
  double min_bandwidth_kbps = 0.0;

  [[nodiscard]] bool satisfied_by(const EdgeMetrics& m) const {
    if (max_latency_us && m.latency_us > *max_latency_us + 1e-9) return false;
    if (max_hops && m.hop_count > *max_hops + 1e-9) return false;
    return m.bandwidth_kbps + 1e-9 >= min_bandwidth_kbps;
  }
};

struct GraphEdge {
  EdgeKey id = 0;
  NodeKey from = 0;
  NodeKey to = 0;
  EdgeMetrics metrics;
  bool up = true;
};

/// A computed path: node sequence, edge sequence, and aggregate metrics.
struct GraphPath {
  std::vector<NodeKey> nodes;  ///< size = edges.size() + 1 (or empty)
  std::vector<EdgeKey> edges;
  EdgeMetrics metrics;         ///< series composition over all edges

  [[nodiscard]] bool empty() const { return nodes.empty(); }
  [[nodiscard]] double cost(Metric m) const {
    return m == Metric::kLatency ? metrics.latency_us : metrics.hop_count;
  }
};

/// A full shortest-path tree from one source, as Graph::path_tree and
/// Graph::shortest_tree build it: the tree edge into each node by dense node
/// index, 0 at the root and at unreached nodes. Valid until the graph's node
/// set, edge set or edge up-states change (node indexes and reachability
/// move then).
struct PathTree {
  NodeKey src = 0;
  std::vector<EdgeKey> via_edge;
};

/// Directed multigraph with stable edge IDs and O(1) node/edge lookup.
class Graph {
 public:
  /// Adds `node` if absent; idempotent.
  void add_node(NodeKey node);
  [[nodiscard]] bool has_node(NodeKey node) const;
  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::vector<NodeKey> nodes() const;

  /// Adds a directed edge and returns its key.
  EdgeKey add_edge(NodeKey from, NodeKey to, EdgeMetrics metrics);
  /// Adds `from -> to` and `to -> from` with identical metrics; returns both keys.
  std::pair<EdgeKey, EdgeKey> add_bidirectional(NodeKey a, NodeKey b, EdgeMetrics metrics);

  /// Marks an edge usable / unusable without forgetting it (link failure, §6).
  Result<void> set_edge_up(EdgeKey edge, bool up);
  Result<void> set_edge_metrics(EdgeKey edge, EdgeMetrics metrics);

  [[nodiscard]] const GraphEdge* edge(EdgeKey edge) const;
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  /// View of `node`'s out-edge keys — valid until the next graph mutation.
  [[nodiscard]] std::span<const EdgeKey> out_edges(NodeKey node) const;
  [[nodiscard]] std::vector<const GraphEdge*> all_edges() const;

  /// Single-metric Dijkstra restricted to up-edges meeting the bandwidth floor.
  /// Ties on the primary metric are broken by the secondary metric, so e.g.
  /// the min-latency path is also the min-hop path among min-latency paths;
  /// remaining ties go to the fewest edges, then to the least dense node
  /// index (the canonical order, DESIGN §5 item 3). A floor only removes
  /// edges; latency and hop bounds are the caller's to check on whatever
  /// total it builds from the path.
  [[nodiscard]] Result<GraphPath> shortest_path(NodeKey src, NodeKey dst, Metric metric,
                                                double min_bandwidth_kbps = 0.0) const;

  /// The tree shortest_path's unconstrained search would grow from `src` if
  /// it never stopped early: tree_path() then reads, for any destination,
  /// exactly the path shortest_path(src, dst, metric) returns. The search
  /// settles nodes in the same order and never re-parents a settled node, so
  /// each destination's ancestors keep the tree edges they had when an
  /// early-exit search would have stopped. The tree has the 0 kbps floor, so
  /// a bandwidth-only metric change that keeps every bandwidth non-negative
  /// leaves it exact. And since the order is canonical, a tree path whose
  /// every edge meets a floor (bandwidth + 1e-9 >= floor) is also
  /// shortest_path(src, dst, metric, floor)'s answer, edge for edge.
  [[nodiscard]] PathTree path_tree(NodeKey src, Metric metric) const;
  /// The tree's path to `dst`, metrics folded from the current edges; kNotFound
  /// when `dst` is absent or unreached.
  [[nodiscard]] Result<GraphPath> tree_path(const PathTree& tree, NodeKey dst) const;

  /// Shortest-path tree from `src`: best metrics per reachable node (for
  /// vFabric computation, which needs all border-port pairs at once).
  /// Iteration order is node-insertion order — deterministic. A node is only
  /// re-parented by a strictly better primary metric, and the search has the
  /// 0 kbps floor, so over non-negative bandwidths the tree's shape never
  /// depends on bandwidth. When `via` is given, it is overwritten with the
  /// tree: tree_path() over it returns each entry's metrics bit for bit.
  [[nodiscard]] core::FlatMap<NodeKey, EdgeMetrics> shortest_tree(
      NodeKey src, Metric metric, PathTree* via = nullptr) const;

  /// True iff every node is reachable from `src` over up-edges.
  [[nodiscard]] bool connected_from(NodeKey src) const;

 private:
  /// Min-heap element for the scratch Dijkstra heap.
  struct HeapItem {
    double primary;
    double secondary;
    std::uint32_t depth;  ///< edge count from the source
    std::uint32_t node;   ///< dense node index
  };
  /// Epoch-stamped per-query state: arrays are sized once per query to the
  /// current node population and invalidated by bumping `epoch` — no
  /// clearing, no per-query maps.
  struct Scratch {
    std::vector<std::uint64_t> node_epoch;  ///< state validity, per node index
    std::vector<double> primary;
    std::vector<double> secondary;
    std::vector<EdgeKey> via_edge;
    std::vector<std::uint32_t> via_node;    ///< parent's node index
    std::vector<std::uint32_t> depth;       ///< edge count of the best label
    std::vector<std::uint8_t> settled;
    std::vector<std::uint32_t> order;       ///< node indexes in settle order
    std::vector<EdgeMetrics> metrics;       ///< shortest_tree only
    std::vector<HeapItem> heap;
    std::uint64_t epoch = 0;
  };

  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  /// Dense index of `node`, or kNoNode. Stable between mutations only.
  [[nodiscard]] std::uint32_t node_index(NodeKey node) const;
  /// Sizes scratch arrays to the current population and opens a new epoch.
  void begin_query() const;
  /// Lazily initializes scratch state for node `index` in this epoch.
  void touch(std::uint32_t index) const;

  /// Overwrites `tree` with the tree edges of the search that just ran from
  /// `src`.
  void fill_tree(NodeKey src, PathTree& tree) const;

  /// The one Dijkstra loop behind every shortest-path query. Runs from
  /// `src_index` over up-edges meeting the bandwidth floor until `dst_index`
  /// is settled — or, given kNoNode, until every reachable node is. Without
  /// `kCanonical` (shortest_tree), a node is re-parented only by a strictly
  /// better primary metric and the heap orders by (primary, secondary). With
  /// it (shortest_path, path_tree), the heap orders by the canonical key
  /// (primary, secondary, depth, dense node index) and a node is re-parented
  /// by a strictly better (primary, secondary, depth), so each node's parent
  /// is its least (key, index) tight predecessor whatever edges are pruned
  /// (DESIGN §5 item 3). A compile-time choice: as a run-time flag it slowed
  /// point-to-point searches by ~20%. Leaves each touched node's state in
  /// scratch and the settled nodes in scratch_.order.
  template <bool kCanonical>
  void search(std::uint32_t src_index, std::uint32_t dst_index, Metric metric,
              double min_bandwidth_kbps) const;
  /// Walks `via_edge` (tree edge into each node, by dense index) back from
  /// `dst` to `src`, folding the path's metrics from the current edges.
  [[nodiscard]] GraphPath via_path(std::span<const EdgeKey> via_edge, NodeKey src,
                                   NodeKey dst) const;

  core::FlatMap<NodeKey, std::vector<EdgeKey>> adjacency_;
  std::vector<GraphEdge> edges_;  ///< dense, indexed by key - 1
  mutable Scratch scratch_;
};

}  // namespace softmow
