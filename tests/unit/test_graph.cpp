#include <gtest/gtest.h>

#include <algorithm>

#include "core/graph.h"
#include "core/rng.h"

namespace softmow {
namespace {

EdgeMetrics metrics(double latency, double hops = 1.0, double bw = 1e6) {
  return EdgeMetrics{latency, hops, bw};
}

TEST(Graph, AddAndQueryNodesEdges) {
  Graph g;
  g.add_node(1);
  g.add_node(1);  // idempotent
  EXPECT_EQ(g.node_count(), 1u);
  EdgeKey e = g.add_edge(1, 2, metrics(10));
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  ASSERT_NE(g.edge(e), nullptr);
  EXPECT_EQ(g.edge(e)->from, 1u);
  EXPECT_EQ(g.edge(e)->to, 2u);
  EXPECT_EQ(g.edge(999), nullptr);
}

TEST(Graph, BidirectionalAddsTwoEdges) {
  Graph g;
  auto [ab, ba] = g.add_bidirectional(1, 2, metrics(5));
  EXPECT_NE(ab, ba);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge(ab)->from, 1u);
  EXPECT_EQ(g.edge(ba)->from, 2u);
}

TEST(Graph, ShortestPathPicksMinLatency) {
  Graph g;
  g.add_edge(1, 2, metrics(10));
  g.add_edge(2, 3, metrics(10));
  g.add_edge(1, 3, metrics(30));
  auto path = g.shortest_path(1, 3, Metric::kLatency);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->nodes, (std::vector<NodeKey>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(path->metrics.latency_us, 20);
  EXPECT_DOUBLE_EQ(path->metrics.hop_count, 2);
}

TEST(Graph, ShortestPathPicksMinHops) {
  Graph g;
  g.add_edge(1, 2, metrics(10));
  g.add_edge(2, 3, metrics(10));
  g.add_edge(1, 3, metrics(30));
  auto path = g.shortest_path(1, 3, Metric::kHops);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->nodes, (std::vector<NodeKey>{1, 3}));
}

TEST(Graph, TrivialPathWhenSourceEqualsDestination) {
  Graph g;
  g.add_node(7);
  auto path = g.shortest_path(7, 7, Metric::kHops);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->edges.empty());
  EXPECT_EQ(path->nodes, (std::vector<NodeKey>{7}));
  EXPECT_DOUBLE_EQ(path->metrics.hop_count, 0);
}

TEST(Graph, NoPathReturnsNotFound) {
  Graph g;
  g.add_node(1);
  g.add_node(2);
  auto path = g.shortest_path(1, 2, Metric::kHops);
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.code(), ErrorCode::kNotFound);
}

TEST(Graph, MissingNodesReturnNotFound) {
  Graph g;
  g.add_node(1);
  EXPECT_FALSE(g.shortest_path(1, 99, Metric::kHops).ok());
  EXPECT_FALSE(g.shortest_path(99, 1, Metric::kHops).ok());
}

TEST(Graph, DownEdgeIsAvoided) {
  Graph g;
  EdgeKey direct = g.add_edge(1, 3, metrics(5));
  g.add_edge(1, 2, metrics(10));
  g.add_edge(2, 3, metrics(10));
  ASSERT_TRUE(g.set_edge_up(direct, false).ok());
  auto path = g.shortest_path(1, 3, Metric::kLatency);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->nodes.size(), 3u);
  ASSERT_TRUE(g.set_edge_up(direct, true).ok());
  path = g.shortest_path(1, 3, Metric::kLatency);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->nodes.size(), 2u);
}

TEST(Graph, SetEdgeUpOnMissingEdgeFails) {
  Graph g;
  EXPECT_EQ(g.set_edge_up(42, false).code(), ErrorCode::kNotFound);
}

TEST(Graph, BandwidthFloorFiltersEdges) {
  Graph g;
  g.add_edge(1, 2, metrics(1, 1, /*bw=*/100));
  g.add_edge(1, 3, metrics(5, 1, /*bw=*/1000));
  g.add_edge(3, 2, metrics(5, 1, /*bw=*/1000));
  auto path = g.shortest_path(1, 2, Metric::kLatency, /*min_bandwidth_kbps=*/500);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->nodes, (std::vector<NodeKey>{1, 3, 2}));
  EXPECT_GE(path->metrics.bandwidth_kbps, 500);
}

TEST(Graph, TieBreakOnSecondaryMetric) {
  Graph g;
  // Two equal-latency paths; one has fewer hops.
  g.add_edge(1, 2, metrics(10, 1));
  g.add_edge(2, 4, metrics(10, 1));
  g.add_edge(1, 3, metrics(5, 1));
  g.add_edge(3, 5, metrics(5, 1));
  g.add_edge(5, 4, metrics(10, 1));
  auto two_hop = g.shortest_path(1, 4, Metric::kLatency);
  ASSERT_TRUE(two_hop.ok());
  EXPECT_DOUBLE_EQ(two_hop->metrics.latency_us, 20);
  EXPECT_EQ(two_hop->edges.size(), 2u);  // prefers fewer hops on a tie
}

TEST(Graph, ShortestTreeMatchesPairwisePaths) {
  Graph g;
  Rng rng(5);
  std::vector<NodeKey> nodes;
  for (NodeKey n = 0; n < 20; ++n) {
    nodes.push_back(n);
    g.add_node(n);
  }
  for (int e = 0; e < 60; ++e) {
    NodeKey a = rng.uniform_u64(0, 19), b = rng.uniform_u64(0, 19);
    if (a == b) continue;
    g.add_edge(a, b, metrics(rng.uniform(1, 10)));
  }
  auto tree = g.shortest_tree(0, Metric::kLatency);
  for (NodeKey n : nodes) {
    auto direct = g.shortest_path(0, n, Metric::kLatency);
    if (direct.ok()) {
      ASSERT_TRUE(tree.contains(n)) << n;
      EXPECT_NEAR(tree.at(n).latency_us, direct->metrics.latency_us, 1e-9) << n;
    } else {
      EXPECT_FALSE(tree.contains(n));
    }
  }
  // A full path tree reads back exactly the early-exit search's path, hop
  // ties included.
  for (Metric metric : {Metric::kLatency, Metric::kHops}) {
    PathTree paths = g.path_tree(0, metric);
    for (NodeKey n : nodes) {
      auto direct = g.shortest_path(0, n, metric);
      auto read = g.tree_path(paths, n);
      ASSERT_EQ(read.ok(), direct.ok()) << n;
      if (!direct.ok()) continue;
      EXPECT_EQ(read->nodes, direct->nodes) << n;
      EXPECT_EQ(read->edges, direct->edges) << n;
      EXPECT_EQ(read->metrics.latency_us, direct->metrics.latency_us) << n;
      EXPECT_EQ(read->metrics.hop_count, direct->metrics.hop_count) << n;
    }
  }
}

TEST(Graph, ShortestTreeFillsThePathTreeOfItsMetrics) {
  // Random latencies, few hop values and random bandwidths: equal-hop ties
  // abound, and each entry's bottleneck is a real min over its path.
  Graph g;
  Rng rng(17);
  for (NodeKey n = 0; n < 30; ++n) g.add_node(n);
  for (int e = 0; e < 90; ++e) {
    NodeKey a = rng.uniform_u64(0, 29), b = rng.uniform_u64(0, 29);
    if (a == b) continue;
    EdgeKey key = g.add_edge(
        a, b, metrics(rng.uniform(1, 10), static_cast<double>(rng.uniform_u64(1, 3)),
                      rng.uniform(100, 1e4)));
    if (rng.bernoulli(0.1)) {
      ASSERT_TRUE(g.set_edge_up(key, false).ok());
    }
  }
  PathTree tree;
  for (Metric metric : {Metric::kLatency, Metric::kHops}) {
    for (NodeKey src : {NodeKey{0}, NodeKey{7}, NodeKey{29}}) {
      auto reach = g.shortest_tree(src, metric, &tree);
      EXPECT_EQ(tree.src, src);
      for (NodeKey n = 0; n < 30; ++n) {
        auto read = g.tree_path(tree, n);
        ASSERT_EQ(read.ok(), reach.contains(n)) << src << "->" << n;
        if (!read.ok()) continue;
        const EdgeMetrics& want = reach.at(n);
        EXPECT_EQ(read->nodes.front(), src);
        EXPECT_EQ(read->nodes.back(), n);
        EXPECT_EQ(read->metrics.latency_us, want.latency_us) << src << "->" << n;
        EXPECT_EQ(read->metrics.hop_count, want.hop_count) << src << "->" << n;
        EXPECT_EQ(read->metrics.bandwidth_kbps, want.bandwidth_kbps) << src << "->" << n;
      }
    }
  }
}

TEST(Graph, ConnectedFromDetectsPartitions) {
  Graph g;
  g.add_bidirectional(1, 2, metrics(1));
  g.add_bidirectional(3, 4, metrics(1));
  EXPECT_FALSE(g.connected_from(1));
  g.add_bidirectional(2, 3, metrics(1));
  EXPECT_TRUE(g.connected_from(1));
}

// Property sweep: Dijkstra against Bellman-Ford style relaxation on random
// graphs of varying density.
class GraphRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphRandomTest, DijkstraMatchesBellmanFord) {
  Rng rng(GetParam());
  Graph g;
  const int n = 15;
  for (NodeKey v = 0; v < n; ++v) g.add_node(v);
  int edges = 20 + GetParam() * 7;
  for (int e = 0; e < edges; ++e) {
    NodeKey a = rng.uniform_u64(0, n - 1), b = rng.uniform_u64(0, n - 1);
    if (a == b) continue;
    g.add_edge(a, b, metrics(rng.uniform(1, 20)));
  }
  // Bellman-Ford reference.
  std::vector<double> dist(n, 1e18);
  dist[0] = 0;
  for (int round = 0; round < n; ++round) {
    for (const GraphEdge* e : g.all_edges()) {
      if (dist[e->from] + e->metrics.latency_us < dist[e->to])
        dist[e->to] = dist[e->from] + e->metrics.latency_us;
    }
  }
  for (NodeKey v = 1; v < n; ++v) {
    auto path = g.shortest_path(0, v, Metric::kLatency);
    if (dist[v] >= 1e18) {
      EXPECT_FALSE(path.ok()) << v;
    } else {
      ASSERT_TRUE(path.ok()) << v;
      EXPECT_NEAR(path->metrics.latency_us, dist[v], 1e-9) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphRandomTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace softmow
