// Canonical search order oracle (DESIGN §5 item 3): Graph::path_tree and
// Graph::shortest_path settle nodes by (primary, secondary, depth, dense node
// index), so a bandwidth floor, which only removes edges, cannot change the
// path to a node whose tree path clears it. On random graphs shaped like port
// graphs — a zero-weight clique of ports per switch, links with tied
// latencies and hop counts, parallel links, down links and thin links —
// whenever tree_path(path_tree(src), dst) clears a floor it must equal
// shortest_path(src, dst, metric, floor) edge for edge and bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/rng.h"

namespace softmow {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

NodeKey port_node(std::uint64_t sw, std::uint64_t port) { return sw * 100 + port; }

/// Switches with 1-5 ports each, every ordered port pair of a switch joined
/// by a 0 latency, 0 hop, unbounded edge (as build_port_graph joins them),
/// and links between ports of different switches. Latencies come from a
/// small set, so equal-cost paths are common; 0.1 + 0.2 and 0.3 also give
/// near-ties that differ only in rounding.
Graph random_port_graph(Rng& rng) {
  Graph g;
  const int switches = rng.uniform_int(3, 12);
  std::vector<NodeKey> ports;
  for (int sw = 1; sw <= switches; ++sw) {
    const int n = rng.uniform_int(1, 5);
    for (int p = 1; p <= n; ++p) {
      g.add_node(port_node(sw, p));
      ports.push_back(port_node(sw, p));
    }
    for (int p = 1; p <= n; ++p) {
      for (int q = 1; q <= n; ++q) {
        if (p != q) g.add_edge(port_node(sw, p), port_node(sw, q), EdgeMetrics{0.0, 0.0, kInf});
      }
    }
  }
  const std::vector<double> latencies = {1.0, 2.0, 2.0, 3.0, 0.5, 0.1, 0.2, 0.3};
  const std::vector<double> bandwidths = {50.0, 100.0, 400.0, 1000.0, 1000.0, kInf};
  const int links = rng.uniform_int(switches, 3 * switches);
  for (int i = 0; i < links; ++i) {
    NodeKey a = rng.choice(ports), b = rng.choice(ports);
    if (a / 100 == b / 100) continue;
    EdgeMetrics m{rng.choice(latencies), rng.bernoulli(0.2) ? 2.0 : 1.0, rng.choice(bandwidths)};
    auto [ab, ba] = g.add_bidirectional(a, b, m);
    for (EdgeKey e : {ab, ba}) {
      if (rng.bernoulli(0.1)) {
        EXPECT_TRUE(g.set_edge_up(e, false).ok());
      }
    }
  }
  return g;
}

TEST(CanonicalOrder, TreePathsThatClearAFloorAreTheFlooredSearchesAnswer) {
  const std::vector<double> floors = {0.0, 50.0, 100.0, 99.9999999999, 400.0, 700.0, 1000.0, 1e4};
  std::uint64_t served = 0, too_thin = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    Graph g = random_port_graph(rng);
    const std::vector<NodeKey> nodes = g.nodes();
    for (int s = 0; s < 3; ++s) {
      const NodeKey src = rng.choice(nodes);
      for (Metric m : {Metric::kHops, Metric::kLatency}) {
        const PathTree tree = g.path_tree(src, m);
        for (NodeKey dst : nodes) {
          auto cached = g.tree_path(tree, dst);
          if (!cached.ok()) {
            // Unreached without a floor: unreached under any floor.
            EXPECT_FALSE(g.shortest_path(src, dst, m, rng.choice(floors)).ok());
            continue;
          }
          const double floor_kbps = rng.choice(floors);
          auto want = g.shortest_path(src, dst, m, floor_kbps);
          if (cached->metrics.bandwidth_kbps + 1e-9 < floor_kbps) {
            ++too_thin;
            continue;
          }
          ++served;
          const std::string where = "seed " + std::to_string(seed) + " src " +
                                    std::to_string(src) + " dst " + std::to_string(dst) +
                                    " floor " + std::to_string(floor_kbps);
          ASSERT_TRUE(want.ok()) << where;
          EXPECT_EQ(cached->nodes, want->nodes) << where;
          EXPECT_EQ(cached->edges, want->edges) << where;
          EXPECT_TRUE(bit_equal(cached->metrics.latency_us, want->metrics.latency_us)) << where;
          EXPECT_TRUE(bit_equal(cached->metrics.hop_count, want->metrics.hop_count)) << where;
          EXPECT_TRUE(bit_equal(cached->metrics.bandwidth_kbps, want->metrics.bandwidth_kbps))
              << where;
        }
      }
    }
  }
  // Both branches are exercised: most tree paths clear their floor, and
  // many do not.
  EXPECT_GT(served, 10000u);
  EXPECT_GT(too_thin, 1000u);
}

}  // namespace
}  // namespace softmow
