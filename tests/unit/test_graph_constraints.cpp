// Edge cases of the constraint machinery shared by routing and vFabric:
// EdgeMetrics composition, PathConstraints semantics, and the bandwidth
// floor, the one constraint a graph search takes.
#include <gtest/gtest.h>

#include "core/graph.h"

namespace softmow {
namespace {

TEST(EdgeMetricsTest, SeriesCompositionAddsAndBottlenecks) {
  EdgeMetrics a{10, 2, 500};
  EdgeMetrics b{5, 1, 300};
  EdgeMetrics c = a.then(b);
  EXPECT_DOUBLE_EQ(c.latency_us, 15);
  EXPECT_DOUBLE_EQ(c.hop_count, 3);
  EXPECT_DOUBLE_EQ(c.bandwidth_kbps, 300);  // min of the two
  // Composition with the identity (0 latency, 0 hops, inf bandwidth).
  EdgeMetrics identity{0, 0, std::numeric_limits<double>::infinity()};
  EdgeMetrics d = identity.then(a);
  EXPECT_DOUBLE_EQ(d.latency_us, a.latency_us);
  EXPECT_DOUBLE_EQ(d.bandwidth_kbps, a.bandwidth_kbps);
}

TEST(PathConstraintsTest, SatisfiedBySemantics) {
  PathConstraints c;
  EXPECT_TRUE(c.satisfied_by(EdgeMetrics{1e9, 1e9, 0}));  // unconstrained

  c.max_latency_us = 100;
  c.max_hops = 5;
  c.min_bandwidth_kbps = 50;
  EXPECT_TRUE(c.satisfied_by(EdgeMetrics{100, 5, 50}));   // boundaries inclusive
  EXPECT_FALSE(c.satisfied_by(EdgeMetrics{100.1, 5, 50}));
  EXPECT_FALSE(c.satisfied_by(EdgeMetrics{100, 5.1, 50}));
  EXPECT_FALSE(c.satisfied_by(EdgeMetrics{100, 5, 49.9}));
}

class ConstrainedGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three parallel routes 1 -> 5 with distinct trade-offs:
    //   fast+thin:   1-2-5 (latency 10, 2 hops, 100 kbps)
    //   slow+fat:    1-3-5 (latency 50, 2 hops, 1e6 kbps)
    //   long+cheap:  1-4a-4b-5 (latency 9, 3 hops, 1e6 kbps)
    g.add_edge(1, 2, {5, 1, 100});
    g.add_edge(2, 5, {5, 1, 100});
    g.add_edge(1, 3, {25, 1, 1e6});
    g.add_edge(3, 5, {25, 1, 1e6});
    g.add_edge(1, 40, {3, 1, 1e6});
    g.add_edge(40, 41, {3, 1, 1e6});
    g.add_edge(41, 5, {3, 1, 1e6});
  }
  Graph g;
};

TEST_F(ConstrainedGraphTest, UnconstrainedPicksLowestLatency) {
  auto path = g.shortest_path(1, 5, Metric::kLatency);
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->metrics.latency_us, 9);  // the 3-hop route
}

TEST_F(ConstrainedGraphTest, BandwidthAndHopsTogetherForceSlowFat) {
  // A floor only removes edges: fast+thin goes, and each metric's optimum
  // over what is left wins.
  auto by_latency = g.shortest_path(1, 5, Metric::kLatency, /*min_bandwidth_kbps=*/500);
  ASSERT_TRUE(by_latency.ok());
  EXPECT_DOUBLE_EQ(by_latency->metrics.latency_us, 9);  // long+cheap, as unfloored
  // Unfloored, the hop objective takes fast+thin (2 hops, latency 10); with
  // it gone, slow+fat is the only 2-hop route left.
  auto by_hops = g.shortest_path(1, 5, Metric::kHops, /*min_bandwidth_kbps=*/500);
  ASSERT_TRUE(by_hops.ok());
  EXPECT_DOUBLE_EQ(by_hops->metrics.hop_count, 2);
  EXPECT_DOUBLE_EQ(by_hops->metrics.latency_us, 50);
  EXPECT_GE(by_hops->metrics.bandwidth_kbps, 500);
}

}  // namespace
}  // namespace softmow
