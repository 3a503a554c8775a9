#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/rng.h"
#include "nos/routing.h"
#include "obs/metrics.h"

namespace softmow::nos {
namespace {

southbound::PortDesc port(std::uint64_t id,
                          dataplane::PeerKind peer = dataplane::PeerKind::kSwitch,
                          std::uint64_t egress = ~0ull) {
  southbound::PortDesc d;
  d.port = PortId{id};
  d.peer = peer;
  if (egress != ~0ull) d.egress = EgressId{egress};
  return d;
}

/// The hierarchy level the fixture's routing service labels its series with;
/// no other component of this test binary registers it.
constexpr std::uint8_t kLevel = 7;

std::uint64_t route_trees(const char* result) {
  return obs::default_registry()
      .counter("route_trees_total", {{"level", std::to_string(kLevel)}, {"result", result}})
      ->value();
}

/// A line of switches 1 - 2 - 3, each with an egress port, plus a radio
/// attachment on switch 1:
///   radio(1:p9)  1 --(5ms)-- 2 --(5ms)-- 3
///   egress E1 at 1:p8, E2 at 3:p8
class RoutingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t s : {1, 2, 3}) {
      SwitchRecord rec;
      rec.id = SwitchId{s};
      rec.ports[PortId{1}] = port(1);
      rec.ports[PortId{2}] = port(2);
      if (s == 1) {
        rec.ports[PortId{9}] = port(9, dataplane::PeerKind::kBsGroup);
        rec.ports[PortId{8}] = port(8, dataplane::PeerKind::kExternal, 1);
      }
      if (s == 3) rec.ports[PortId{8}] = port(8, dataplane::PeerKind::kExternal, 2);
      nib.upsert_switch(rec);
    }
    nib.upsert_link({SwitchId{1}, PortId{2}}, {SwitchId{2}, PortId{1}},
                    EdgeMetrics{5000, 1, 1e6});
    nib.upsert_link({SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}},
                    EdgeMetrics{5000, 1, 1e6});
  }

  Endpoint radio{SwitchId{1}, PortId{9}};
  Nib nib;
  RoutingService routing{&nib, kLevel};
};

TEST_F(RoutingFixture, PicksNearestEgressByTotalCost) {
  // E1 is 0 internal hops away but has a long external path; E2 is 2 hops
  // away with a short one. Totals: E1 = 0+12, E2 = 2+4 -> E2 wins.
  nib.upsert_external_route({{SwitchId{1}, PortId{8}}, PrefixId{1}, 12, 120000});
  nib.upsert_external_route({{SwitchId{3}, PortId{8}}, PrefixId{1}, 4, 40000});
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{1};
  auto route = routing.route(req);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->exit, (Endpoint{SwitchId{3}, PortId{8}}));
  EXPECT_EQ(route->egress_id, EgressId{2});
  EXPECT_DOUBLE_EQ(route->total_hops(), 6);
  EXPECT_DOUBLE_EQ(route->internal.hop_count, 2);
}

TEST_F(RoutingFixture, Fig4ConstraintRedirectsToCloserEgress) {
  // The paper's §4.2 example: both egress points are 10 external hops from
  // the prefix; the constraint is a maximum *end-to-end* hop count. The
  // farther egress violates it, the nearer one satisfies it.
  nib.upsert_external_route({{SwitchId{1}, PortId{8}}, PrefixId{7}, 10, 1000});
  nib.upsert_external_route({{SwitchId{3}, PortId{8}}, PrefixId{7}, 10, 1000});
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{7};
  req.objective = Metric::kLatency;  // latency-optimal would tie; hop bound decides
  req.constraints.max_hops = 11;     // 2 internal + 10 external = 12 > 11
  auto route = routing.route(req);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->egress_id, EgressId{1});  // 0 internal + 10 external = 10
  EXPECT_LE(route->total_hops(), 11);
}

TEST_F(RoutingFixture, UnsatisfiableWhenNoEgressMeetsConstraints) {
  nib.upsert_external_route({{SwitchId{1}, PortId{8}}, PrefixId{7}, 10, 1000});
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{7};
  req.constraints.max_hops = 5;
  auto route = routing.route(req);
  ASSERT_FALSE(route.ok());
  EXPECT_EQ(route.code(), ErrorCode::kUnsatisfiable);
}

TEST_F(RoutingFixture, NoInterdomainRouteIsNotFound) {
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{404};
  EXPECT_EQ(routing.route(req).code(), ErrorCode::kNotFound);
}

TEST_F(RoutingFixture, RequestWithoutDestinationIsInvalid) {
  RoutingRequest req;
  req.source = radio;
  EXPECT_EQ(routing.route(req).code(), ErrorCode::kInvalidArgument);
}

TEST_F(RoutingFixture, InternalDestinationRouting) {
  RoutingRequest req;
  req.source = radio;
  req.dst = Endpoint{SwitchId{3}, PortId{8}};
  auto route = routing.route(req);
  ASSERT_TRUE(route.ok());
  EXPECT_FALSE(route->internet_bound());
  EXPECT_DOUBLE_EQ(route->internal.hop_count, 2);
  EXPECT_DOUBLE_EQ(route->external_hops, 0);
  ASSERT_EQ(route->hops.size(), 3u);
  EXPECT_EQ(route->hops[0].sw, SwitchId{1});
  EXPECT_EQ(route->hops[0].in, PortId{9});
}

TEST_F(RoutingFixture, MiddleboxChainIsVisitedInOrder) {
  southbound::GMiddleboxAnnounce fw;
  fw.gmb = MiddleboxId{1};
  fw.type = dataplane::MiddleboxType::kFirewall;
  fw.attached_switch = SwitchId{2};
  fw.attached_port = PortId{5};
  nib.upsert_middlebox(fw);
  // Register the attach port on switch 2.
  SwitchRecord rec = *nib.sw(SwitchId{2});
  rec.ports[PortId{5}] = port(5, dataplane::PeerKind::kMiddlebox);
  nib.upsert_switch(rec);
  nib.upsert_external_route({{SwitchId{3}, PortId{8}}, PrefixId{1}, 4, 40000});

  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{1};
  req.policy.chain = {dataplane::MiddleboxType::kFirewall};
  auto route = routing.route(req);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route->middleboxes.size(), 1u);
  EXPECT_EQ(route->middleboxes[0], MiddleboxId{1});
  // The port path passes through the middlebox attach node.
  bool visits = false;
  for (NodeKey node : route->port_path.nodes)
    visits |= node == port_key(SwitchId{2}, PortId{5});
  EXPECT_TRUE(visits);
}

TEST_F(RoutingFixture, SaturatedMiddleboxIsSkipped) {
  southbound::GMiddleboxAnnounce fw;
  fw.gmb = MiddleboxId{1};
  fw.type = dataplane::MiddleboxType::kFirewall;
  fw.attached_switch = SwitchId{2};
  fw.attached_port = PortId{5};
  fw.utilization = 0.99;  // over the admission threshold
  nib.upsert_middlebox(fw);
  nib.upsert_external_route({{SwitchId{3}, PortId{8}}, PrefixId{1}, 4, 40000});
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{1};
  req.policy.chain = {dataplane::MiddleboxType::kFirewall};
  auto route = routing.route(req);
  ASSERT_FALSE(route.ok());
  EXPECT_EQ(route.code(), ErrorCode::kUnsatisfiable);
}

TEST_F(RoutingFixture, BandwidthFloorAvoidsThinLinks) {
  // Thin the 1-2 link; demand more than it has.
  nib.upsert_link({SwitchId{1}, PortId{2}}, {SwitchId{2}, PortId{1}},
                  EdgeMetrics{5000, 1, 100});
  nib.upsert_external_route({{SwitchId{3}, PortId{8}}, PrefixId{1}, 4, 40000});
  nib.upsert_external_route({{SwitchId{1}, PortId{8}}, PrefixId{1}, 9, 90000});
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{1};
  req.constraints.min_bandwidth_kbps = 500;
  auto route = routing.route(req);
  ASSERT_TRUE(route.ok());
  // Cannot reach E2 over the thin link: falls back to local egress E1.
  EXPECT_EQ(route->egress_id, EgressId{1});
}

TEST_F(RoutingFixture, GraphCacheInvalidatesOnTopologyChange) {
  nib.upsert_external_route({{SwitchId{3}, PortId{8}}, PrefixId{1}, 4, 40000});
  RoutingRequest req;
  req.source = radio;
  req.dst_prefix = PrefixId{1};
  ASSERT_TRUE(routing.route(req).ok());
  // Cut the line: the cached graph must be rebuilt and routing must fail
  // over to E1 (if present) or fail.
  nib.set_links_at_up({SwitchId{1}, PortId{2}}, false);
  auto after = routing.route(req);
  EXPECT_FALSE(after.ok());
}

TEST_F(RoutingFixture, BandwidthChangesPatchThePortGraphInPlace) {
  // Edge-for-edge equality with a fresh build, bandwidth compared bitwise.
  auto expect_same_as_rebuild = [&](const Graph& patched) {
    Graph fresh = build_port_graph(nib);
    auto want = fresh.all_edges();
    auto got = patched.all_edges();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i]->id, want[i]->id);
      EXPECT_EQ(got[i]->from, want[i]->from);
      EXPECT_EQ(got[i]->to, want[i]->to);
      EXPECT_EQ(got[i]->up, want[i]->up);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]->metrics.bandwidth_kbps),
                std::bit_cast<std::uint64_t>(want[i]->metrics.bandwidth_kbps));
      EXPECT_EQ(got[i]->metrics.latency_us, want[i]->metrics.latency_us);
      EXPECT_EQ(got[i]->metrics.hop_count, want[i]->metrics.hop_count);
    }
  };
  const Endpoint ends[] = {{SwitchId{1}, PortId{2}}, {SwitchId{2}, PortId{1}},
                           {SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}}};
  std::vector<std::pair<Endpoint, double>> held;
  Rng rng(11);
  for (int step = 0; step < 200; ++step) {
    if (step == 100) {
      // A topology change in the middle: rebuild, then patch again.
      nib.set_links_at_up({SwitchId{2}, PortId{2}}, false);
      expect_same_as_rebuild(routing.port_graph());
      nib.set_links_at_up({SwitchId{2}, PortId{2}}, true);
    }
    if (!held.empty() && rng.bernoulli(0.5)) {
      ASSERT_TRUE(nib.release_link_bandwidth(held.back().first, held.back().second).ok());
      held.pop_back();
    } else {
      Endpoint at = ends[rng.uniform_u64(0, 3)];
      double kbps = rng.uniform(1, 3e5);
      if (nib.reserve_link_bandwidth(at, kbps).ok()) held.emplace_back(at, kbps);
    }
    expect_same_as_rebuild(routing.port_graph());
  }
}

TEST_F(RoutingFixture, RouteTreeSurvivesABandwidthChange) {
  RoutingRequest req;
  req.source = radio;
  req.dst = Endpoint{SwitchId{3}, PortId{8}};
  const std::uint64_t built = route_trees("built"), reused = route_trees("reused");
  ASSERT_TRUE(routing.route(req).ok());
  EXPECT_EQ(route_trees("built"), built + 1);

  // A reservation moves the bandwidth epoch, not the version: the tree stays,
  // and the route's bottleneck is read from the patched edges.
  ASSERT_TRUE(nib.reserve_link_bandwidth({SwitchId{2}, PortId{2}}, 4e5).ok());
  auto after = routing.route(req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(route_trees("built"), built + 1);
  EXPECT_EQ(route_trees("reused"), reused + 1);
  EXPECT_DOUBLE_EQ(after->internal.bandwidth_kbps, 6e5);
  Graph fresh = build_port_graph(nib);
  auto want = fresh.shortest_path(port_key(radio.sw, radio.port),
                                  port_key(SwitchId{3}, PortId{8}), Metric::kHops);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(after->port_path.nodes, want->nodes);
  EXPECT_EQ(after->port_path.edges, want->edges);
}

TEST_F(RoutingFixture, RouteTreeIsDroppedOnAVersionBump) {
  RoutingRequest req;
  req.source = radio;
  req.dst = Endpoint{SwitchId{3}, PortId{8}};
  const std::uint64_t built = route_trees("built");
  ASSERT_TRUE(routing.route(req).ok());
  ASSERT_TRUE(routing.route(req).ok());
  EXPECT_EQ(route_trees("built"), built + 1);

  nib.set_links_at_up({SwitchId{2}, PortId{2}}, false);
  EXPECT_EQ(routing.route(req).code(), ErrorCode::kNotFound);
  EXPECT_EQ(route_trees("built"), built + 2);
  nib.set_links_at_up({SwitchId{2}, PortId{2}}, true);
  auto healed = routing.route(req);
  ASSERT_TRUE(healed.ok());
  EXPECT_DOUBLE_EQ(healed->internal.hop_count, 2);
  EXPECT_EQ(route_trees("built"), built + 3);
}

TEST_F(RoutingFixture, RediscoveringAnUnchangedTopologyKeepsTheTrees) {
  RoutingRequest req;
  req.source = radio;
  req.dst = Endpoint{SwitchId{3}, PortId{8}};
  const std::uint64_t built = route_trees("built"), reused = route_trees("reused");
  ASSERT_TRUE(routing.route(req).ok());
  // A discovery round finds the same two links again: no version bump, so
  // the port graph and its trees stay.
  const std::uint64_t version = nib.version();
  nib.upsert_link({SwitchId{2}, PortId{1}}, {SwitchId{1}, PortId{2}}, EdgeMetrics{5000, 1, 1e6});
  nib.upsert_link({SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}}, EdgeMetrics{5000, 1, 1e6});
  EXPECT_EQ(nib.version(), version);
  auto again = routing.route(req);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->internal.hop_count, 2);
  EXPECT_EQ(route_trees("built"), built + 1);
  EXPECT_EQ(route_trees("reused"), reused + 1);
}

/// Adds a direct 1:p1 - 3:p2 link, slower than the 1 - 2 - 3 line but with
/// 1000 kbps to spare, and returns the request the GBR cases send.
RoutingRequest add_slow_direct_link(Nib& nib, Endpoint radio) {
  nib.upsert_link({SwitchId{1}, PortId{1}}, {SwitchId{3}, PortId{2}},
                  EdgeMetrics{20000, 1, 1000});
  RoutingRequest req;
  req.source = radio;
  req.dst = Endpoint{SwitchId{3}, PortId{8}};
  req.objective = Metric::kLatency;
  req.constraints.min_bandwidth_kbps = 500;
  return req;
}

TEST_F(RoutingFixture, GbrQueryReadsTheTreeWhenItClearsTheFloor) {
  const RoutingRequest req = add_slow_direct_link(nib, radio);
  const std::uint64_t built = route_trees("built"), reused = route_trees("reused"),
                      hit = route_trees("floored_hit"), miss = route_trees("floored_miss");
  auto first = routing.route(req);
  auto second = routing.route(req);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(route_trees("built"), built + 1);
  EXPECT_EQ(route_trees("reused"), reused + 1);
  EXPECT_EQ(route_trees("floored_hit"), hit + 2);
  EXPECT_EQ(route_trees("floored_miss"), miss);

  // The 1 - 2 - 3 line clears 500 kbps, so the tree's path is the answer.
  Graph fresh = build_port_graph(nib);
  auto want = fresh.shortest_path(port_key(radio.sw, radio.port),
                                  port_key(SwitchId{3}, PortId{8}), Metric::kLatency, 500);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(second->port_path.edges, want->edges);
  EXPECT_EQ(second->port_path.nodes, want->nodes);
  EXPECT_DOUBLE_EQ(second->internal.latency_us, 10000);
}

TEST_F(RoutingFixture, GbrQueryFallsBackWhenTheTreePathIsTooThin) {
  const RoutingRequest req = add_slow_direct_link(nib, radio);
  // Leave 200 kbps on 2 - 3: the tree still runs over it (the tree has no
  // floor), but a 500 kbps bearer must take the slow direct link.
  ASSERT_TRUE(nib.reserve_link_bandwidth({SwitchId{2}, PortId{2}}, 1e6 - 200).ok());
  const std::uint64_t hit = route_trees("floored_hit"), miss = route_trees("floored_miss");
  auto route = routing.route(req);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route_trees("floored_hit"), hit);
  EXPECT_EQ(route_trees("floored_miss"), miss + 1);

  Graph fresh = build_port_graph(nib);
  auto want = fresh.shortest_path(port_key(radio.sw, radio.port),
                                  port_key(SwitchId{3}, PortId{8}), Metric::kLatency, 500);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(route->port_path.edges, want->edges);
  EXPECT_EQ(route->port_path.nodes, want->nodes);
  EXPECT_DOUBLE_EQ(route->internal.latency_us, 20000);
  EXPECT_DOUBLE_EQ(route->internal.bandwidth_kbps, 1000);

  // A best-effort query from the same source still reads the tree's path.
  RoutingRequest best_effort = req;
  best_effort.constraints.min_bandwidth_kbps = 0;
  auto fast = routing.route(best_effort);
  ASSERT_TRUE(fast.ok());
  EXPECT_DOUBLE_EQ(fast->internal.latency_us, 10000);
  EXPECT_DOUBLE_EQ(fast->internal.bandwidth_kbps, 200);
}

}  // namespace
}  // namespace softmow::nos
