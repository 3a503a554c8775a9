// Route-tree cache oracle (§4.2): nos::RoutingService serves best-effort
// segments, and floored segments whose tree path clears the floor, from
// per-source shortest-path trees it keeps across requests and bandwidth
// changes. Under seeded churn on every level of a three-level
// hierarchy — repeated best-effort and GBR queries, reservations and
// releases (bandwidth epochs), link down/up and vFabric rewrites (topology
// versions) — every route must equal an uncached Graph::shortest_path on the
// same port graph, in nodes, edges and all three metrics, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "softmow/softmow.h"

namespace softmow {
namespace {

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_path(const GraphPath& got, const GraphPath& want, const std::string& where) {
  EXPECT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(got.edges, want.edges) << where;
  EXPECT_TRUE(bit_equal(got.metrics.latency_us, want.metrics.latency_us)) << where;
  EXPECT_TRUE(bit_equal(got.metrics.hop_count, want.metrics.hop_count)) << where;
  EXPECT_TRUE(bit_equal(got.metrics.bandwidth_kbps, want.metrics.bandwidth_kbps))
      << where << ": " << got.metrics.bandwidth_kbps << " vs " << want.metrics.bandwidth_kbps;
}

class RouteTreeCacheTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    topo::ScenarioParams params = topo::small_scenario_params(5);
    params.regions = 4;
    params.with_mid_level = true;
    scenario_ = topo::build_scenario(std::move(params)).release();
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static topo::Scenario* scenario_;
};

topo::Scenario* RouteTreeCacheTest::scenario_ = nullptr;

/// One controller under churn and the sources its queries repeat from.
struct Target {
  reca::Controller* c;
  std::vector<Endpoint> sources;
};

/// Checks one query against the uncached search on the same graph: an
/// internal destination must get exactly shortest_path's answer (or its
/// failure); an internet-bound one must pick the egress a per-candidate
/// search ranks best, over exactly that candidate's shortest path.
void check_query(const nos::RoutingService& routing, const nos::Nib& nib,
                 const nos::RoutingRequest& req, const std::string& where) {
  auto route = routing.route(req);
  const Graph& g = routing.port_graph();
  const NodeKey src = nos::port_key(req.source.sw, req.source.port);
  const double floor_kbps = req.constraints.min_bandwidth_kbps;
  if (req.dst) {
    auto want = g.shortest_path(src, nos::port_key(req.dst->sw, req.dst->port), req.objective,
                                floor_kbps);
    ASSERT_EQ(route.ok(), want.ok()) << where;
    if (want.ok()) expect_same_path(route->port_path, *want, where);
    return;
  }
  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<GraphPath> best;
  for (const nos::ExternalRoute& cand : nib.external_routes(*req.dst_prefix)) {
    auto seg = g.shortest_path(src, nos::port_key(cand.egress.sw, cand.egress.port),
                               req.objective, floor_kbps);
    if (!seg.ok()) continue;
    double cost = req.objective == Metric::kLatency ? seg->metrics.latency_us + cand.latency_us
                                                    : seg->metrics.hop_count + cand.hops;
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(seg).value();
    }
  }
  ASSERT_EQ(route.ok(), best.has_value()) << where;
  if (best) expect_same_path(route->port_path, *best, where);
}

TEST_P(RouteTreeCacheTest, CachedRoutesMatchUncachedSearchUnderChurn) {
  auto& mp = *scenario_->mgmt;
  std::vector<Target> targets;
  for (reca::Controller* c : mp.leaves()) targets.push_back({c, {}});
  for (reca::Controller* c : mp.mids()) targets.push_back({c, {}});
  targets.push_back({&mp.root(), {}});
  ASSERT_FALSE(mp.mids().empty());

  Rng rng(GetParam());
  for (Target& t : targets) {
    // G-BS attachment ports (where bearers start), plus a few arbitrary
    // port nodes (handover transfer paths start at any of them).
    for (GBsId gbs : t.c->nib().gbs_list()) {
      const southbound::GBsAnnounce* rec = t.c->nib().gbs(gbs);
      t.sources.push_back({rec->attached_switch, rec->attached_port});
      if (t.sources.size() == 4) break;
    }
    std::vector<NodeKey> nodes = t.c->routing().port_graph().nodes();
    ASSERT_FALSE(nodes.empty());
    for (int i = 0; i < 2; ++i)
      t.sources.push_back(nos::key_endpoint(nodes[rng.uniform_u64(0, nodes.size() - 1)]));
  }
  std::vector<PrefixId> prefixes;
  for (const nos::ExternalRoute& r : mp.root().nib().all_external_routes()) {
    if (prefixes.empty() || prefixes.back() != r.prefix) prefixes.push_back(r.prefix);
    if (prefixes.size() == 8) break;
  }
  ASSERT_FALSE(prefixes.empty());

  struct Held {
    nos::Nib* nib;
    Endpoint at;
    double kbps;
  };
  std::vector<Held> held;
  struct Downed {
    nos::Nib* nib;
    Endpoint at;
  };
  std::vector<Downed> downed;
  struct Rewritten {
    nos::Nib* nib;
    SwitchId sw;
    std::vector<southbound::VFabricEntry> original;
  };
  std::vector<Rewritten> rewritten;

  auto reused = [](int level) {
    return obs::default_registry()
        .find_counter("route_trees_total",
                      {{"level", std::to_string(level)}, {"result", "reused"}})
        ->value();
  };
  const int leaf_level = mp.leaves().front()->level(), mid_level = mp.mids().front()->level(),
            root_level = mp.root().level();
  const std::uint64_t reused_leaf = reused(leaf_level), reused_mid = reused(mid_level),
                      reused_root = reused(root_level);

  for (int step = 0; step < 100; ++step) {
    // One change on one controller...
    const Target& changed = targets[rng.uniform_u64(0, targets.size() - 1)];
    nos::Nib& nib = changed.c->nib();
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // reserve on a link of a current route from a repeated source
        const std::vector<nos::LinkRecord>& links = nib.links();
        if (links.empty()) break;
        const nos::RoutingService& routing = changed.c->routing();
        const Graph& g = routing.port_graph();
        std::vector<NodeKey> nodes = g.nodes();
        Endpoint from = changed.sources[rng.uniform_u64(0, changed.sources.size() - 1)];
        auto path = g.shortest_path(nos::port_key(from.sw, from.port),
                                    nodes[rng.uniform_u64(0, nodes.size() - 1)], Metric::kHops);
        std::vector<std::uint32_t> slots;
        if (path.ok()) {
          for (EdgeKey e : path->edges) {
            std::uint32_t slot = routing.port_graph_links().slot_of(e);
            if (slot != nos::PortGraphLinks::kNoLink) slots.push_back(slot);
          }
        }
        const nos::LinkRecord& l = slots.empty()
                                       ? links[rng.uniform_u64(0, links.size() - 1)]
                                       : links[slots[rng.uniform_u64(0, slots.size() - 1)]];
        Endpoint at = rng.bernoulli(0.5) ? l.a : l.b;
        double cap = std::isfinite(l.metrics.bandwidth_kbps) ? l.metrics.bandwidth_kbps : 1e4;
        // Half the reservations leave less than a GBR rate on the link, so
        // bandwidth floors bind.
        double kbps = rng.bernoulli(0.5) ? std::max(1.0, cap - rng.uniform(0, 30000))
                                         : rng.uniform(0.0, 0.9) * cap + 1.0;
        if (nib.reserve_link_bandwidth(at, kbps).ok()) held.push_back({&nib, at, kbps});
        break;
      }
      case 1: {  // release a held reservation
        if (held.empty()) break;
        std::size_t i = rng.uniform_u64(0, held.size() - 1);
        ASSERT_TRUE(held[i].nib->release_link_bandwidth(held[i].at, held[i].kbps).ok());
        held.erase(held.begin() + static_cast<long>(i));
        break;
      }
      case 2: {  // take a link down, or bring one back
        if (!downed.empty() && rng.bernoulli(0.5)) {
          downed.back().nib->set_links_at_up(downed.back().at, true);
          downed.pop_back();
          break;
        }
        const std::vector<nos::LinkRecord>& links = nib.links();
        if (links.empty()) break;
        const nos::LinkRecord& l = links[rng.uniform_u64(0, links.size() - 1)];
        if (!l.up) break;
        Endpoint at = l.a;
        nib.set_links_at_up(at, false);
        downed.push_back({&nib, at});
        break;
      }
      case 3: {  // rewrite one G-switch's vFabric: one entry's cost grows
        std::vector<SwitchId> gswitches;
        for (SwitchId sw : nib.switches()) {
          if (!nib.sw(sw)->vfabric.empty()) gswitches.push_back(sw);
        }
        if (gswitches.empty()) break;
        SwitchId sw = gswitches[rng.uniform_u64(0, gswitches.size() - 1)];
        std::vector<southbound::VFabricEntry> entries = nib.sw(sw)->vfabric;
        if (std::none_of(rewritten.begin(), rewritten.end(),
                         [&](const Rewritten& r) { return r.nib == &nib && r.sw == sw; }))
          rewritten.push_back({&nib, sw, entries});
        southbound::VFabricEntry& e = entries[rng.uniform_u64(0, entries.size() - 1)];
        e.metrics.latency_us += rng.uniform(1000, 20000);
        e.metrics.hop_count += 2;
        ASSERT_TRUE(nib.set_vfabric(sw, std::move(entries)).ok());
        break;
      }
      default:
        break;  // a query-only step
    }

    // ...then queries at every level: repeated sources, both objectives,
    // best-effort and GBR.
    for (Target& t : targets) {
      std::vector<NodeKey> nodes = t.c->routing().port_graph().nodes();
      for (int q = 0; q < 4; ++q) {
        nos::RoutingRequest req;
        req.source = t.sources[rng.uniform_u64(0, t.sources.size() - 1)];
        req.objective = rng.bernoulli(0.5) ? Metric::kHops : Metric::kLatency;
        if (rng.bernoulli(0.2)) req.constraints.min_bandwidth_kbps = rng.uniform(2000, 20000);
        if (rng.bernoulli(0.5))
          req.dst_prefix = prefixes[rng.uniform_u64(0, prefixes.size() - 1)];
        else
          req.dst = nos::key_endpoint(nodes[rng.uniform_u64(0, nodes.size() - 1)]);
        check_query(t.c->routing(), t.c->nib(), req,
                    t.c->name() + " step " + std::to_string(step) + " query " +
                        std::to_string(q));
      }
    }
  }
  // Every level served routes off trees it kept across queries.
  EXPECT_GT(reused(leaf_level), reused_leaf);
  EXPECT_GT(reused(mid_level), reused_mid);
  EXPECT_GT(reused(root_level), reused_root);

  // Leave the shared scenario as it was for the next seed.
  for (const Held& h : held) ASSERT_TRUE(h.nib->release_link_bandwidth(h.at, h.kbps).ok());
  for (const Downed& d : downed) d.nib->set_links_at_up(d.at, true);
  for (Rewritten& r : rewritten) ASSERT_TRUE(r.nib->set_vfabric(r.sw, r.original).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteTreeCacheTest, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace softmow
