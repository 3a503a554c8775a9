#include "topo/wan_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

namespace softmow::topo {

using dataplane::GeoPoint;
using dataplane::PhysicalNetwork;

namespace {

/// connect() fails only on an unknown switch or a self-loop, and every link
/// the generator wires joins two distinct switches it added itself.
void expect_wired([[maybe_unused]] const Result<LinkId>& link) { assert(link.ok()); }

}  // namespace

WanTopology generate_wan(PhysicalNetwork& net, const WanParams& params) {
  Rng rng(params.seed);
  WanTopology topo;
  auto latency = sim::Duration::millis(params.link_latency_ms);

  // --- POP centers: uniform with a minimum separation (rejection) -----------
  double min_sep = params.extent / (2.0 * std::sqrt(static_cast<double>(params.pops)));
  for (std::size_t p = 0; p < params.pops; ++p) {
    GeoPoint candidate;
    for (int attempt = 0; attempt < 64; ++attempt) {
      candidate = {rng.uniform(0, params.extent), rng.uniform(0, params.extent)};
      bool ok = true;
      for (const GeoPoint& existing : topo.pop_centers) {
        if (dataplane::distance(candidate, existing) < min_sep) {
          ok = false;
          break;
        }
      }
      if (ok) break;
    }
    topo.pop_centers.push_back(candidate);
  }

  // --- switch counts per POP: roughly even with random remainder -------------
  std::vector<std::size_t> pop_size(params.pops, params.switches / params.pops);
  for (std::size_t r = 0; r < params.switches % params.pops; ++r)
    pop_size[rng.uniform_u64(0, params.pops - 1)] += 1;

  topo.pop_members.resize(params.pops);
  for (std::size_t p = 0; p < params.pops; ++p) {
    for (std::size_t s = 0; s < pop_size[p]; ++s) {
      double angle = rng.uniform(0, 2 * 3.14159265358979);
      double radius = rng.uniform(0, params.extent / 40.0);
      GeoPoint loc{topo.pop_centers[p].x + radius * std::cos(angle),
                   topo.pop_centers[p].y + radius * std::sin(angle)};
      SwitchId sw = net.add_switch(loc);
      topo.pop_members[p].push_back(sw);
      topo.switches.push_back(sw);
    }
    // Intra-POP ring (metro latency: 1 ms) plus a chord for POPs >= 4.
    auto& members = topo.pop_members[p];
    if (members.size() >= 2) {
      for (std::size_t s = 0; s < members.size(); ++s) {
        SwitchId a = members[s];
        SwitchId b = members[(s + 1) % members.size()];
        if (members.size() == 2 && s == 1) break;  // avoid a double link
        expect_wired(net.connect(a, b, sim::Duration::millis(1), params.link_bandwidth_kbps));
      }
      if (members.size() >= 4)
        expect_wired(net.connect(members[0], members[members.size() / 2],
                                 sim::Duration::millis(1), params.link_bandwidth_kbps));
    }
  }

  // --- inter-POP links: k nearest neighbors + long hauls ---------------------
  std::set<std::pair<std::size_t, std::size_t>> pop_links;
  auto link_pops = [&](std::size_t a, std::size_t b) {
    if (a == b) return;
    auto key = std::minmax(a, b);
    if (!pop_links.insert({key.first, key.second}).second) return;
    // Border routers: a random member of each POP.
    SwitchId sa = rng.choice(topo.pop_members[a]);
    SwitchId sb = rng.choice(topo.pop_members[b]);
    expect_wired(net.connect(sa, sb, latency, params.link_bandwidth_kbps));
  };

  for (std::size_t p = 0; p < params.pops; ++p) {
    std::vector<std::pair<double, std::size_t>> by_distance;
    for (std::size_t q = 0; q < params.pops; ++q) {
      if (q == p) continue;
      by_distance.emplace_back(
          dataplane::distance(topo.pop_centers[p], topo.pop_centers[q]), q);
    }
    std::sort(by_distance.begin(), by_distance.end());
    for (std::size_t k = 0; k < std::min(params.pop_neighbor_links, by_distance.size()); ++k)
      link_pops(p, by_distance[k].second);
  }
  for (std::size_t l = 0; l < params.long_haul_links; ++l)
    link_pops(rng.uniform_u64(0, params.pops - 1), rng.uniform_u64(0, params.pops - 1));

  // --- connectivity repair: join components until one remains ----------------
  for (;;) {
    Graph g = net.build_core_graph();
    if (topo.switches.empty() || g.connected_from(topo.switches.front().value)) break;
    // Find one reachable and one unreachable POP and wire them.
    auto tree = g.shortest_tree(topo.switches.front().value, Metric::kHops);
    std::size_t unreachable_pop = params.pops;
    for (std::size_t p = 0; p < params.pops; ++p) {
      if (!topo.pop_members[p].empty() && !tree.contains(topo.pop_members[p][0].value)) {
        unreachable_pop = p;
        break;
      }
    }
    if (unreachable_pop == params.pops) break;  // unreachable switch w/o POP: impossible
    expect_wired(net.connect(rng.choice(topo.pop_members[0]),
                             rng.choice(topo.pop_members[unreachable_pop]), latency,
                             params.link_bandwidth_kbps));
  }
  return topo;
}

std::vector<EgressId> place_egress_points(PhysicalNetwork& net, const WanTopology& topo,
                                          std::size_t count, Rng& rng) {
  std::vector<EgressId> out;
  if (topo.pop_centers.empty()) return out;
  // Greedy farthest-point selection over POPs: egress points end up spread
  // out geographically, which is what gives the Fig. 8 egress sweep its
  // effect (close egress points for every region).
  std::vector<std::size_t> chosen;
  chosen.push_back(rng.uniform_u64(0, topo.pop_centers.size() - 1));
  while (chosen.size() < std::min(count, topo.pop_centers.size())) {
    double best_distance = -1;
    std::size_t best = 0;
    for (std::size_t p = 0; p < topo.pop_centers.size(); ++p) {
      double nearest = 1e18;
      for (std::size_t c : chosen)
        nearest = std::min(nearest,
                           dataplane::distance(topo.pop_centers[p], topo.pop_centers[c]));
      if (nearest > best_distance) {
        best_distance = nearest;
        best = p;
      }
    }
    chosen.push_back(best);
  }
  for (std::size_t p : chosen) {
    SwitchId sw = topo.pop_members[p].front();
    out.push_back(net.add_egress(sw, topo.pop_centers[p],
                                 "peer-pop-" + std::to_string(p)));
  }
  return out;
}

}  // namespace softmow::topo
