#include "topo/lte_trace.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "topo/bs_group_inference.h"

namespace softmow::topo {

using dataplane::GeoPoint;

std::uint64_t TraceBin::total_bearers() const {
  return std::accumulate(bearer_arrivals.begin(), bearer_arrivals.end(), std::uint64_t{0});
}
std::uint64_t TraceBin::total_ue_arrivals() const {
  return std::accumulate(ue_arrivals.begin(), ue_arrivals.end(), std::uint64_t{0});
}
std::uint64_t TraceBin::total_handovers() const {
  std::uint64_t n = 0;
  for (const auto& [a, b, count] : handovers) n += count;
  return n;
}

double LteTrace::diurnal(double minute_of_day, double offpeak_fraction) {
  // Broad daytime hump peaking mid-afternoon, quiet overnight — the usual
  // cellular load shape. Smooth and strictly positive.
  double hour = minute_of_day / 60.0;
  double day = std::sin((hour - 6.0) / 16.0 * 3.14159265358979);
  double shape = day > 0 ? std::pow(day, 1.5) : 0.0;
  return offpeak_fraction + (1.0 - offpeak_fraction) * shape;
}

std::vector<AttachSite> attach_sites(const dataplane::PhysicalNetwork& net,
                                     const WanTopology& wan) {
  std::vector<AttachSite> sites;
  sites.reserve(wan.switches.size());
  for (SwitchId sw : wan.switches) sites.push_back(AttachSite{sw, net.switch_location(sw)});
  return sites;
}

LteTraceSynthesis synthesize_lte_trace(const std::vector<AttachSite>& sites,
                                       const LteTraceParams& params) {
  Rng rng(params.seed);
  LteTraceSynthesis synthesis;
  LteTrace& trace = synthesis.trace;

  // --- 1. Base-station locations: one large, continuous metropolitan area ----
  // The paper's trace covers a single large metro that the logical regions
  // *partition* (§7.1, §7.4), so the BS field must be dense and continuous —
  // region borders cut through it, which is what creates inter-region
  // handovers. Denser urban cores sit inside the metro.
  // One metro somewhere in the WAN's footprint — not its center: the traced
  // metro is a single city inside a continent-scale backbone, so the rigid
  // architecture's lone PGW is usually far away.
  GeoPoint metro_center{params.extent * 0.30, params.extent * 0.34};
  double metro_radius = params.extent * 0.26;
  std::vector<GeoPoint> cluster_centers;
  std::vector<double> cluster_popularity;
  for (std::size_t c = 0; c < params.metro_clusters; ++c) {
    double angle = rng.uniform(0, 2 * 3.14159265358979);
    double radius = metro_radius * std::sqrt(rng.uniform(0, 1));
    cluster_centers.push_back(GeoPoint{metro_center.x + radius * std::cos(angle),
                                       metro_center.y + radius * std::sin(angle)});
    cluster_popularity.push_back(std::exp(rng.normal(0.0, 0.6)));  // lognormal density
  }

  std::vector<GeoPoint> bs_locations;
  std::vector<double> bs_popularity;
  for (std::size_t b = 0; b < params.base_stations; ++b) {
    std::size_t c = rng.weighted_index(cluster_popularity);
    double spread = metro_radius / 3.0;
    GeoPoint at{cluster_centers[c].x + rng.normal(0, spread),
                cluster_centers[c].y + rng.normal(0, spread)};
    bs_locations.push_back(at);
    bs_popularity.push_back(std::exp(rng.normal(0.0, 0.8)));
  }

  // --- 2. BS-level handover graph: gravity model over k nearest neighbors -----
  // (handover volume falls off with distance and rises with both cells'
  // traffic density).
  double tau = params.extent / 50.0;
  std::vector<BsId> provisional_ids(params.base_stations);
  for (std::size_t b = 0; b < params.base_stations; ++b) provisional_ids[b] = BsId{b};

  WeightedAdjacency<BsId> bs_graph;
  for (std::size_t b = 0; b < params.base_stations; ++b) {
    std::vector<std::pair<double, std::size_t>> by_distance;
    for (std::size_t o = 0; o < params.base_stations; ++o) {
      if (o == b) continue;
      by_distance.emplace_back(dataplane::distance(bs_locations[b], bs_locations[o]), o);
    }
    std::partial_sort(by_distance.begin(),
                      by_distance.begin() +
                          static_cast<long>(std::min(params.handover_neighbors,
                                                     by_distance.size())),
                      by_distance.end());
    for (std::size_t k = 0; k < std::min(params.handover_neighbors, by_distance.size()); ++k) {
      auto [d, o] = by_distance[k];
      double w = bs_popularity[b] * bs_popularity[o] * std::exp(-d / tau);
      if (w > 1e-6) bs_graph.add(provisional_ids[b], provisional_ids[o], w);
    }
  }

  // --- 3. Group inference (§7.1 greedy) and attachment to the WAN -------------
  auto inferred = infer_bs_groups(bs_graph, InferenceParams{6});

  // Map provisional BsIds to the real IDs that materialize will get: a
  // network without groups or stations numbers both from 0 in add order.
  std::map<BsId, BsId> real_id;
  std::map<BsId, BsGroupId> group_of_real;
  for (const InferredGroup& g : inferred) {
    GeoPoint centroid{0, 0};
    for (BsId provisional : g.members) {
      centroid.x += bs_locations[provisional.value].x;
      centroid.y += bs_locations[provisional.value].y;
    }
    centroid.x /= static_cast<double>(g.members.size());
    centroid.y /= static_cast<double>(g.members.size());

    // Nearest WAN switch hosts the group's access uplink.
    SwitchId nearest = sites.front().sw;
    double best = 1e18;
    for (const AttachSite& site : sites) {
      double d = dataplane::distance(site.location, centroid);
      if (d < best) {
        best = d;
        nearest = site.sw;
      }
    }
    LteTraceSynthesis::Group& group = synthesis.groups.emplace_back();
    group.attach = nearest;
    group.centroid = centroid;
    BsGroupId gid{trace.groups.size()};
    for (BsId provisional : g.members) {
      group.members.push_back(bs_locations[provisional.value]);
      BsId real{trace.stations.size()};
      real_id[provisional] = real;
      group_of_real[real] = gid;
      trace.stations.push_back(real);
    }
    trace.group_index[gid] = static_cast<std::uint32_t>(trace.groups.size());
    trace.groups.push_back(gid);
  }

  // Re-key the handover graph to real IDs and aggregate to group level.
  for (const auto& [key, w] : bs_graph.edges()) {
    BsId a = real_id.at(key.first);
    BsId b = real_id.at(key.second);
    trace.bs_handover_graph.add(a, b, w);
    BsGroupId ga = group_of_real.at(a);
    BsGroupId gb = group_of_real.at(b);
    if (!(ga == gb)) trace.group_adjacency.add(ga, gb, w);
  }

  // --- 4. Event bins with diurnal modulation ----------------------------------
  std::size_t n_groups = trace.groups.size();
  std::vector<double> group_popularity(n_groups, 0.0);
  {
    std::map<BsId, double> real_popularity;
    for (const auto& [provisional, real] : real_id)
      real_popularity[real] = bs_popularity[provisional.value];
    for (const auto& [real, gid] : group_of_real)
      group_popularity[trace.group_index.at(gid)] += real_popularity[real];
  }
  double popularity_total =
      std::accumulate(group_popularity.begin(), group_popularity.end(), 0.0);

  // Handover edge list at group level with normalized weights.
  struct GroupEdge {
    std::uint32_t a, b;
    double weight;
  };
  std::vector<GroupEdge> group_edges;
  double edge_weight_total = 0;
  for (const auto& [key, w] : trace.group_adjacency.edges()) {
    group_edges.push_back(GroupEdge{trace.group_index.at(key.first),
                                    trace.group_index.at(key.second), w});
    edge_weight_total += w;
  }

  std::vector<TraceBin> bins;
  bins.reserve(params.duration_minutes);
  for (std::size_t minute = 0; minute < params.duration_minutes; ++minute) {
    double shape = LteTrace::diurnal(static_cast<double>(minute % 1440),
                                     params.offpeak_fraction);
    double jitter = 1.0 + rng.normal(0, 0.05);
    if (jitter < 0.5) jitter = 0.5;
    double scale = shape * jitter;

    TraceBin bin;
    bin.bearer_arrivals.resize(n_groups, 0);
    bin.ue_arrivals.resize(n_groups, 0);
    for (std::size_t g = 0; g < n_groups; ++g) {
      double share = group_popularity[g] / popularity_total;
      bin.bearer_arrivals[g] = static_cast<std::uint32_t>(
          rng.poisson(params.peak_bearers_per_min * scale * share));
      bin.ue_arrivals[g] = static_cast<std::uint32_t>(
          rng.poisson(params.peak_ue_arrivals_per_min * scale * share));
    }
    for (const GroupEdge& e : group_edges) {
      double mean = params.peak_handovers_per_min * scale * (e.weight / edge_weight_total);
      auto count = static_cast<std::uint32_t>(rng.poisson(mean));
      if (count > 0) {
        bin.handovers.emplace_back(std::min(e.a, e.b), std::max(e.a, e.b), count);
      }
    }
    bins.push_back(std::move(bin));
  }

  // --- 5. Aggregate load per group --------------------------------------------
  // Summed densely by group index, in bin order, then stored once. Keep the
  // order: float sums depend on it, and group_load feeds region partitioning.
  std::vector<double> load(n_groups, 0.0);
  for (const TraceBin& bin : bins) {
    for (std::size_t g = 0; g < n_groups; ++g)
      load[g] += static_cast<double>(bin.bearer_arrivals[g]) + bin.ue_arrivals[g];
    for (const auto& [a, b, count] : bin.handovers) {
      load[a] += count;
      load[b] += count;
    }
  }
  for (std::size_t g = 0; g < n_groups; ++g) trace.group_load[trace.groups[g]] = load[g];
  trace.bins = TraceBins(std::move(bins));
  return synthesis;
}

LteTrace materialize(dataplane::PhysicalNetwork& net, const LteTraceSynthesis& synthesis) {
  const LteTrace& trace = synthesis.trace;
  std::size_t station = 0;
  for (std::size_t g = 0; g < synthesis.groups.size(); ++g) {
    const LteTraceSynthesis::Group& group = synthesis.groups[g];
    BsGroupId gid =
        net.add_bs_group(group.attach, dataplane::BsGroupTopology::kRing, group.centroid);
    if (gid != trace.groups[g])
      throw std::logic_error("materialize: network assigned " + gid.str() + ", synthesis " +
                             trace.groups[g].str());
    for (GeoPoint at : group.members) {
      BsId id = net.add_base_station(gid, at);
      if (id != trace.stations[station])
        throw std::logic_error("materialize: network assigned " + id.str() + ", synthesis " +
                               trace.stations[station].str());
      ++station;
    }
  }
  return trace;
}

LteTrace generate_lte_trace(dataplane::PhysicalNetwork& net, const WanTopology& wan,
                            const LteTraceParams& params) {
  return materialize(net, synthesize_lte_trace(attach_sites(net, wan), params));
}

}  // namespace softmow::topo
