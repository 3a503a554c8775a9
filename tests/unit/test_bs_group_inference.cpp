// BS-group inference against its reference greedy, golden pins of the
// synthesized LTE trace, and build_scenario's reuse of one synthesis.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "bs_group_greedy_oracle.h"
#include "obs/metrics.h"
#include "topo/lte_trace.h"
#include "topo/scenario.h"
#include "topo/wan_generator.h"

namespace softmow::topo {
namespace {

std::string describe(const InferredGroup& g) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < g.members.size(); ++i)
    out << (i == 0 ? "" : ",") << g.members[i].value;
  out << '}';
  return out.str();
}

::testing::AssertionResult same_groups(const std::vector<InferredGroup>& expected,
                                       const std::vector<InferredGroup>& actual) {
  for (std::size_t i = 0; i < std::min(expected.size(), actual.size()); ++i) {
    if (expected[i].members != actual[i].members)
      return ::testing::AssertionFailure() << "group " << i << ": expected "
                                           << describe(expected[i]) << ", got "
                                           << describe(actual[i]);
  }
  if (expected.size() != actual.size())
    return ::testing::AssertionFailure() << "expected " << expected.size()
                                         << " groups, got " << actual.size();
  return ::testing::AssertionSuccess();
}

/// Small graph with integer weights 0..3 (so equal weights tie often),
/// sparse ID values, several islands and typically some isolated stations.
WeightedAdjacency<BsId> random_graph(Rng& rng, bool& has_isolated) {
  WeightedAdjacency<BsId> graph;
  std::vector<std::vector<BsId>> islands(rng.uniform_u64(1, 4));
  std::uint64_t n = rng.uniform_u64(1, 40);
  for (std::uint64_t i = 0; i < n; ++i) {
    BsId bs{i * 3 + 1};
    graph.add_node(bs);
    islands[rng.uniform_u64(0, islands.size() - 1)].push_back(bs);
  }
  for (const auto& island : islands) {
    if (island.size() < 2) continue;
    std::uint64_t edges = rng.uniform_u64(0, 2 * island.size());
    for (std::uint64_t e = 0; e < edges; ++e)
      graph.add(rng.choice(island), rng.choice(island),
                static_cast<double>(rng.uniform_u64(0, 3)));
  }
  has_isolated = false;
  for (BsId bs : graph.nodes()) has_isolated |= graph.neighbors(bs).empty();
  return graph;
}

TEST(BsGroupInferenceOracle, MatchesGreedyOnRandomGraphsWithTies) {
  int graphs_with_isolated = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    bool has_isolated = false;
    auto graph = random_graph(rng, has_isolated);
    graphs_with_isolated += has_isolated ? 1 : 0;
    for (std::size_t max : {1, 2, 3, 6, 10}) {
      InferenceParams params{max};
      ASSERT_TRUE(same_groups(oracle::greedy_bs_groups(graph, params),
                              infer_bs_groups(graph, params)))
          << "seed " << seed << ", max_group_size " << max;
    }
  }
  EXPECT_GT(graphs_with_isolated, 100);
}

TEST(BsGroupInferenceOracle, MatchesGreedyOnSynthesizedBsGraphs) {
  for (std::size_t stations : {120, 300}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ScenarioParams p = small_scenario_params(seed);
      p.trace.base_stations = stations;
      p.trace.duration_minutes = 1;
      p.trace.extent = p.wan.extent;
      dataplane::PhysicalNetwork net;
      WanTopology wan = generate_wan(net, p.wan);
      LteTrace trace = generate_lte_trace(net, wan, p.trace);
      WeightedAdjacency<BsId> graph = trace.bs_handover_graph;
      for (BsId bs : trace.stations) graph.add_node(bs);
      ASSERT_EQ(graph.nodes().size(), stations);
      auto groups = infer_bs_groups(graph);
      EXPECT_TRUE(same_groups(oracle::greedy_bs_groups(graph), groups))
          << stations << " stations, seed " << seed;
    }
  }
}

// ---------------------------------------------------------------- golden
// Pins of generate_lte_trace output. Any change to synthesis — the RNG
// stream, inference, group attachment or load aggregation — moves one of
// these and must be made deliberately, since every bench baseline moves too.

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xff;
      value *= 0x100000001b3ull;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

/// Group order, sizes, attach switches and each member's location.
std::uint64_t group_digest(const dataplane::PhysicalNetwork& net, const LteTrace& trace) {
  Digest d;
  for (BsGroupId gid : trace.groups) {
    const dataplane::BsGroup* group = net.bs_group(gid);
    d.mix(std::uint64_t{group->members.size()});
    d.mix(group->core_attach.sw.value);
    for (BsId bs : group->members) {
      d.mix(net.base_station(bs)->location.x);
      d.mix(net.base_station(bs)->location.y);
    }
  }
  return d.value;
}

/// Each group's load, keyed by group, bit for bit.
std::uint64_t load_digest(const LteTrace& trace) {
  Digest load;
  for (const auto& [gid, value] : trace.group_load) {
    load.mix(gid.value);
    load.mix(value);
  }
  return load.value;
}

/// Per-bin bearer, UE-arrival and handover totals, in bin order.
std::uint64_t bins_digest(const LteTrace& trace) {
  Digest bins;
  for (const TraceBin& bin : trace.bins) {
    bins.mix(bin.total_bearers());
    bins.mix(bin.total_ue_arrivals());
    bins.mix(bin.total_handovers());
  }
  return bins.value;
}

LteTrace synthesize(dataplane::PhysicalNetwork& net, ScenarioParams p) {
  p.trace.extent = p.wan.extent;  // as build_scenario does
  WanTopology wan = generate_wan(net, p.wan);
  return generate_lte_trace(net, wan, p.trace);
}

TEST(LteTraceGolden, SmallScenarioSeed1) {
  dataplane::PhysicalNetwork net;
  LteTrace trace = synthesize(net, small_scenario_params(1));

  EXPECT_EQ(trace.groups.size(), 51u);
  EXPECT_EQ(group_digest(net, trace), 0x5f0a9a03d96df2e5ull);

  EXPECT_EQ(trace.group_load.size(), trace.groups.size());
  EXPECT_EQ(load_digest(trace), 0xbd0e852fbc279abbull);

  ASSERT_EQ(trace.bins.size(), 120u);
  std::uint64_t bearers = 0, ue_arrivals = 0, handovers = 0;
  for (const TraceBin& bin : trace.bins) {
    bearers += bin.total_bearers();
    ue_arrivals += bin.total_ue_arrivals();
    handovers += bin.total_handovers();
  }
  EXPECT_EQ(bearers, 168700u);
  EXPECT_EQ(ue_arrivals, 16742u);
  EXPECT_EQ(handovers, 25060u);
  EXPECT_EQ(bins_digest(trace), 0x0e74fc4aa4428915ull);
}

// Groups depend only on the RNG stream before the bins, so one bin is
// enough to pin the paper-scale (1000-station, seed 1) grouping.
TEST(LteTraceGolden, PaperScaleGroups) {
  ScenarioParams p;
  p.wan.switches = 321;
  p.trace.base_stations = 1000;
  p.trace.duration_minutes = 1;
  p.wan.seed = 1 * 13 + 7;
  p.trace.seed = 1 * 29 + 11;
  dataplane::PhysicalNetwork net;
  LteTrace trace = synthesize(net, p);
  EXPECT_EQ(trace.stations.size(), 1000u);
  EXPECT_EQ(trace.groups.size(), 567u);
  EXPECT_EQ(group_digest(net, trace), 0xccfa227cd0df0eecull);
}

// ------------------------------------------------------------------ memo
// build_scenario synthesizes a trace once and materializes the last
// synthesis again while its inputs compare equal.

std::uint64_t lte_traces(const char* result) {
  return obs::default_registry().counter("lte_traces_total", {{"result", result}})->value();
}

/// Each group's and station's ID and location, in trace order.
::testing::AssertionResult same_stations(const Scenario& a, const Scenario& b) {
  if (a.trace.groups != b.trace.groups) return ::testing::AssertionFailure() << "group ids";
  if (a.trace.stations != b.trace.stations) return ::testing::AssertionFailure() << "BS ids";
  for (BsGroupId gid : a.trace.groups) {
    const dataplane::BsGroup* ga = a.net.bs_group(gid);
    const dataplane::BsGroup* gb = b.net.bs_group(gid);
    if (ga->centroid != gb->centroid || ga->core_attach.sw != gb->core_attach.sw ||
        ga->members != gb->members)
      return ::testing::AssertionFailure() << gid << " differs";
  }
  for (BsId bs : a.trace.stations) {
    if (a.net.base_station(bs)->location != b.net.base_station(bs)->location)
      return ::testing::AssertionFailure() << bs << " location differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(LteTraceMemo, RepeatBuildReusesTheSynthesis) {
  auto first = build_scenario(small_scenario_params(1));
  const std::uint64_t synthesized = lte_traces("synthesized");
  const std::uint64_t reused = lte_traces("reused");
  auto second = build_scenario(small_scenario_params(1));
  EXPECT_EQ(lte_traces("synthesized"), synthesized);
  EXPECT_EQ(lte_traces("reused"), reused + 1);

  EXPECT_TRUE(same_stations(*first, *second));
  EXPECT_EQ(load_digest(second->trace), load_digest(first->trace));
  EXPECT_EQ(bins_digest(second->trace), bins_digest(first->trace));
  // The bins are one storage, not a copy.
  ASSERT_FALSE(first->trace.bins.empty());
  EXPECT_EQ(second->trace.bins.begin(), first->trace.bins.begin());

  // The memoized path yields the golden trace.
  EXPECT_EQ(group_digest(second->net, second->trace), 0x5f0a9a03d96df2e5ull);
  EXPECT_EQ(load_digest(second->trace), 0xbd0e852fbc279abbull);
  EXPECT_EQ(bins_digest(second->trace), 0x0e74fc4aa4428915ull);
}

TEST(LteTraceMemo, OtherSeedInBetweenGetsItsOwnSynthesis) {
  ScenarioParams other = small_scenario_params(1);
  other.trace.seed += 1;
  auto first = build_scenario(small_scenario_params(1));
  const std::uint64_t synthesized = lte_traces("synthesized");
  auto between = build_scenario(other);
  EXPECT_EQ(lte_traces("synthesized"), synthesized + 1);
  EXPECT_NE(between->trace.bins.begin(), first->trace.bins.begin());
  EXPECT_NE(bins_digest(between->trace), bins_digest(first->trace));

  // One slot: the first inputs are synthesized again, to the same trace.
  auto again = build_scenario(small_scenario_params(1));
  EXPECT_EQ(lte_traces("synthesized"), synthesized + 2);
  EXPECT_NE(again->trace.bins.begin(), first->trace.bins.begin());
  EXPECT_TRUE(same_stations(*first, *again));
  EXPECT_EQ(load_digest(again->trace), load_digest(first->trace));
  EXPECT_EQ(bins_digest(again->trace), bins_digest(first->trace));
}

TEST(LteTraceMemo, MaterializeIntoANetWithGroupsThrows) {
  ScenarioParams p = small_scenario_params(1);
  p.trace.extent = p.wan.extent;
  dataplane::PhysicalNetwork net;
  WanTopology wan = generate_wan(net, p.wan);
  LteTraceSynthesis synthesis = synthesize_lte_trace(attach_sites(net, wan), p.trace);
  (void)net.add_bs_group(wan.switches.front());
  EXPECT_THROW((void)materialize(net, synthesis), std::logic_error);
}

}  // namespace
}  // namespace softmow::topo
