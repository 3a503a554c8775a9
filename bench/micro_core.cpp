// Micro-benchmarks (google-benchmark): the hot paths of the controller —
// flow-table lookup, port-graph Dijkstra, route computation, path setup —
// and the RecA abstraction recompute.
//
// `--bench-json <path>` (stripped before google-benchmark sees the argv)
// additionally writes a BENCH_micro_core.json report with one
// `micro.<name>.real_ns` headline per benchmark, the series the CI perf
// gate diffs via tools/bench_compare.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/report.h"
#include "softmow/softmow.h"

namespace softmow {
namespace {

void BM_FlowTableLookup(benchmark::State& state) {
  dataplane::FlowTable table;
  const std::int64_t rules = state.range(0);
  for (std::int64_t i = 0; i < rules; ++i) {
    dataplane::FlowRule rule;
    rule.cookie = static_cast<std::uint64_t>(i) + 1;
    rule.priority = 100;
    rule.match.label = static_cast<std::uint32_t>(i);
    rule.match.in_port = PortId{static_cast<std::uint64_t>(i % 8) + 1};
    rule.actions = {dataplane::output(PortId{2})};
    (void)table.install(rule);
  }
  Packet pkt;
  pkt.labels.push_back(Label{static_cast<std::uint32_t>(rules - 1), 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.lookup(pkt, PortId{static_cast<std::uint64_t>((rules - 1) % 8) + 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(256)->Arg(4096);

struct GraphFixture {
  Graph graph;
  NodeKey last = 0;
  explicit GraphFixture(std::size_t nodes) {
    Rng rng(3);
    for (NodeKey n = 0; n < nodes; ++n) graph.add_node(n);
    for (std::size_t e = 0; e < nodes * 3; ++e) {
      NodeKey a = rng.uniform_u64(0, nodes - 1), b = rng.uniform_u64(0, nodes - 1);
      if (a == b) continue;
      graph.add_bidirectional(a, b, EdgeMetrics{rng.uniform(1, 10), 1, 1e6});
    }
    last = nodes - 1;
  }
};

void BM_Dijkstra(benchmark::State& state) {
  GraphFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.graph.shortest_path(0, fx.last, Metric::kLatency));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(100)->Arg(1000)->Arg(5000);

void BM_ShortestTree(benchmark::State& state) {
  GraphFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.graph.shortest_tree(0, Metric::kHops));
  }
}
BENCHMARK(BM_ShortestTree)->Arg(100)->Arg(1000);

// A cold full-run route tree (what RoutingService caches per source and
// objective) on the BM_Dijkstra graphs: the cost of the first best-effort
// route from a source after a topology change.
void BM_ShortestPathTree(benchmark::State& state) {
  GraphFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.graph.path_tree(0, Metric::kLatency));
  }
}
BENCHMARK(BM_ShortestPathTree)->Arg(100)->Arg(1000)->Arg(5000);

struct ScenarioFixture {
  std::unique_ptr<topo::Scenario> scenario;
  ScenarioFixture() { scenario = topo::build_scenario(topo::small_scenario_params(7)); }
  static ScenarioFixture& get() {
    static ScenarioFixture fx;
    return fx;
  }
};

void BM_RootRouteComputation(benchmark::State& state) {
  auto& fx = ScenarioFixture::get();
  auto& root = fx.scenario->mgmt->root();
  GBsId gbs = root.nib().gbs_list().front();
  const auto* rec = root.nib().gbs(gbs);
  nos::RoutingRequest req;
  req.source = Endpoint{rec->attached_switch, rec->attached_port};
  req.dst_prefix = PrefixId{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(root.compute_route(req));
  }
}
BENCHMARK(BM_RootRouteComputation);

void BM_LeafBearerSetupTeardown(benchmark::State& state) {
  auto& fx = ScenarioFixture::get();
  auto& mp = *fx.scenario->mgmt;
  BsGroupId group = fx.scenario->partition.group_regions[0].front();
  BsId bs = fx.scenario->net.bs_group(group)->members.front();
  auto& mobility = fx.scenario->apps->mobility(*mp.leaf_of_group(group));
  UeId ue{424242};
  (void)mobility.ue_attach(ue, bs);
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = PrefixId{3};
  for (auto _ : state) {
    auto bearer = mobility.request_bearer(request);
    if (bearer.ok()) (void)mobility.deactivate_bearer(ue, *bearer);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LeafBearerSetupTeardown);

void BM_AbstractionRecompute(benchmark::State& state) {
  auto& fx = ScenarioFixture::get();
  auto& leaf = fx.scenario->mgmt->leaf(0);
  for (auto _ : state) {
    leaf.abstraction().mark_dirty();
    leaf.abstraction().recompute();
  }
}
BENCHMARK(BM_AbstractionRecompute);

/// The per-GBR-bearer vFabric upkeep: a reservation change on one link, then
/// the bandwidth-only refresh of the entries crossing it.
void BM_VfabricBandwidthUpdate(benchmark::State& state) {
  auto& fx = ScenarioFixture::get();
  auto& leaf = fx.scenario->mgmt->leaf(0);
  leaf.abstraction().refresh();
  const Endpoint at = leaf.nib().links().front().a;
  for (auto _ : state) {
    (void)leaf.nib().reserve_link_bandwidth(at, 1.0);
    (void)leaf.nib().release_link_bandwidth(at, 1.0);
    leaf.abstraction().refresh();
  }
}
BENCHMARK(BM_VfabricBandwidthUpdate);

/// ConsoleReporter that also records one headline per primary run. Wall-time
/// headlines gate with the coarse cross-machine tolerance; aggregate and
/// errored runs are skipped (repetitions report means separately).
class HeadlineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      double real_ns = run.GetAdjustedRealTime();  // per-iteration, in run.time_unit
      // GetAdjustedRealTime converts to the run's display unit; normalize
      // back to nanoseconds for a unit-stable series name.
      switch (run.time_unit) {
        case benchmark::kNanosecond: break;
        case benchmark::kMicrosecond: real_ns *= 1e3; break;
        case benchmark::kMillisecond: real_ns *= 1e6; break;
        case benchmark::kSecond: real_ns *= 1e9; break;
      }
      bench::add_headline({"micro." + run.benchmark_name() + ".real_ns", real_ns, "ns",
                           /*higher_is_better=*/false, bench::kWallTolerance, /*gate=*/true});
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace
}  // namespace softmow

int main(int argc, char** argv) {
  // Peel off --bench-json before google-benchmark validates the argv (it
  // rejects flags it does not know).
  std::string bench_json;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      bench_json = argv[++i];
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;
  softmow::HeadlineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!bench_json.empty()) {
    softmow::bench::BenchOptions opts;  // defaults: micro benches take no shared flags
    if (!softmow::bench::write_bench_report("micro_core", bench_json, opts)) return 1;
  }
  return 0;
}
