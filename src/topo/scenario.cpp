#include "topo/scenario.h"

#include <mutex>

#include "core/log.h"
#include "obs/metrics.h"

namespace softmow::topo {

namespace {

/// The synthesis of the last trace built in this process, under its inputs.
/// Benches and tests build the same scenario again and again; one slot is
/// enough for that, and keeps at most one trace alive beyond its scenarios.
struct TraceMemo {
  std::mutex mu;
  LteTraceParams params;
  std::vector<AttachSite> sites;
  std::shared_ptr<const LteTraceSynthesis> synthesis;
};

/// The synthesis for (sites, params): the memo's when both compare equal to
/// its key, else a fresh one that replaces it.
std::shared_ptr<const LteTraceSynthesis> shared_synthesis(std::vector<AttachSite> sites,
                                                          const LteTraceParams& params) {
  static TraceMemo memo;
  obs::MetricsRegistry& reg = obs::default_registry();
  obs::Counter* synthesized = reg.counter("lte_traces_total", {{"result", "synthesized"}});
  obs::Counter* reused = reg.counter("lte_traces_total", {{"result", "reused"}});
  std::lock_guard<std::mutex> lock(memo.mu);
  if (memo.synthesis == nullptr || memo.params != params || memo.sites != sites) {
    memo.synthesis =
        std::make_shared<const LteTraceSynthesis>(synthesize_lte_trace(sites, params));
    memo.params = params;
    memo.sites = std::move(sites);
    synthesized->inc();
  } else {
    reused->inc();
  }
  return memo.synthesis;
}

}  // namespace

std::unique_ptr<Scenario> build_scenario(ScenarioParams params) {
  auto scenario = std::make_unique<Scenario>();
  Rng rng(params.seed);

  scenario->wan = generate_wan(scenario->net, params.wan);
  scenario->egresses =
      place_egress_points(scenario->net, scenario->wan, params.egress_points, rng);
  params.trace.extent = params.wan.extent;
  params.iplane.extent = params.wan.extent;
  scenario->trace = materialize(
      scenario->net, *shared_synthesis(attach_sites(scenario->net, scenario->wan), params.trace));
  scenario->iplane = std::make_unique<IPlaneModel>(scenario->net, params.iplane);

  scenario->partition =
      partition_regions(scenario->net, scenario->trace.groups, scenario->wan.switches,
                        params.regions, scenario->trace.group_load);
  make_regions_connected(scenario->net, scenario->partition);

  // Middleboxes: a few per region, spread over common types (§2.1).
  const dataplane::MiddleboxType kTypes[] = {
      dataplane::MiddleboxType::kFirewall, dataplane::MiddleboxType::kLightweightDpi,
      dataplane::MiddleboxType::kRateLimiter, dataplane::MiddleboxType::kVideoTranscoder};
  for (std::size_t r = 0; r < scenario->partition.switch_regions.size(); ++r) {
    const auto& switches = scenario->partition.switch_regions[r];
    if (switches.empty()) continue;
    for (std::size_t m = 0; m < params.middleboxes_per_region; ++m) {
      SwitchId at = rng.choice(switches);
      scenario->net.add_middlebox(at, kTypes[(r + m) % 4], 1e6);
    }
  }

  mgmt::HierarchySpec spec;
  spec.label_mode = params.label_mode;
  spec.group_adjacency = scenario->trace.group_adjacency;
  for (std::size_t r = 0; r < params.regions; ++r) {
    mgmt::RegionSpec region;
    region.name = "leaf-" + std::string(1, static_cast<char>('A' + r));
    region.switches = scenario->partition.switch_regions[r];
    region.groups = scenario->partition.group_regions[r];
    spec.leaves.push_back(std::move(region));
  }
  if (params.with_mid_level) {
    for (std::size_t r = 0; r + 1 < params.regions; r += 2)
      spec.mid_regions.push_back({r, r + 1});
    if (params.regions % 2 == 1) spec.mid_regions.back().push_back(params.regions - 1);
  }

  scenario->mgmt = std::make_unique<mgmt::ManagementPlane>(&scenario->net);
  scenario->mgmt->bootstrap(spec);
  scenario->apps = std::make_unique<apps::AppSuite>(*scenario->mgmt);
  if (params.originate_interdomain) scenario->apps->originate_interdomain(*scenario->iplane);
  return scenario;
}

ScenarioParams small_scenario_params(std::uint64_t seed) {
  ScenarioParams p;
  p.wan.switches = 40;
  p.wan.pops = 8;
  p.wan.long_haul_links = 3;
  p.trace.base_stations = 120;
  p.trace.metro_clusters = 6;
  p.trace.duration_minutes = 120;
  p.trace.peak_bearers_per_min = 4000;
  p.trace.peak_ue_arrivals_per_min = 400;
  p.trace.peak_handovers_per_min = 600;
  p.iplane.prefixes = 200;
  p.regions = 4;
  p.egress_points = 4;
  p.seed = seed;
  p.wan.seed = seed * 13 + 7;
  p.trace.seed = seed * 29 + 11;
  p.iplane.seed = seed * 41 + 23;
  return p;
}

}  // namespace softmow::topo
