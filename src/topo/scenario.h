// One-call experiment scenario: WAN + radio network + traces + hierarchy +
// operator applications, matching the paper's §7.1 setup. All benches,
// examples and integration tests start here.
#pragma once

#include <memory>
#include <vector>

#include "apps/suite.h"
#include "dataplane/network.h"
#include "mgmt/management.h"
#include "topo/iplane_model.h"
#include "topo/lte_trace.h"
#include "topo/region_partitioner.h"
#include "topo/wan_generator.h"

namespace softmow::topo {

struct ScenarioParams {
  WanParams wan;
  LteTraceParams trace;
  IPlaneParams iplane;
  std::size_t regions = 4;         ///< leaf regions (power of two)
  std::size_t egress_points = 8;   ///< placed first; experiments may use a prefix
  /// Group leaf regions pairwise under level-2 controllers (3-level tree).
  bool with_mid_level = false;
  reca::LabelMode label_mode = reca::LabelMode::kSwapping;
  bool originate_interdomain = true;
  std::size_t middleboxes_per_region = 2;
  std::uint64_t seed = 1;
};

struct Scenario {
  dataplane::PhysicalNetwork net;
  WanTopology wan;
  std::vector<EgressId> egresses;
  LteTrace trace;
  PartitionResult partition;
  std::unique_ptr<IPlaneModel> iplane;
  std::unique_ptr<mgmt::ManagementPlane> mgmt;
  std::unique_ptr<apps::AppSuite> apps;
};

/// Builds the full scenario. Deterministic under `params`. The LTE trace
/// comes from the process's last synthesis when its inputs are equal
/// (lte_traces_total{result=synthesized|reused} counts both).
[[nodiscard]] std::unique_ptr<Scenario> build_scenario(ScenarioParams params);

/// A small scenario (fast enough for unit/integration tests): ~40 switches,
/// ~120 base stations, 4 regions, short trace.
[[nodiscard]] ScenarioParams small_scenario_params(std::uint64_t seed = 1);

}  // namespace softmow::topo
