// Umbrella header: the full SoftMoW public API.
//
// Typical usage (see examples/quickstart.cpp):
//
//   softmow::topo::ScenarioParams params = softmow::topo::small_scenario_params();
//   auto scenario = softmow::topo::build_scenario(params);
//   auto& root = scenario->mgmt->root();
//   auto& mobility = scenario->apps->mobility(scenario->mgmt->leaf(0));
//   mobility.ue_attach(...); mobility.request_bearer(...);
#pragma once

#include "core/graph.h"            // IWYU pragma: export
#include "core/ids.h"              // IWYU pragma: export
#include "core/log.h"              // IWYU pragma: export
#include "core/packet.h"           // IWYU pragma: export
#include "core/result.h"           // IWYU pragma: export
#include "core/rng.h"              // IWYU pragma: export
#include "core/stats.h"            // IWYU pragma: export
#include "core/weighted_adjacency.h"  // IWYU pragma: export

#include "obs/chrome_trace.h"   // IWYU pragma: export
#include "obs/critical_path.h"  // IWYU pragma: export
#include "obs/export.h"         // IWYU pragma: export
#include "obs/json.h"           // IWYU pragma: export
#include "obs/metrics.h"        // IWYU pragma: export
#include "obs/trace.h"          // IWYU pragma: export

#include "analysis/report.h"       // IWYU pragma: export
#include "analysis/shard_check.h"  // IWYU pragma: export
#include "analysis/shard_guard.h"  // IWYU pragma: export

#include "sim/queueing.h"          // IWYU pragma: export
#include "sim/sharded.h"           // IWYU pragma: export
#include "sim/time.h"              // IWYU pragma: export

#include "dataplane/entities.h"    // IWYU pragma: export
#include "dataplane/flow_table.h"  // IWYU pragma: export
#include "dataplane/network.h"     // IWYU pragma: export
#include "dataplane/policy_tag.h"  // IWYU pragma: export
#include "dataplane/sswitch.h"     // IWYU pragma: export

#include "southbound/channel.h"      // IWYU pragma: export
#include "southbound/messages.h"     // IWYU pragma: export
#include "southbound/switch_agent.h" // IWYU pragma: export

#include "nos/device_bus.h"   // IWYU pragma: export
#include "nos/discovery.h"    // IWYU pragma: export
#include "nos/nib.h"          // IWYU pragma: export
#include "nos/path_impl.h"    // IWYU pragma: export
#include "nos/port_graph.h"   // IWYU pragma: export
#include "nos/routing.h"      // IWYU pragma: export

#include "reca/abstraction.h"  // IWYU pragma: export
#include "reca/agent.h"        // IWYU pragma: export
#include "reca/controller.h"   // IWYU pragma: export

#include "apps/interdomain.h"  // IWYU pragma: export
#include "apps/mobility.h"     // IWYU pragma: export
#include "apps/region_opt.h"   // IWYU pragma: export
#include "apps/subscriber.h"   // IWYU pragma: export
#include "apps/suite.h"        // IWYU pragma: export

#include "verify/rule_graph.h"  // IWYU pragma: export
#include "verify/verifier.h"    // IWYU pragma: export

#include "mgmt/audit.h"        // IWYU pragma: export
#include "mgmt/checkpoint.h"   // IWYU pragma: export
#include "mgmt/failover.h"     // IWYU pragma: export
#include "mgmt/management.h"   // IWYU pragma: export

#include "migrate/migration.h"  // IWYU pragma: export
#include "migrate/rehoming.h"   // IWYU pragma: export

#include "faults/fault.h"     // IWYU pragma: export
#include "faults/injector.h"  // IWYU pragma: export
#include "faults/recovery.h"  // IWYU pragma: export
#include "faults/scenario.h"  // IWYU pragma: export

#include "slice/slice.h"  // IWYU pragma: export

#include "topo/bs_group_inference.h"  // IWYU pragma: export
#include "topo/iplane_model.h"        // IWYU pragma: export
#include "topo/lte_trace.h"           // IWYU pragma: export
#include "topo/region_partitioner.h"  // IWYU pragma: export
#include "topo/scenario.h"            // IWYU pragma: export
#include "topo/trace_driver.h"        // IWYU pragma: export
#include "topo/wan_generator.h"       // IWYU pragma: export

