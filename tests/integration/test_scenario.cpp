// Integration tests over a complete (small) generated scenario: hierarchy
// bootstrap, interdomain propagation, bearers through the mobility app,
// intra- and inter-region handovers, and an executed region-optimization
// round with its reconfiguration protocol, the refusal of a duplicate
// (UE, prefix) bearer, and bearers restored when an idle UE turns active.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>

#include "softmow/softmow.h"

namespace softmow {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = topo::build_scenario(topo::small_scenario_params(3)).release();
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  topo::Scenario& scenario() { return *scenario_; }
  static topo::Scenario* scenario_;
};

topo::Scenario* ScenarioTest::scenario_ = nullptr;

TEST_F(ScenarioTest, HierarchyBootstrapped) {
  auto& mp = *scenario().mgmt;
  EXPECT_EQ(mp.leaf_count(), 4u);
  EXPECT_EQ(mp.root().nib().switch_count(), 4u);  // 4 leaf G-switches
  EXPECT_FALSE(mp.root().nib().links().empty());  // cross-region links found
  for (reca::Controller* leaf : mp.leaves()) {
    EXPECT_GT(leaf->nib().switch_count(), 0u) << leaf->name();
    EXPECT_TRUE(leaf->discovery().features_complete()) << leaf->name();
  }
}

TEST_F(ScenarioTest, DiscoveryIsSoundAndComplete) {
  // Invariant 2 (DESIGN.md): the union of links discovered across all
  // controllers equals the physical link set, each discovered exactly once.
  auto& mp = *scenario().mgmt;
  std::size_t discovered = 0;
  for (reca::Controller* c : mp.all_controllers()) {
    if (c->is_leaf()) {
      discovered += c->nib().links().size();
    } else {
      discovered += c->nib().links().size();  // inter-G-switch links are physical too
    }
  }
  EXPECT_EQ(discovered, scenario().net.links().size());
}

TEST_F(ScenarioTest, InterdomainRoutesReachRoot) {
  auto& root = scenario().mgmt->root();
  EXPECT_GT(root.nib().external_route_count(), 0u);
  // The root sees routes from several egress points for a typical prefix.
  auto routes = root.nib().external_routes(PrefixId{0});
  EXPECT_GE(routes.size(), 2u);
}

TEST_F(ScenarioTest, ExposureHidesMostPorts) {
  // Table 1's qualitative claim: each leaf exposes a small fraction of what
  // it discovered.
  for (reca::Controller* leaf : scenario().mgmt->leaves()) {
    leaf->abstraction().refresh();
    auto stats = leaf->abstraction().stats();
    ASSERT_GT(stats.total_ports, 0u);
    double exposed_fraction =
        static_cast<double>(stats.exposed_ports) / static_cast<double>(stats.total_ports);
    EXPECT_LT(exposed_fraction, 0.6) << leaf->name();
  }
}

TEST_F(ScenarioTest, LocalBearerEndToEnd) {
  auto& mp = *scenario().mgmt;
  // Pick a group in leaf 0 and a UE on its first base station.
  BsGroupId group = scenario().partition.group_regions[0].front();
  BsId bs = scenario().net.bs_group(group)->members.front();
  auto& mobility = scenario().apps->mobility(*mp.leaf_of_group(group));

  UeId ue{1001};
  ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = PrefixId{5};
  auto bearer = mobility.request_bearer(request);
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;

  Packet pkt;
  pkt.ue = ue;
  pkt.dst_prefix = PrefixId{5};
  auto report = scenario().net.inject_uplink(pkt, bs);
  EXPECT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
  EXPECT_LE(report.packet.max_depth_seen(), 1u);
  ASSERT_TRUE(mobility.deactivate_bearer(ue, *bearer).ok());
}

TEST_F(ScenarioTest, QosBearerDelegatesToAncestorAndStillDelivers) {
  auto& mp = *scenario().mgmt;
  BsGroupId group = scenario().partition.group_regions[1].front();
  BsId bs = scenario().net.bs_group(group)->members.front();
  auto& mobility = scenario().apps->mobility(*mp.leaf_of_group(group));

  UeId ue{2002};
  ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
  // A latency bound usually only satisfiable through another region's
  // egress: force delegation by requiring the globally best path.
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = PrefixId{7};
  request.objective = Metric::kLatency;

  // First measure what the root could achieve. Internal groups appear at
  // the root as the leaf's aggregate G-BS.
  auto& leaf = *mp.leaf_of_group(group);
  leaf.abstraction().refresh();
  GBsId root_gbs = leaf.abstraction().exposed_gbs_id(mgmt::gbs_id_for_group(group));
  const auto* gbs = mp.root().nib().gbs(root_gbs);
  ASSERT_NE(gbs, nullptr);
  nos::RoutingRequest probe;
  probe.source = Endpoint{gbs->attached_switch, gbs->attached_port};
  probe.dst_prefix = request.dst_prefix;
  probe.objective = Metric::kLatency;
  auto best = mp.root().compute_route(probe);
  ASSERT_TRUE(best.ok());
  request.qos.max_latency_us = best->total_latency_us() * 1.02;

  auto bearer = mobility.request_bearer(request);
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;

  Packet pkt;
  pkt.ue = ue;
  pkt.dst_prefix = request.dst_prefix;
  auto report = scenario().net.inject_uplink(pkt, bs);
  EXPECT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
  EXPECT_LE(report.packet.max_depth_seen(), 1u);
}

TEST_F(ScenarioTest, IntraRegionHandoverKeepsConnectivity) {
  auto& mp = *scenario().mgmt;
  // Two groups in the same region (pick any region with at least two).
  std::vector<BsGroupId> groups;
  for (const auto& region : scenario().partition.group_regions) {
    if (region.size() >= 2) {
      groups = region;
      break;
    }
  }
  ASSERT_GE(groups.size(), 2u);
  BsId src_bs = scenario().net.bs_group(groups[0])->members.front();
  BsId dst_bs = scenario().net.bs_group(groups[1])->members.front();
  auto& mobility = scenario().apps->mobility(*mp.leaf_of_group(groups[0]));

  UeId ue{3003};
  ASSERT_TRUE(mobility.ue_attach(ue, src_bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = src_bs;
  request.dst_prefix = PrefixId{9};
  ASSERT_TRUE(mobility.request_bearer(request).ok());

  auto before = mobility.stats().intra_region_handovers;
  ASSERT_TRUE(mobility.handover(ue, dst_bs).ok());
  EXPECT_EQ(mobility.stats().intra_region_handovers, before + 1);

  Packet pkt;
  pkt.ue = ue;
  pkt.dst_prefix = PrefixId{9};
  auto report = scenario().net.inject_uplink(pkt, dst_bs);
  EXPECT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
}

TEST_F(ScenarioTest, InterRegionHandoverMovesUeAndReroutes) {
  auto& mp = *scenario().mgmt;
  // Handover targets must be radio-adjacent (§5.2: the UE hears the target
  // G-BS's broadcast): pick a cross-region edge of the handover adjacency,
  // whose endpoints are border G-BSes exposed to the common ancestor.
  BsGroupId src_group, dst_group;
  for (const auto& [key, weight] : scenario().trace.group_adjacency.edges()) {
    if (mp.leaf_index_of_group(key.first) != mp.leaf_index_of_group(key.second)) {
      src_group = key.first;
      dst_group = key.second;
      break;
    }
  }
  ASSERT_TRUE(src_group.valid());
  BsId src_bs = scenario().net.bs_group(src_group)->members.front();
  BsId dst_bs = scenario().net.bs_group(dst_group)->members.front();
  auto& src_mobility = scenario().apps->mobility(*mp.leaf_of_group(src_group));
  auto& dst_mobility = scenario().apps->mobility(*mp.leaf_of_group(dst_group));

  UeId ue{4004};
  ASSERT_TRUE(src_mobility.ue_attach(ue, src_bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = src_bs;
  request.dst_prefix = PrefixId{11};
  ASSERT_TRUE(src_mobility.request_bearer(request).ok());

  auto root_before = scenario().apps->mobility(mp.root()).stats().inter_region_handled;
  ASSERT_TRUE(src_mobility.handover(ue, dst_bs).ok());

  // The UE now lives at the target leaf; the root mediated the handover.
  EXPECT_EQ(src_mobility.ue(ue), nullptr);
  ASSERT_NE(dst_mobility.ue(ue), nullptr);
  EXPECT_EQ(dst_mobility.ue(ue)->bs, dst_bs);
  EXPECT_EQ(scenario().apps->mobility(mp.root()).stats().inter_region_handled,
            root_before + 1);

  // Traffic from the new base station still reaches the Internet.
  Packet pkt;
  pkt.ue = ue;
  pkt.dst_prefix = PrefixId{11};
  auto report = scenario().net.inject_uplink(pkt, dst_bs);
  EXPECT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
  EXPECT_LE(report.packet.max_depth_seen(), 1u);
}

TEST_F(ScenarioTest, RegionOptimizationReducesCrossRegionHandovers) {
  auto& mp = *scenario().mgmt;
  auto* opt = scenario().apps->region_opt(mp.root());
  ASSERT_NE(opt, nullptr);

  // Drive handovers from the trace so the mobility apps build a handover
  // graph with real cross-region weight.
  auto& trace = scenario().trace;
  int driven = 0;
  for (const auto& [key, weight] : trace.group_adjacency.edges()) {
    auto [a, b] = key;
    if (mp.leaf_index_of_group(a) == mp.leaf_index_of_group(b)) continue;
    // Log weighted edges directly into the source leaf's mobility app via
    // real handover calls for a few UEs.
    BsId src_bs = scenario().net.bs_group(a)->members.front();
    BsId dst_bs = scenario().net.bs_group(b)->members.front();
    auto& mobility = scenario().apps->mobility(*mp.leaf_of_group(a));
    UeId ue{90000u + static_cast<std::uint64_t>(driven)};
    if (!mobility.ue_attach(ue, src_bs).ok()) continue;
    if (mobility.handover(ue, dst_bs).ok()) ++driven;
    if (driven >= 12) break;
  }
  ASSERT_GT(driven, 0);

  apps::RegionOptConstraints constraints;
  constraints.lb_factor = 0.0;  // uncapacitated for this small scenario
  constraints.ub_factor = 10.0;
  auto result = opt->optimize_round(constraints, {}, /*execute=*/true);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_LE(result->final_cross_weight, result->initial_cross_weight);
  if (!result->moves.empty()) {
    EXPECT_LT(result->final_cross_weight, result->initial_cross_weight);
    // Every move had strictly positive gain (§5.3.1 termination criterion).
    for (const auto& move : result->moves) EXPECT_GT(move.gain, 0.0);
  }

  // After reconfiguration the control plane is still coherent: rerun
  // discovery and set up a fresh path across regions.
  BsGroupId group = scenario().partition.group_regions[3].front();
  BsId bs = scenario().net.bs_group(group)->members.front();
  auto& mobility = scenario().apps->mobility(*mp.leaf_of_group(group));
  UeId ue{5005};
  ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = PrefixId{13};
  auto bearer = mobility.request_bearer(request);
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
}

// A bearer's access classifier matches (UE, destination prefix) at one
// priority, so a second active bearer to the same prefix is refused up
// front instead of reported as set up while the switch rejects its rule.
TEST(BearerConflict, SecondActiveBearerToTheSamePrefixIsRefused) {
  auto scenario = topo::build_scenario(topo::small_scenario_params(3));
  auto& mp = *scenario->mgmt;
  BsGroupId group = scenario->partition.group_regions[0].front();
  const dataplane::BsGroup* g = scenario->net.bs_group(group);
  BsId bs = g->members.front();
  auto& mobility = scenario->apps->mobility(*mp.leaf_of_group(group));

  std::ostringstream log;
  std::streambuf* saved = std::clog.rdbuf(log.rdbuf());
  UeId ue{1001};
  ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = PrefixId{17};
  auto first = mobility.request_bearer(request);
  ASSERT_TRUE(first.ok()) << first.error().message;

  obs::Counter* to_device = obs::default_registry().counter(
      "southbound_messages_total", {{"direction", "to_device"}});
  const std::uint64_t sent = to_device->value();
  const apps::MobilityStats before = mobility.stats();
  auto second = mobility.request_bearer(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), ErrorCode::kConflict);
  // Refused before any route or FlowMod: nothing reached a device.
  EXPECT_EQ(to_device->value(), sent);
  EXPECT_EQ(mobility.stats().bearers_local, before.bearers_local);
  EXPECT_EQ(mobility.stats().bearers_delegated, before.bearers_delegated);
  EXPECT_EQ(mobility.ue(ue)->bearers.size(), 1u);

  // Another prefix is a different classifier; a released bearer frees its own.
  request.dst_prefix = PrefixId{18};
  ASSERT_TRUE(mobility.request_bearer(request).ok());
  ASSERT_TRUE(mobility.deactivate_bearer(ue, *first).ok());
  request.dst_prefix = PrefixId{17};
  ASSERT_TRUE(mobility.request_bearer(request).ok());
  std::clog.rdbuf(saved);
  EXPECT_EQ(log.str().find("rejected flow-mod"), std::string::npos) << log.str();

  std::size_t classifiers = 0;
  for (const dataplane::FlowRule& rule : scenario->net.sw(g->access_switch)->table().rules())
    if (rule.match.ue == ue && rule.match.dst_prefix == PrefixId{17}) ++classifiers;
  EXPECT_EQ(classifiers, 1u);

  verify::ControlState state = mp.control_state();
  state.bearers = scenario->apps->bearer_claims();
  verify::VerifyReport report =
      verify::verify_data_plane(scenario->net, &state, mp.verify_options());
  EXPECT_TRUE(report.clean()) << report.summary();
}

/// Active bearers of `rec` to `prefix`.
std::size_t active_bearers_to(const apps::UeRecord& rec, PrefixId prefix) {
  std::size_t n = 0;
  for (const auto& [id, bearer] : rec.bearers)
    n += bearer.active && bearer.request.dst_prefix == prefix ? 1 : 0;
  return n;
}

// A bearer requested while its UE is idle supersedes the idle one: on
// activation the old request collides with it and is dropped, instead of
// coming back as a second classifier for the same (UE, prefix).
TEST(BearerConflict, BearerRequestedWhileIdleIsNotDuplicatedOnActivation) {
  auto scenario = topo::build_scenario(topo::small_scenario_params(3));
  auto& mp = *scenario->mgmt;
  BsGroupId group = scenario->partition.group_regions[0].front();
  const dataplane::BsGroup* g = scenario->net.bs_group(group);
  BsId bs = g->members.front();
  auto& mobility = scenario->apps->mobility(*mp.leaf_of_group(group));

  std::ostringstream log;
  std::streambuf* saved = std::clog.rdbuf(log.rdbuf());
  UeId ue{1002};
  ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = PrefixId{17};
  ASSERT_TRUE(mobility.request_bearer(request).ok());
  ASSERT_TRUE(mobility.ue_idle(ue).ok());
  ASSERT_TRUE(mobility.request_bearer(request).ok());
  ASSERT_TRUE(mobility.ue_active(ue).ok());
  std::clog.rdbuf(saved);
  EXPECT_EQ(log.str().find("rejected flow-mod"), std::string::npos) << log.str();

  const apps::UeRecord* rec = mobility.ue(ue);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(active_bearers_to(*rec, PrefixId{17}), 1u);
  EXPECT_EQ(rec->bearers.size(), 1u) << "the superseded record is dropped";
  std::size_t classifiers = 0;
  for (const dataplane::FlowRule& rule : scenario->net.sw(g->access_switch)->table().rules())
    if (rule.match.ue == ue && rule.match.dst_prefix == PrefixId{17}) ++classifiers;
  EXPECT_EQ(classifiers, 1u);

  verify::ControlState state = mp.control_state();
  state.bearers = scenario->apps->bearer_claims();
  verify::VerifyReport report =
      verify::verify_data_plane(scenario->net, &state, mp.verify_options());
  EXPECT_TRUE(report.clean()) << report.summary();
}

// An idle UE handed over inside its region keeps its bearers; activation
// restores them from the BS it is at now, not the one it idled at.
TEST(BearerRestore, IdleUeHandedOverInsideItsRegionGetsItsBearersBackFromTheNewBs) {
  auto scenario = topo::build_scenario(topo::small_scenario_params(3));
  auto& mp = *scenario->mgmt;
  std::vector<BsGroupId> groups;
  for (const auto& region : scenario->partition.group_regions) {
    if (region.size() >= 2) {
      groups = region;
      break;
    }
  }
  ASSERT_GE(groups.size(), 2u);
  BsId src_bs = scenario->net.bs_group(groups[0])->members.front();
  BsId dst_bs = scenario->net.bs_group(groups[1])->members.front();
  auto& mobility = scenario->apps->mobility(*mp.leaf_of_group(groups[0]));

  UeId ue{3004};
  ASSERT_TRUE(mobility.ue_attach(ue, src_bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = src_bs;
  request.dst_prefix = PrefixId{9};
  ASSERT_TRUE(mobility.request_bearer(request).ok());
  ASSERT_TRUE(mobility.ue_idle(ue).ok());

  const auto intra_before = mobility.stats().intra_region_handovers;
  ASSERT_TRUE(mobility.handover(ue, dst_bs).ok());
  EXPECT_EQ(mobility.stats().intra_region_handovers, intra_before + 1);
  const apps::UeRecord* rec = mobility.ue(ue);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->bearers.size(), 1u) << "an idle UE keeps its inactive bearers";
  EXPECT_FALSE(rec->bearers.begin()->second.active);

  ASSERT_TRUE(mobility.ue_active(ue).ok());
  rec = mobility.ue(ue);
  ASSERT_EQ(rec->bearers.size(), 1u);
  const apps::BearerRecord& restored = rec->bearers.begin()->second;
  EXPECT_TRUE(restored.active);
  EXPECT_EQ(restored.request.bs, dst_bs);
  ASSERT_TRUE(restored.handled_locally);
  const nos::InstalledPath* path =
      mp.leaf_of_group(groups[1])->paths().path(restored.local_path);
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->route.source.sw, scenario->net.bs_group(groups[1])->access_switch);

  Packet pkt;
  pkt.ue = ue;
  pkt.dst_prefix = PrefixId{9};
  auto delivered = scenario->net.inject_uplink(pkt, dst_bs);
  EXPECT_EQ(delivered.outcome, dataplane::DeliveryReport::Outcome::kExternal);

  verify::ControlState state = mp.control_state();
  state.bearers = scenario->apps->bearer_claims();
  verify::VerifyReport report =
      verify::verify_data_plane(scenario->net, &state, mp.verify_options());
  EXPECT_TRUE(report.clean()) << report.summary();
}

}  // namespace
}  // namespace softmow
