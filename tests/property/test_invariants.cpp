// Property tests: the DESIGN.md invariants checked across randomized
// scenarios (parameterized over seeds and region counts), not hand-picked
// topologies.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow {
namespace {

struct Config {
  std::uint64_t seed;
  std::size_t regions;
  bool mids;
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << "seed" << c.seed << "_r" << c.regions << (c.mids ? "_3level" : "_2level");
}

class InvariantTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    Config config = GetParam();
    topo::ScenarioParams params = topo::small_scenario_params(config.seed);
    params.regions = config.regions;
    params.with_mid_level = config.mids;
    scenario = topo::build_scenario(std::move(params));
  }

  std::unique_ptr<topo::Scenario> scenario;
};

// Invariant 2: discovery soundness & completeness — the controllers' link
// sets partition the physical link set exactly.
TEST_P(InvariantTest, DiscoveryPartitionsPhysicalLinks) {
  auto& mp = *scenario->mgmt;
  std::size_t discovered = 0;
  for (reca::Controller* c : mp.all_controllers()) discovered += c->nib().links().size();
  EXPECT_EQ(discovered, scenario->net.links().size());

  // Leaf links are physical and intra-region; ancestor links connect
  // G-switches of *distinct* children.
  for (reca::Controller* c : mp.all_controllers()) {
    for (const nos::LinkRecord& link : c->nib().links()) {
      if (c->is_leaf()) {
        EXPECT_FALSE(reca::is_gswitch_id(link.a.sw));
        EXPECT_FALSE(reca::is_gswitch_id(link.b.sw));
      } else {
        EXPECT_TRUE(reca::is_gswitch_id(link.a.sw));
        EXPECT_TRUE(reca::is_gswitch_id(link.b.sw));
        EXPECT_NE(link.a.sw, link.b.sw);
      }
    }
  }
}

// Invariant 5: vFabric truthfulness — every exposed entry equals the true
// best internal path between the mapped local endpoints.
TEST_P(InvariantTest, VfabricMatchesChildShortestPaths) {
  for (reca::Controller* leaf : scenario->mgmt->leaves()) {
    leaf->abstraction().refresh();
    const auto& features = leaf->abstraction().features();
    std::size_t checked = 0;
    for (const auto& entry : features.vfabric) {
      if (++checked > 40) break;  // sample for runtime
      auto from = leaf->abstraction().to_local(entry.from);
      auto to = leaf->abstraction().to_local(entry.to);
      ASSERT_TRUE(from && to);
      auto tree = leaf->routing().reachability(*from, Metric::kHops);
      auto it = tree.find(nos::port_key(to->sw, to->port));
      ASSERT_NE(it, tree.end());
      EXPECT_NEAR(it->second.hop_count, entry.metrics.hop_count, 1e-9);
      EXPECT_NEAR(it->second.latency_us, entry.metrics.latency_us, 1e-9);
      EXPECT_EQ(it->second.bandwidth_kbps, entry.metrics.bandwidth_kbps);
    }
  }
}

// Invariant 5b: exposed border ports are exactly the ports with no
// locally-discovered link (plus egress/radio/middlebox attachments).
TEST_P(InvariantTest, ExposedSwitchPortsAreExactlyTheUnlinkedOnes) {
  for (reca::Controller* leaf : scenario->mgmt->leaves()) {
    leaf->abstraction().refresh();
    for (const auto& port : leaf->abstraction().features().ports) {
      auto local = leaf->abstraction().to_local(port.port);
      ASSERT_TRUE(local.has_value());
      if (port.peer == dataplane::PeerKind::kSwitch) {
        EXPECT_FALSE(leaf->nib().endpoint_linked(*local))
            << leaf->name() << " exposed an internally-linked port";
      }
    }
  }
}

// Invariants 1 + 3: bearers set up through the hierarchy always deliver
// with at most one label on the wire, and an ancestor-implemented path is
// never longer than what the leaf alone could do.
TEST_P(InvariantTest, BearersDeliverUnderSingleLabelInvariant) {
  auto& mp = *scenario->mgmt;
  std::uint64_t ue_seq = 1;
  int exercised = 0;
  for (BsGroupId group : scenario->trace.groups) {
    if (exercised >= 10) break;
    reca::Controller* leaf = mp.leaf_of_group(group);
    auto& mobility = scenario->apps->mobility(*leaf);
    BsId bs = scenario->net.bs_group(group)->members.front();
    UeId ue{ue_seq++};
    if (!mobility.ue_attach(ue, bs).ok()) continue;
    apps::BearerRequest request;
    request.ue = ue;
    request.bs = bs;
    request.dst_prefix = PrefixId{(ue_seq * 7) % 50};
    auto bearer = mobility.request_bearer(request);
    if (!bearer.ok()) continue;
    ++exercised;

    Packet pkt;
    pkt.ue = ue;
    pkt.dst_prefix = request.dst_prefix;
    auto report = scenario->net.inject_uplink(pkt, bs);
    ASSERT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal)
        << "ue " << ue.str() << " in " << leaf->name();
    EXPECT_TRUE(report.packet.labels.empty());
    EXPECT_LE(report.packet.max_depth_seen(), 1u);
  }
  EXPECT_GT(exercised, 0);
}

// Tentpole cross-check: the static verifier's verdict must agree with the
// probe audit on every scenario — both clean after bearer setup, and the
// incremental path must agree with the full pass.
TEST_P(InvariantTest, StaticVerifierAgreesWithProbeAudit) {
  auto& mp = *scenario->mgmt;
  std::uint64_t ue_seq = 9000;
  int exercised = 0;
  for (BsGroupId group : scenario->trace.groups) {
    if (exercised >= 6) break;
    auto& mobility = scenario->apps->mobility(*mp.leaf_of_group(group));
    BsId bs = scenario->net.bs_group(group)->members.front();
    UeId ue{ue_seq++};
    if (!mobility.ue_attach(ue, bs).ok()) continue;
    apps::BearerRequest request;
    request.ue = ue;
    request.bs = bs;
    request.dst_prefix = PrefixId{(ue_seq * 3) % 50};
    if (mobility.request_bearer(request).ok()) ++exercised;
  }
  EXPECT_GT(exercised, 0);

  auto audit = mgmt::audit_data_plane(scenario->net);
  verify::VerifyReport report = mp.verify_data_plane();
  std::string details = report.summary();
  for (const auto& f : report.findings) details += "\n  " + f.str();
  EXPECT_EQ(audit.clean(), report.clean()) << details;
  EXPECT_TRUE(report.clean()) << details;
  EXPECT_GT(report.classes_analyzed, 0u);
  EXPECT_EQ(report.classes_delivered, report.classes_analyzed);

  // Incremental re-verification over every access switch reproduces the
  // full-pass verdict.
  std::vector<SwitchId> dirty;
  for (SwitchId sw : scenario->net.all_switches()) {
    if (scenario->net.is_access_switch(sw)) dirty.push_back(sw);
  }
  verify::VerifyReport incremental = mp.reverify_data_plane(dirty);
  EXPECT_EQ(incremental.clean(), report.clean());
  EXPECT_EQ(incremental.classes_analyzed, report.classes_analyzed);
}

// Invariant 4 (at the app level): one executed optimization round never
// increases the cross-region handover weight and leaves a coherent control
// plane behind.
TEST_P(InvariantTest, RegionOptimizationRoundIsSafe) {
  auto& mp = *scenario->mgmt;
  // Drive some handovers along the adjacency so the logs are non-trivial.
  std::uint64_t ue_seq = 50000;
  int driven = 0;
  for (const auto& [key, w] : scenario->trace.group_adjacency.edges()) {
    if (driven >= 8) break;
    auto& mobility = scenario->apps->mobility(*mp.leaf_of_group(key.first));
    UeId ue{ue_seq++};
    BsId bs = scenario->net.bs_group(key.first)->members.front();
    if (!mobility.ue_attach(ue, bs).ok()) continue;
    // Carry a real bearer through the handover so reconfiguration has
    // installed paths and bearer records to migrate.
    apps::BearerRequest request;
    request.ue = ue;
    request.bs = bs;
    request.dst_prefix = PrefixId{(ue_seq * 7) % 50};
    (void)mobility.request_bearer(request);
    if (mobility.handover(ue, scenario->net.bs_group(key.second)->members.front()).ok())
      ++driven;
  }
  if (driven == 0) GTEST_SKIP() << "no executable handover in this seed";

  auto* opt = scenario->apps->region_opt(mp.root());
  ASSERT_NE(opt, nullptr);
  apps::RegionOptConstraints constraints;
  constraints.lb_factor = 0.0;
  constraints.ub_factor = 100.0;
  auto result = opt->optimize_round(constraints, {}, /*execute=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->final_cross_weight, result->initial_cross_weight + 1e-9);

  // Post-reconfiguration coherence: discovery still partitions the links.
  std::size_t discovered = 0;
  for (reca::Controller* c : mp.all_controllers()) discovered += c->nib().links().size();
  EXPECT_EQ(discovered, scenario->net.links().size());

  // Both checkers must accept the reconfigured data plane — in particular,
  // transferred bearers must be re-homed onto target-leaf paths (§5.3.2).
  EXPECT_TRUE(mgmt::audit_data_plane(scenario->net).clean());
  verify::VerifyReport report = mp.verify_data_plane();
  std::string details = report.summary();
  for (const auto& f : report.findings) details += "\n  " + f.str();
  EXPECT_TRUE(report.clean()) << details;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvariantTest,
    ::testing::Values(Config{11, 4, false}, Config{12, 4, false}, Config{13, 2, false},
                      Config{14, 8, false}, Config{15, 4, true}, Config{16, 4, true},
                      Config{17, 2, false}, Config{18, 8, false}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_r" +
             std::to_string(param_info.param.regions) +
             (param_info.param.mids ? "_3level" : "_2level");
    });

}  // namespace
}  // namespace softmow
