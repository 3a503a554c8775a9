// §6 failure handling: link failures (leaf-local and cross-region) with
// path repair, label-based consistent path updates, and master->standby
// controller failover.
#include <gtest/gtest.h>

#include "mgmt/failover.h"
#include "softmow/softmow.h"

namespace softmow {
namespace {

using dataplane::DeliveryReport;
using dataplane::PhysicalNetwork;

/// A redundant two-region topology: west has two internal routes to the
/// same border switch (maskable failures, repaired by the leaf) and there
/// are two cross-region links (unmaskable failures, repaired by the root).
///
///   groupA - s1 --- s2  - s3  - s4 - egress / groupB
///             \ s2c /
///              \- s2b - s3b - s4
class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s1 = net.add_switch({0, 0});
    s2 = net.add_switch({1, 0});
    s2b = net.add_switch({1, 2});
    s2c = net.add_switch({0.5, 1});
    s3 = net.add_switch({2, 0});
    s3b = net.add_switch({2, 2});
    s4 = net.add_switch({3, 0});
    l_s1_s2 = *net.connect(s1, s2);
    l_s1_s2b = *net.connect(s1, s2b);
    (void)net.connect(s1, s2c);
    (void)net.connect(s2c, s2);
    l_s2_s3 = *net.connect(s2, s3);
    l_s2b_s3b = *net.connect(s2b, s3b);
    (void)net.connect(s3, s4);
    (void)net.connect(s3b, s4);
    group_a = net.add_bs_group(s1, dataplane::BsGroupTopology::kRing, {0, 1});
    group_b = net.add_bs_group(s4, dataplane::BsGroupTopology::kRing, {3, 1});
    bs_a = net.add_base_station(group_a, {0, 1});
    net.add_base_station(group_b, {3, 1});
    egress = net.add_egress(s4, {3, -1});

    mgmt::HierarchySpec spec;
    spec.leaves.push_back(mgmt::RegionSpec{"west", {s1, s2, s2b, s2c}, {group_a}});
    spec.leaves.push_back(mgmt::RegionSpec{"east", {s3, s3b, s4}, {group_b}});
    spec.group_adjacency.add(group_a, group_b, 5.0);
    mp = std::make_unique<mgmt::ManagementPlane>(&net);
    mp->bootstrap(spec);
    suite = std::make_unique<apps::AppSuite>(*mp);

    // External route for prefix 1 at the east egress, published everywhere.
    provider.route[{egress, PrefixId{1}}] = apps::ExternalCost{10, 20000};
    suite->originate_interdomain(provider);
  }

  Result<BearerId> bearer_for(UeId ue) {
    auto& mobility = suite->mobility(mp->leaf(0));
    (void)mobility.ue_attach(ue, bs_a);
    apps::BearerRequest request;
    request.ue = ue;
    request.bs = bs_a;
    request.dst_prefix = PrefixId{1};
    return mobility.request_bearer(request);
  }

  DeliveryReport send(UeId ue) {
    Packet pkt;
    pkt.ue = ue;
    pkt.dst_prefix = PrefixId{1};
    return net.inject_uplink(pkt, bs_a);
  }

  struct MapProvider : apps::ExternalPathProvider {
    std::map<std::pair<EgressId, PrefixId>, apps::ExternalCost> route;
    std::vector<PrefixId> prefixes() const override { return {PrefixId{1}}; }
    std::optional<apps::ExternalCost> cost(EgressId e, PrefixId p) const override {
      auto it = route.find({e, p});
      if (it == route.end()) return std::nullopt;
      return it->second;
    }
  };

  PhysicalNetwork net;
  SwitchId s1, s2, s2b, s2c, s3, s3b, s4;
  LinkId l_s1_s2, l_s1_s2b, l_s2_s3, l_s2b_s3b;
  BsGroupId group_a, group_b;
  BsId bs_a;
  EgressId egress;
  std::unique_ptr<mgmt::ManagementPlane> mp;
  std::unique_ptr<apps::AppSuite> suite;
  MapProvider provider;
};

TEST_F(FailureTest, PortStatusPropagatesToLeafNib) {
  auto& west = mp->leaf(0);
  std::size_t up_before = 0;
  for (const auto& l : west.nib().links()) up_before += l.up ? 1 : 0;
  ASSERT_TRUE(net.set_link_up(l_s1_s2, false).ok());
  std::size_t up_after = 0;
  for (const auto& l : west.nib().links()) up_after += l.up ? 1 : 0;
  EXPECT_EQ(up_after + 1, up_before);
  // Recovery: the link comes back.
  ASSERT_TRUE(net.set_link_up(l_s1_s2, true).ok());
  std::size_t up_restored = 0;
  for (const auto& l : west.nib().links()) up_restored += l.up ? 1 : 0;
  EXPECT_EQ(up_restored, up_before);
}

TEST_F(FailureTest, LeafLocalFailureRepairedWithoutAncestor) {
  UeId ue{1};
  ASSERT_TRUE(bearer_for(ue).ok());
  auto before = send(ue);
  ASSERT_EQ(before.outcome, DeliveryReport::Outcome::kExternal);
  // With all links up the flow takes the direct s1-s2 hop toward s2's
  // border port (if it went via s2b, this test's premise doesn't hold).
  bool used_direct = false, used_s2c = false;
  for (const auto& hop : before.packet.trace) used_s2c |= hop.sw == s2c;
  for (const auto& hop : before.packet.trace) used_direct |= hop.sw == s2;
  if (!used_direct || used_s2c) GTEST_SKIP() << "flow did not take the direct spine";

  // Kill s1-s2: the exit border port (on s2) stays reachable via s2c, so
  // the *leaf* can mask the failure (§6) without involving the root.
  ASSERT_TRUE(net.set_link_up(l_s1_s2, false).ok());
  auto& west = mp->leaf(0);
  auto [repaired, failed] = west.repair_paths();
  EXPECT_GE(repaired, 1u);
  EXPECT_EQ(failed, 0u);

  auto after = send(ue);
  ASSERT_EQ(after.outcome, DeliveryReport::Outcome::kExternal);
  bool via_s2c = false;
  for (const auto& hop : after.packet.trace) via_s2c |= hop.sw == s2c;
  EXPECT_TRUE(via_s2c) << "repaired path should detour via s2c";
  EXPECT_LE(after.packet.max_depth_seen(), 1u);
}

TEST_F(FailureTest, CrossRegionFailureRepairedByRoot) {
  UeId ue{2};
  ASSERT_TRUE(bearer_for(ue).ok());
  auto before = send(ue);
  ASSERT_EQ(before.outcome, DeliveryReport::Outcome::kExternal);
  ASSERT_EQ(mp->root().nib().links().size(), 2u);  // two cross-region links

  bool used_s2 = false;
  for (const auto& hop : before.packet.trace) used_s2 |= hop.sw == s2;
  LinkId broken = used_s2 ? l_s2_s3 : l_s2b_s3b;
  ASSERT_TRUE(net.set_link_up(broken, false).ok());

  // §6: changes are reflected bottom-up; the leaves re-announce and the
  // root marks its inter-G-switch link down, then recomputes paths.
  mp->refresh_topology();
  auto [repaired, failed] = mp->root().repair_paths();
  // The leaves' own segments may also need repair after the re-route.
  (void)mp->leaf(0).repair_paths();
  (void)mp->leaf(1).repair_paths();
  EXPECT_GE(repaired + failed, 1u);
  EXPECT_EQ(failed, 0u);

  auto after = send(ue);
  EXPECT_EQ(after.outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_LE(after.packet.max_depth_seen(), 1u);
}

TEST_F(FailureTest, LeafRepairedBearerDetachesClean) {
  // Repair re-routes under the same PathId, so the RecA agent's parent-cookie
  // map still names the live replacement and the bearer's teardown removes
  // the repaired rules instead of hitting the dead path.
  std::size_t baseline = net.total_rules();
  UeId ue{4};
  ASSERT_TRUE(bearer_for(ue).ok());
  bool used_direct = false, used_s2c = false;
  for (const auto& hop : send(ue).packet.trace) {
    used_s2c |= hop.sw == s2c;
    used_direct |= hop.sw == s2;
  }
  if (!used_direct || used_s2c) GTEST_SKIP() << "flow did not take the direct spine";

  ASSERT_TRUE(net.set_link_up(l_s1_s2, false).ok());
  auto& west = mp->leaf(0);
  auto [repaired, failed] = west.repair_paths();
  ASSERT_GE(repaired, 1u);
  ASSERT_EQ(failed, 0u);
  ASSERT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);

  ASSERT_TRUE(suite->mobility(west).ue_detach(ue).ok());
  EXPECT_EQ(net.total_rules(), baseline) << "repaired rules leaked past the detach";
}

TEST_F(FailureTest, RootRepairedBearerDetachesClean) {
  // Same for an ancestor's path: the root's bearer key keeps naming the
  // re-routed path, so detaching the UE tears the new route down everywhere.
  std::size_t baseline = net.total_rules();
  UeId ue{5};
  ASSERT_TRUE(bearer_for(ue).ok());
  auto before = send(ue);
  ASSERT_EQ(before.outcome, DeliveryReport::Outcome::kExternal);
  bool used_s2 = false;
  for (const auto& hop : before.packet.trace) used_s2 |= hop.sw == s2;
  ASSERT_TRUE(net.set_link_up(used_s2 ? l_s2_s3 : l_s2b_s3b, false).ok());

  mp->refresh_topology();
  auto [repaired, failed] = mp->root().repair_paths();
  ASSERT_GE(repaired, 1u);
  ASSERT_EQ(failed, 0u);
  for (std::size_t leaf = 0; leaf < 2; ++leaf) {
    auto [leaf_repaired, leaf_failed] = mp->leaf(leaf).repair_paths();
    ASSERT_EQ(leaf_failed, 0u) << "leaf " << leaf << " repaired " << leaf_repaired;
  }
  ASSERT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);

  ASSERT_TRUE(suite->mobility(mp->leaf(0)).ue_detach(ue).ok());
  EXPECT_EQ(net.total_rules(), baseline) << "repaired rules leaked past the detach";
  EXPECT_NE(send(ue).outcome, DeliveryReport::Outcome::kExternal)
      << "a detached UE's uplink must not reach the Internet";
}

TEST_F(FailureTest, ConsistentUpdatesOldLabelKeepsWorkingUntilTeardown) {
  // §6: "the new path and packets are assigned a new version number. The
  // packets with the old version number can still use old rules" — in this
  // implementation each path owns a distinct label, so in-flight packets on
  // the old label survive a classifier swap until the old path is removed.
  auto& west = mp->leaf(0);
  auto& root = mp->root();
  UeId ue{3};
  auto bearer = bearer_for(ue);
  ASSERT_TRUE(bearer.ok());
  std::size_t rules_one_path = net.total_rules();

  // A second path for the same classifier (e.g. a make-before-break update):
  // installed alongside, not replacing.
  const auto* gbs = root.nib().gbs(mgmt::gbs_id_for_group(group_a));
  ASSERT_NE(gbs, nullptr);
  nos::RoutingRequest request;
  request.source = Endpoint{gbs->attached_switch, gbs->attached_port};
  request.dst_prefix = PrefixId{1};
  auto route = root.compute_route(request);
  ASSERT_TRUE(route.ok());
  dataplane::Match classifier;
  classifier.ue = ue;
  classifier.dst_prefix = PrefixId{1};
  nos::PathSetupOptions options;
  options.priority = 200;  // the new version outranks the old classifier
  auto new_path = root.path_setup(*route, classifier, options);
  ASSERT_TRUE(new_path.ok());
  EXPECT_GT(net.total_rules(), rules_one_path);  // both rule sets coexist

  // Traffic flows on the new path; the old rules are still installed for
  // in-flight packets, and are removed only on explicit teardown.
  auto during = send(ue);
  EXPECT_EQ(during.outcome, DeliveryReport::Outcome::kExternal);
  ASSERT_TRUE(suite->mobility(west).deactivate_bearer(ue, *bearer).ok());
  auto after = send(ue);
  EXPECT_EQ(after.outcome, DeliveryReport::Outcome::kExternal);
}

TEST_F(FailureTest, LinkFlapDuringPathSetup) {
  // §6 hardening: with self-healing on, a PortStatus link-down triggers
  // repair_paths() inside the notification itself — a flap landing between
  // two bearer setups never needs a manual repair call and never leaves the
  // verifier dirty.
  for (reca::Controller* c : mp->all_controllers()) c->set_self_healing(true);

  UeId ue{11};
  ASSERT_TRUE(bearer_for(ue).ok());
  ASSERT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);

  // Down-flap the direct west spine mid-setup...
  ASSERT_TRUE(net.set_link_up(l_s1_s2, false).ok());
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal)
      << "self-healing should have re-routed inside the PortStatus handler";

  // ...a second bearer sets up against the degraded topology...
  UeId ue2{12};
  ASSERT_TRUE(bearer_for(ue2).ok());
  EXPECT_EQ(send(ue2).outcome, DeliveryReport::Outcome::kExternal);

  // ...and the up-flap restores capacity without disturbing either flow.
  ASSERT_TRUE(net.set_link_up(l_s1_s2, true).ok());
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_EQ(send(ue2).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_TRUE(mp->verify_data_plane().clean());
}

TEST_F(FailureTest, SwitchCrashWithResync) {
  UeId ue{13};
  ASSERT_TRUE(bearer_for(ue).ok());
  ASSERT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);

  // Crash the radio-port switch: its TCAM is wiped and the agent drops off
  // the southbound channel.
  southbound::SwitchAgent* agent = mp->hub().agent(s1);
  ASSERT_NE(agent, nullptr);
  std::size_t rules_before = net.sw(s1)->table().size();
  ASSERT_GT(rules_before, 0u);
  agent->crash();
  EXPECT_EQ(net.sw(s1)->table().size(), 0u);
  EXPECT_NE(send(ue).outcome, DeliveryReport::Outcome::kExternal)
      << "a crashed first hop cannot classify the flow";

  // Restart: the agent re-handshakes and the leaf resyncs every stored rule
  // of its active fully-installed paths onto the blank table.
  agent->restart();
  EXPECT_EQ(net.sw(s1)->table().size(), rules_before);
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_TRUE(mp->verify_data_plane().clean());
}

TEST_F(FailureTest, StandbyPromotionRestoresControlPlane) {
  auto& west = mp->leaf(0);
  mgmt::HotStandby standby(west, mp->hub());
  standby.sync();

  std::size_t switches = west.nib().switch_count();
  std::size_t links = west.nib().links().size();
  std::size_t routes = west.nib().external_route_count();
  auto gbs_view = west.nib().gbs_list();
  std::vector<GBsId> gbs_list(gbs_view.begin(), gbs_view.end());

  // Master "fails"; the standby takes over (§6: detects via heartbeat,
  // seizes the master role, redoes unfinished events).
  auto promoted = standby.promote();
  EXPECT_EQ(promoted->id(), west.id());
  EXPECT_EQ(promoted->nib().switch_count(), switches);
  EXPECT_EQ(promoted->nib().links().size(), links);
  EXPECT_EQ(promoted->nib().external_route_count(), routes);
  auto promoted_gbs = promoted->nib().gbs_list();
  EXPECT_EQ(std::vector<GBsId>(promoted_gbs.begin(), promoted_gbs.end()), gbs_list);

  // The standby is master now: it can program the data plane end to end.
  apps::MobilityApp mobility(promoted.get(), &net);
  UeId ue{9};
  ASSERT_TRUE(mobility.ue_attach(ue, bs_a).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs_a;
  request.dst_prefix = PrefixId{1};
  // The standby is not wired to a parent; it can only serve local routes —
  // east's egress is not local, so this should fail over to... the parent
  // is gone, so expect a clean failure rather than a crash.
  auto bearer = mobility.request_bearer(request);
  if (bearer.ok()) {
    auto report = send(ue);
    EXPECT_EQ(report.outcome, DeliveryReport::Outcome::kExternal);
  } else {
    // Promotion restored the interdomain routes, which include the east
    // egress learned pre-failure: routing can still exit there if the NIB
    // kept it. Either way the control plane answered coherently.
    EXPECT_FALSE(bearer.error().message.empty());
  }
  // Old master lost its role on the shared switches.
  EXPECT_EQ(net.sw(s1)->master().value_or(ControllerId{}), promoted->id());
}

}  // namespace
}  // namespace softmow
