// Management plane and controller plumbing: border computation, the
// reconfiguration protocol's error paths, app request/response correlation,
// repair no-ops, and a G-switch's one-rule-per-cookie contract.
#include <gtest/gtest.h>

#include "mgmt/failover.h"
#include "softmow/softmow.h"

namespace softmow {
namespace {

class MgmtFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    s1 = net.add_switch();
    s2 = net.add_switch();
    s3 = net.add_switch();
    (void)net.connect(s1, s2);
    (void)net.connect(s2, s3);
    // Groups: a, b in region west (a adjacent to c across the border);
    // c in region east.
    a = net.add_bs_group(s1);
    b = net.add_bs_group(s1);
    c = net.add_bs_group(s3);
    net.add_base_station(a, {});
    net.add_base_station(b, {});
    net.add_base_station(c, {});
    net.add_egress(s3);

    spec.leaves.push_back(mgmt::RegionSpec{"west", {s1, s2}, {a, b}});
    spec.leaves.push_back(mgmt::RegionSpec{"east", {s3}, {c}});
    spec.group_adjacency.add(a, c, 10.0);
    spec.group_adjacency.add(a, b, 3.0);
    mp = std::make_unique<mgmt::ManagementPlane>(&net);
    mp->bootstrap(spec);
  }

  dataplane::PhysicalNetwork net;
  SwitchId s1, s2, s3;
  BsGroupId a, b, c;
  mgmt::HierarchySpec spec;
  std::unique_ptr<mgmt::ManagementPlane> mp;
};

TEST_F(MgmtFixture, BordersFollowCrossRegionAdjacency) {
  // a <-> c crosses regions: both are border; b is internal to west.
  EXPECT_TRUE(mp->leaf(0).abstraction().border_gbs().contains(mgmt::gbs_id_for_group(a)));
  EXPECT_FALSE(mp->leaf(0).abstraction().border_gbs().contains(mgmt::gbs_id_for_group(b)));
  EXPECT_TRUE(mp->leaf(1).abstraction().border_gbs().contains(mgmt::gbs_id_for_group(c)));
}

TEST_F(MgmtFixture, LeafOfGroupTracksAssignment) {
  EXPECT_EQ(mp->leaf_of_group(a), &mp->leaf(0));
  EXPECT_EQ(mp->leaf_of_group(c), &mp->leaf(1));
  EXPECT_EQ(mp->leaf_of_group(BsGroupId{404}), nullptr);
  EXPECT_EQ(mp->leaf_index_of_group(c), 1u);
}

TEST_F(MgmtFixture, ReassignErrorPaths) {
  auto& root = mp->root();
  SwitchId gs_west = mp->leaf(0).abstraction().gswitch_id();
  SwitchId gs_east = mp->leaf(1).abstraction().gswitch_id();

  // Unknown child G-switch.
  EXPECT_EQ(mp->reassign_gbs(root, mgmt::gbs_id_for_group(a), SwitchId{12345}, gs_east).code(),
            ErrorCode::kNotFound);
  // Unknown group.
  EXPECT_EQ(mp->reassign_gbs(root, GBsId{777}, gs_west, gs_east).code(),
            ErrorCode::kNotFound);
  // Wrong claimed source.
  EXPECT_EQ(mp->reassign_gbs(root, mgmt::gbs_id_for_group(c), gs_west, gs_east).code(),
            ErrorCode::kConflict);
}

TEST_F(MgmtFixture, ReassignMovesControlOfTheAccessSwitch) {
  auto& root = mp->root();
  SwitchId gs_west = mp->leaf(0).abstraction().gswitch_id();
  SwitchId gs_east = mp->leaf(1).abstraction().gswitch_id();
  SwitchId access = net.bs_group(a)->access_switch;
  ASSERT_EQ(net.sw(access)->master(), mp->leaf(0).id());

  ASSERT_TRUE(mp->reassign_gbs(root, mgmt::gbs_id_for_group(a), gs_west, gs_east).ok());
  EXPECT_EQ(net.sw(access)->master(), mp->leaf(1).id());
  EXPECT_EQ(mp->leaf_of_group(a), &mp->leaf(1));
  EXPECT_EQ(mp->leaf(0).nib().gbs(mgmt::gbs_id_for_group(a)), nullptr);
  EXPECT_NE(mp->leaf(1).nib().gbs(mgmt::gbs_id_for_group(a)), nullptr);
  // The root still resolves the G-BS (re-announced by the new owner).
  EXPECT_NE(root.nib().gbs(mgmt::gbs_id_for_group(a)), nullptr);
  // Discovery remains a partition of the physical links.
  std::size_t discovered = 0;
  for (reca::Controller* ctl : mp->all_controllers())
    discovered += ctl->nib().links().size();
  EXPECT_EQ(discovered, net.links().size());
}

TEST_F(MgmtFixture, UeTransferHookFiresDuringReassign) {
  int fired = 0;
  mp->set_ue_transfer_hook(
      [&](BsGroupId group, reca::Controller& from, reca::Controller& to) {
        ++fired;
        EXPECT_EQ(group, a);
        EXPECT_EQ(&from, &mp->leaf(0));
        EXPECT_EQ(&to, &mp->leaf(1));
      });
  auto& root = mp->root();
  ASSERT_TRUE(mp->reassign_gbs(root, mgmt::gbs_id_for_group(a),
                               mp->leaf(0).abstraction().gswitch_id(),
                               mp->leaf(1).abstraction().gswitch_id())
                  .ok());
  EXPECT_EQ(fired, 1);
}

TEST_F(MgmtFixture, ControllerSendToUnknownDeviceFails) {
  EXPECT_EQ(mp->leaf(0).send(SwitchId{999}, southbound::EchoRequest{Xid{1}}).code(),
            ErrorCode::kNotFound);
}

TEST_F(MgmtFixture, AppRequestResponseCorrelation) {
  auto& root = mp->root();
  SwitchId gs_west = mp->leaf(0).abstraction().gswitch_id();
  // Register an echo-style app at the leaf.
  mp->leaf(0).reca().register_app_handler("ping", [&](const southbound::AppMessage& msg) {
    southbound::AppMessage reply;
    reply.type = "ping";
    reply.body = std::string("pong-") + std::to_string(msg.request_id);
    mp->leaf(0).reca().respond_up(msg.request_id, std::move(reply));
  });
  std::vector<std::string> answers;
  for (int i = 0; i < 3; ++i) {
    southbound::AppMessage ping;
    ping.type = "ping";
    root.send_app_request(gs_west, std::move(ping), [&](const southbound::AppMessage& resp) {
      answers.push_back(*std::any_cast<std::string>(&resp.body));
    });
  }
  ASSERT_EQ(answers.size(), 3u);
  // Each response matched its own request id.
  EXPECT_NE(answers[0], answers[1]);
  EXPECT_NE(answers[1], answers[2]);
}

TEST_F(MgmtFixture, MessagesThatCannotBeDeliveredAreCounted) {
  auto ignored = [](const char* site) {
    return obs::default_registry().counter("ignored_errors_total", {{"site", site}})->value();
  };
  const std::uint64_t requests = ignored("controller.send_app_request"),
                      responses = ignored("controller.send_app_response"),
                      vfabrics = ignored("controller.set_vfabric");
  // No child behind G-switch 999: neither message goes out.
  bool answered = false;
  southbound::AppMessage ping;
  ping.type = "ping";
  mp->root().send_app_request(SwitchId{999}, std::move(ping),
                              [&](const southbound::AppMessage&) { answered = true; });
  mp->root().send_app_response(SwitchId{999}, 7, southbound::AppMessage{});
  EXPECT_EQ(ignored("controller.send_app_request"), requests + 1);
  EXPECT_EQ(ignored("controller.send_app_response"), responses + 1);
  EXPECT_FALSE(answered);

  // A vFabric update for a G-switch the parent's NIB does not hold: the
  // announce sends it before the FeaturesReply that re-adds the switch.
  SwitchId gs_west = mp->leaf(0).abstraction().gswitch_id();
  ASSERT_TRUE(mp->root().nib().remove_switch(gs_west).ok());
  mp->leaf(0).reca().announce();
  EXPECT_EQ(ignored("controller.set_vfabric"), vfabrics + 1);
  EXPECT_NE(mp->root().nib().sw(gs_west), nullptr);
}

TEST_F(MgmtFixture, RepairIsNoOpOnHealthyTopology) {
  auto [repaired, failed] = mp->leaf(0).repair_paths();
  EXPECT_EQ(repaired, 0u);
  EXPECT_EQ(failed, 0u);
}

TEST_F(MgmtFixture, HotStandbySyncCountsAndTracksDevices) {
  mgmt::HotStandby standby(mp->leaf(0), mp->hub());
  EXPECT_EQ(standby.checkpoints(), 1u);  // constructor syncs
  standby.sync();
  EXPECT_EQ(standby.checkpoints(), 2u);
  auto promoted = standby.promote();
  EXPECT_EQ(promoted->devices().size(), mp->leaf(0).devices().size());
  EXPECT_EQ(promoted->abstraction().border_gbs(),
            mp->leaf(0).abstraction().border_gbs());
}

TEST(GSwitchFlowMod, RepeatedAddUnderOneCookieIsOneTranslation) {
  // Fewer egress points than leaves: a leaf without one delegates its
  // bearers, and its parent programs them onto the leaf's G-switch.
  topo::ScenarioParams params = topo::small_scenario_params();
  params.egress_points = 2;
  auto scenario = topo::build_scenario(params);
  mgmt::ManagementPlane& mp = *scenario->mgmt;
  const PrefixId prefix = scenario->iplane->prefixes().front();

  std::uint64_t next_ue = 90000;
  for (const auto& region : scenario->partition.group_regions) {
    for (BsGroupId group : region) {
      const BsId bs = scenario->net.bs_group(group)->members.front();
      apps::MobilityApp& mobility = scenario->apps->leaf_mobility_of_group(group);
      reca::Controller& leaf = *mp.leaf_of_group(group);
      const std::size_t rules_before = scenario->net.total_rules();
      const std::size_t paths_before = leaf.paths().paths().size();
      apps::BearerRequest request;
      request.ue = UeId{next_ue++};
      request.bs = bs;
      request.dst_prefix = prefix;
      ASSERT_TRUE(mobility.ue_attach(request.ue, bs).ok());
      auto bearer = mobility.request_bearer(request);
      ASSERT_TRUE(bearer.ok()) << bearer.error().message;
      if (mobility.ue(request.ue)->bearers.at(*bearer).handled_locally) {
        ASSERT_TRUE(mobility.ue_detach(request.ue).ok());
        continue;
      }

      // The parent re-sends every rule it holds on the leaf's G-switch: the
      // same adds under the same cookies.
      const SwitchId gswitch = leaf.abstraction().gswitch_id();
      reca::Controller* parent = nullptr;
      for (reca::Controller* c : mp.all_controllers())
        if (c->child_by_gswitch(gswitch) == &leaf) parent = c;
      ASSERT_NE(parent, nullptr);
      const std::size_t paths = leaf.paths().paths().size();
      const std::size_t rules = scenario->net.total_rules();
      const std::uint64_t translated = leaf.reca().stats().flowmods_translated;
      ASSERT_GT(parent->paths().resync_switch(gswitch), 0u);
      EXPECT_EQ(leaf.reca().stats().flowmods_translated, translated);
      EXPECT_EQ(leaf.paths().paths().size(), paths);
      EXPECT_EQ(scenario->net.total_rules(), rules);

      // Tearing the bearer down removes the parent's rules by cookie, and
      // with them every local rule that translated them.
      ASSERT_TRUE(mobility.ue_detach(request.ue).ok());
      EXPECT_EQ(leaf.paths().paths().size(), paths_before);
      EXPECT_EQ(scenario->net.total_rules(), rules_before);
      return;
    }
  }
  FAIL() << "no leaf delegates its bearers";
}

TEST(MgmtBootstrap, SingleRegionHierarchyWorks) {
  dataplane::PhysicalNetwork net;
  SwitchId s1 = net.add_switch();
  BsGroupId g = net.add_bs_group(s1);
  net.add_base_station(g, {});
  mgmt::HierarchySpec spec;
  spec.leaves.push_back(mgmt::RegionSpec{"only", {s1}, {g}});
  mgmt::ManagementPlane mp(&net);
  mp.bootstrap(spec);
  EXPECT_EQ(mp.leaf_count(), 1u);
  EXPECT_EQ(mp.root().nib().switch_count(), 1u);
  EXPECT_TRUE(mp.root().nib().links().empty());  // nothing to discover up top
}

}  // namespace
}  // namespace softmow
