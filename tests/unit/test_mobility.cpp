// Mobility application unit tests over a hand-built two-region deployment
// (the Figure 5 shape): bearer lifecycle, idle/active cycling, handover
// statistics and handover-graph exposure mapping.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow::apps {
namespace {

class MobilityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    s1 = net.add_switch({0, 0});
    s2 = net.add_switch({1, 0});
    s3 = net.add_switch({2, 0});
    s4 = net.add_switch({3, 0});
    (void)net.connect(s1, s2);
    (void)net.connect(s2, s3);
    (void)net.connect(s3, s4);
    group_a = net.add_bs_group(s1, dataplane::BsGroupTopology::kRing, {0, 1});
    group_b = net.add_bs_group(s2, dataplane::BsGroupTopology::kRing, {1, 1});
    group_c = net.add_bs_group(s4, dataplane::BsGroupTopology::kRing, {3, 1});
    bs_a = net.add_base_station(group_a, {0, 1});
    bs_b = net.add_base_station(group_b, {1, 1});
    bs_c = net.add_base_station(group_c, {3, 1});
    egress_west = net.add_egress(s1, {0, -1});
    egress_east = net.add_egress(s4, {3, -1});

    mgmt::HierarchySpec spec;
    spec.leaves.push_back(mgmt::RegionSpec{"west", {s1, s2}, {group_a, group_b}});
    spec.leaves.push_back(mgmt::RegionSpec{"east", {s3, s4}, {group_c}});
    spec.group_adjacency.add(group_a, group_b, 5.0);
    spec.group_adjacency.add(group_b, group_c, 7.0);
    mp = std::make_unique<mgmt::ManagementPlane>(&net);
    mp->bootstrap(spec);
    suite = std::make_unique<AppSuite>(*mp);

    provider.cost_map[{egress_west, PrefixId{1}}] = ExternalCost{10, 20000};
    provider.cost_map[{egress_east, PrefixId{1}}] = ExternalCost{10, 20000};
    provider.cost_map[{egress_east, PrefixId{2}}] = ExternalCost{4, 8000};
    suite->originate_interdomain(provider);
  }

  struct MapProvider : ExternalPathProvider {
    std::map<std::pair<EgressId, PrefixId>, ExternalCost> cost_map;
    std::vector<PrefixId> prefixes() const override { return {PrefixId{1}, PrefixId{2}}; }
    std::optional<ExternalCost> cost(EgressId e, PrefixId p) const override {
      auto it = cost_map.find({e, p});
      if (it == cost_map.end()) return std::nullopt;
      return it->second;
    }
  } provider;

  MobilityApp& west() { return suite->mobility(mp->leaf(0)); }
  MobilityApp& east() { return suite->mobility(mp->leaf(1)); }
  MobilityApp& root() { return suite->mobility(mp->root()); }

  BearerRequest request_for(UeId ue, BsId bs, PrefixId prefix = PrefixId{1}) {
    BearerRequest r;
    r.ue = ue;
    r.bs = bs;
    r.dst_prefix = prefix;
    return r;
  }

  dataplane::PhysicalNetwork net;
  SwitchId s1, s2, s3, s4;
  BsGroupId group_a, group_b, group_c;
  BsId bs_a, bs_b, bs_c;
  EgressId egress_west, egress_east;
  std::unique_ptr<mgmt::ManagementPlane> mp;
  std::unique_ptr<AppSuite> suite;
};

TEST_F(MobilityFixture, AttachDetachLifecycle) {
  EXPECT_EQ(west().ue_attach(UeId{1}, bs_a).code(), ErrorCode::kUnknown);
  EXPECT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  EXPECT_EQ(west().ue_count(), 1u);
  EXPECT_EQ(west().ue(UeId{1})->group, group_a);
  EXPECT_EQ(west().stats().ue_arrivals, 2u);
  EXPECT_TRUE(west().ue_detach(UeId{1}).ok());
  EXPECT_EQ(west().ue(UeId{1}), nullptr);
  EXPECT_EQ(west().ue_detach(UeId{1}).code(), ErrorCode::kNotFound);
  EXPECT_EQ(west().ue_attach(UeId{2}, BsId{999}).code(), ErrorCode::kNotFound);
}

TEST_F(MobilityFixture, LocalBearerServedInRegion) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  auto bearer = west().request_bearer(request_for(UeId{1}, bs_a));
  ASSERT_TRUE(bearer.ok());
  const BearerRecord& rec = west().ue(UeId{1})->bearers.at(*bearer);
  EXPECT_TRUE(rec.handled_locally);
  EXPECT_EQ(rec.handled_level, 1);
  EXPECT_EQ(west().stats().bearers_local, 1u);
  EXPECT_EQ(west().stats().bearers_delegated, 0u);
}

TEST_F(MobilityFixture, BearerForUnattachedUeFails) {
  EXPECT_EQ(west().request_bearer(request_for(UeId{9}, bs_a)).code(),
            ErrorCode::kNotFound);
}

TEST_F(MobilityFixture, PrefixOnlyReachableElsewhereIsDelegated) {
  // Prefix 2 has an interdomain route only at the east egress: the west
  // leaf cannot serve it and must delegate to the root (§5.1).
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  auto bearer = west().request_bearer(request_for(UeId{1}, bs_a, PrefixId{2}));
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  const BearerRecord& rec = west().ue(UeId{1})->bearers.at(*bearer);
  EXPECT_FALSE(rec.handled_locally);
  EXPECT_EQ(rec.handled_level, 2);
  EXPECT_NE(rec.ancestor_key, 0u);
  EXPECT_EQ(west().stats().bearers_delegated, 1u);

  Packet pkt;
  pkt.ue = UeId{1};
  pkt.dst_prefix = PrefixId{2};
  auto report = net.inject_uplink(pkt, bs_a);
  EXPECT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
  EXPECT_EQ(report.egress, egress_east);
}

TEST_F(MobilityFixture, IdleDeactivatesAndActiveRestoresLocalBearer) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(west().request_bearer(request_for(UeId{1}, bs_a)).ok());
  std::size_t rules_active = net.total_rules();
  ASSERT_GT(rules_active, 0u);

  ASSERT_TRUE(west().ue_idle(UeId{1}).ok());
  EXPECT_EQ(net.total_rules(), 0u);
  Packet pkt;
  pkt.ue = UeId{1};
  pkt.dst_prefix = PrefixId{1};
  EXPECT_EQ(net.inject_uplink(pkt, bs_a).outcome,
            dataplane::DeliveryReport::Outcome::kToController);

  ASSERT_TRUE(west().ue_active(UeId{1}).ok());
  EXPECT_EQ(net.total_rules(), rules_active);
  EXPECT_EQ(net.inject_uplink(pkt, bs_a).outcome,
            dataplane::DeliveryReport::Outcome::kExternal);
}

TEST_F(MobilityFixture, IdleTearsDownAncestorBearerToo) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(west().request_bearer(request_for(UeId{1}, bs_a, PrefixId{2})).ok());
  ASSERT_GT(net.total_rules(), 0u);
  ASSERT_TRUE(west().ue_idle(UeId{1}).ok());
  EXPECT_EQ(net.total_rules(), 0u);  // the root's path was deactivated via key
}

TEST_F(MobilityFixture, DeactivateTearsDownAncestorBearer) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  auto bearer = west().request_bearer(request_for(UeId{1}, bs_a, PrefixId{2}));
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  std::uint64_t key = west().ue(UeId{1})->bearers.at(*bearer).ancestor_key;
  ASSERT_NE(key, 0u);
  ASSERT_TRUE(root().holds_ancestor_path(key));
  ASSERT_GT(net.total_rules(), 0u);

  ASSERT_TRUE(west().deactivate_bearer(UeId{1}, *bearer).ok());
  EXPECT_EQ(net.total_rules(), 0u);
  EXPECT_FALSE(root().holds_ancestor_path(key));
  EXPECT_TRUE(west().ue(UeId{1})->bearers.empty());
}

TEST_F(MobilityFixture, IntraRegionHandoverRedelegatesAncestorBearer) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  auto bearer = west().request_bearer(request_for(UeId{1}, bs_a, PrefixId{2}));
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  std::uint64_t old_key = west().ue(UeId{1})->bearers.at(*bearer).ancestor_key;
  ASSERT_TRUE(root().holds_ancestor_path(old_key));

  ASSERT_TRUE(west().handover(UeId{1}, bs_b).ok());
  EXPECT_EQ(west().stats().intra_region_handovers, 1u);
  // The root's path classified at group a's access switch: torn down, and the
  // bearer re-delegated from group b.
  EXPECT_FALSE(root().holds_ancestor_path(old_key));
  EXPECT_EQ(west().stats().bearers_delegated, 2u);
  const UeRecord* rec = west().ue(UeId{1});
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->bearers.size(), 1u);
  const BearerRecord& replaced = rec->bearers.begin()->second;
  EXPECT_FALSE(replaced.handled_locally);
  EXPECT_TRUE(replaced.active);
  EXPECT_NE(replaced.ancestor_key, 0u);
  EXPECT_NE(replaced.ancestor_key, old_key);
  EXPECT_TRUE(root().holds_ancestor_path(replaced.ancestor_key));

  Packet pkt;
  pkt.ue = UeId{1};
  pkt.dst_prefix = PrefixId{2};
  auto report = net.inject_uplink(pkt, bs_b);
  EXPECT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
  EXPECT_EQ(report.egress, egress_east);
}

TEST_F(MobilityFixture, ActiveRestoresDelegatedAndLocalBearers) {
  // Delegated bearer first: its re-request on activation appends the
  // replacement record while the local bearer after it is still pending.
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  auto delegated = west().request_bearer(request_for(UeId{1}, bs_a, PrefixId{2}));
  ASSERT_TRUE(delegated.ok()) << delegated.error().message;
  auto local = west().request_bearer(request_for(UeId{1}, bs_a));
  ASSERT_TRUE(local.ok()) << local.error().message;
  std::size_t rules_active = net.total_rules();

  ASSERT_TRUE(west().ue_idle(UeId{1}).ok());
  ASSERT_EQ(net.total_rules(), 0u);
  ASSERT_TRUE(west().ue_active(UeId{1}).ok());

  const UeRecord* rec = west().ue(UeId{1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bearers.size(), 2u);
  for (const auto& [id, bearer] : rec->bearers) {
    EXPECT_TRUE(bearer.active) << id.str();
    if (!bearer.handled_locally) {
      EXPECT_TRUE(root().holds_ancestor_path(bearer.ancestor_key));
    }
  }
  EXPECT_EQ(net.total_rules(), rules_active);

  // Both come back under the ids their requesters hold, so deactivating
  // by those ids tears the restored paths down.
  ASSERT_TRUE(rec->bearers.contains(*delegated));
  ASSERT_TRUE(rec->bearers.contains(*local));
  EXPECT_FALSE(rec->bearers.at(*delegated).handled_locally);
  EXPECT_TRUE(rec->bearers.at(*local).handled_locally);
  ASSERT_TRUE(west().deactivate_bearer(UeId{1}, *delegated).ok());
  ASSERT_TRUE(west().deactivate_bearer(UeId{1}, *local).ok());
  EXPECT_EQ(net.total_rules(), 0u);
  for (reca::Controller* c : mp->all_controllers())
    EXPECT_TRUE(c->paths().paths().empty()) << c->name();
}

TEST_F(MobilityFixture, ActiveDropsAGbrBearerWhoseFloorNoLongerFits) {
  // Group b's access switch reaches prefix 1 across the s2-s1 link, or
  // through the root across the region border.
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_b).ok());
  BearerRequest request = request_for(UeId{1}, bs_b);
  request.qos.min_bandwidth_kbps = 400000;
  auto bearer = west().request_bearer(request);
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  ASSERT_TRUE(west().ue(UeId{1})->bearers.at(*bearer).handled_locally);
  ASSERT_TRUE(west().ue_idle(UeId{1}).ok());
  ASSERT_EQ(net.total_rules(), 0u);

  // While the UE is idle, other traffic takes all but 1 Mb/s of every link
  // in every controller's view: the floor fits nowhere any more.
  for (reca::Controller* c : mp->all_controllers()) {
    for (std::size_t i = 0; i < c->nib().links().size(); ++i) {
      const nos::LinkRecord& link = c->nib().links()[i];
      ASSERT_TRUE(
          c->nib().reserve_link_bandwidth(link.a, link.metrics.bandwidth_kbps - 1000).ok());
    }
  }
  const std::uint64_t failed = west().stats().bearers_failed;
  ASSERT_TRUE(west().ue_active(UeId{1}).ok());
  EXPECT_TRUE(west().ue(UeId{1})->bearers.empty()) << "the bearer is dropped";
  EXPECT_EQ(west().stats().bearers_failed, failed + 1);
  EXPECT_EQ(net.total_rules(), 0u);
  for (reca::Controller* c : mp->all_controllers())
    EXPECT_TRUE(c->paths().paths().empty()) << c->name();
}

TEST_F(MobilityFixture, DetachCleansEverything) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(west().request_bearer(request_for(UeId{1}, bs_a)).ok());
  ASSERT_TRUE(west().request_bearer(request_for(UeId{1}, bs_a, PrefixId{2})).ok());
  ASSERT_TRUE(west().ue_detach(UeId{1}).ok());
  EXPECT_EQ(net.total_rules(), 0u);
}

TEST_F(MobilityFixture, IntraRegionHandoverStatsAndLog) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(west().request_bearer(request_for(UeId{1}, bs_a)).ok());
  ASSERT_TRUE(west().handover(UeId{1}, bs_b).ok());
  EXPECT_EQ(west().stats().intra_region_handovers, 1u);
  EXPECT_EQ(west().ue(UeId{1})->group, group_b);
  EXPECT_DOUBLE_EQ(west().handover_log().weight(mgmt::gbs_id_for_group(group_a),
                                                mgmt::gbs_id_for_group(group_b)),
                   1.0);
  // The bearer still delivers from the new group.
  Packet pkt;
  pkt.ue = UeId{1};
  pkt.dst_prefix = PrefixId{1};
  EXPECT_EQ(net.inject_uplink(pkt, bs_b).outcome,
            dataplane::DeliveryReport::Outcome::kExternal);
}

TEST_F(MobilityFixture, InterRegionHandoverMovesState) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_b).ok());
  ASSERT_TRUE(west().request_bearer(request_for(UeId{1}, bs_b)).ok());
  ASSERT_TRUE(west().handover(UeId{1}, bs_c).ok());
  EXPECT_EQ(west().ue(UeId{1}), nullptr);
  ASSERT_NE(east().ue(UeId{1}), nullptr);
  EXPECT_EQ(east().ue(UeId{1})->bearers.size(), 1u);
  EXPECT_EQ(root().stats().inter_region_handled, 1u);
  EXPECT_EQ(west().stats().handovers_delegated, 1u);
}

TEST_F(MobilityFixture, HandoverToUnknownBsFails) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  EXPECT_EQ(west().handover(UeId{1}, BsId{404}).code(), ErrorCode::kNotFound);
}

TEST_F(MobilityFixture, ExposedHandoverGraphCollapsesInternalGroups) {
  // a<->b is internal to west; b<->c crosses. In west's exposed view, the
  // internal edge collapses onto the aggregate only if a or b is internal.
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(west().handover(UeId{1}, bs_b).ok());  // intra
  auto exposed = west().exposed_handover_graph();
  // group_a is internal (only neighbor is b, same region)... a's neighbors:
  // b (west). So a is internal; b neighbors c (east): border.
  GBsId agg = reca::internal_gbs_id_for(mp->leaf(0).id());
  EXPECT_DOUBLE_EQ(exposed.weight(agg, mgmt::gbs_id_for_group(group_b)), 1.0);
}

TEST_F(MobilityFixture, CollectHandoverGraphAggregatesSubtree) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_b).ok());
  ASSERT_TRUE(west().handover(UeId{1}, bs_c).ok());  // inter via root
  auto collected = root().collect_handover_graph();
  // The root's own log plus the leaves' logs, with the cross edge present.
  EXPECT_GE(collected.weight(mgmt::gbs_id_for_group(group_b),
                             mgmt::gbs_id_for_group(group_c)),
            1.0);
}

TEST_F(MobilityFixture, ReactiveBearerFromPacketIn) {
  west().enable_reactive_bearers();
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  // No bearer yet: the uplink packet misses at the access switch and punts;
  // the mobility app reacts by setting up a default bearer.
  Packet pkt;
  pkt.ue = UeId{1};
  pkt.dst_prefix = PrefixId{1};
  auto miss = net.inject_uplink(pkt, bs_a);
  ASSERT_EQ(miss.outcome, dataplane::DeliveryReport::Outcome::kToController);
  mp->hub().deliver_packet_ins(miss);
  EXPECT_EQ(west().reactive_bearers(), 1u);
  EXPECT_EQ(west().ue(UeId{1})->bearers.size(), 1u);

  auto retry = net.inject_uplink(pkt, bs_a);
  EXPECT_EQ(retry.outcome, dataplane::DeliveryReport::Outcome::kExternal);

  // A second miss for the same flow does not duplicate the bearer.
  mp->hub().deliver_packet_ins(miss);
  EXPECT_EQ(west().reactive_bearers(), 1u);

  // Unknown UEs are ignored.
  Packet stranger;
  stranger.ue = UeId{42};
  stranger.dst_prefix = PrefixId{1};
  auto other = net.inject_uplink(stranger, bs_a);
  mp->hub().deliver_packet_ins(other);
  EXPECT_EQ(west().reactive_bearers(), 1u);
}

TEST_F(MobilityFixture, GroupStateExtractAbsorb) {
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(west().ue_attach(UeId{2}, bs_b).ok());
  auto moved = west().extract_group_state(group_a);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].ue, UeId{1});
  EXPECT_EQ(west().ue_count(), 1u);
  east().absorb_group_state(std::move(moved));
  EXPECT_NE(east().ue(UeId{1}), nullptr);
}

TEST_F(MobilityFixture, TransferredBearerKeepsItsIdAndIsNotReissued) {
  // West's first bearer id travels with the UE when group b moves east;
  // east has issued none yet, so its next bearer for that UE must not
  // reuse the transferred id.
  ASSERT_TRUE(west().ue_attach(UeId{1}, bs_b).ok());
  auto moved = west().request_bearer(request_for(UeId{1}, bs_b));
  ASSERT_TRUE(moved.ok()) << moved.error().message;
  ASSERT_TRUE(mp->reassign_gbs(mp->root(), mgmt::gbs_id_for_group(group_b),
                               mp->leaf(0).abstraction().gswitch_id(),
                               mp->leaf(1).abstraction().gswitch_id())
                  .ok());
  const UeRecord* rec = east().ue(UeId{1});
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->bearers.contains(*moved));
  EXPECT_TRUE(rec->bearers.at(*moved).active);

  auto added = east().request_bearer(request_for(UeId{1}, bs_b, PrefixId{2}));
  ASSERT_TRUE(added.ok()) << added.error().message;
  EXPECT_NE(*added, *moved);
  rec = east().ue(UeId{1});
  EXPECT_EQ(rec->bearers.size(), 2u);
  EXPECT_EQ(rec->bearers.at(*added).request.dst_prefix, PrefixId{2});
}

}  // namespace
}  // namespace softmow::apps
