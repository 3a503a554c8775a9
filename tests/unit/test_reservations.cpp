// Bandwidth reservation + §3.2 threshold-based vFabric updates: NIB
// bookkeeping, PathImplementer admission, and end-to-end propagation of
// shrinking available bandwidth up the hierarchy.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow {
namespace {

using nos::Nib;

southbound::PortDesc sw_port(std::uint64_t id) {
  southbound::PortDesc d;
  d.port = PortId{id};
  d.peer = dataplane::PeerKind::kSwitch;
  return d;
}

TEST(NibReservations, ReserveReleaseCycle) {
  Nib nib;
  nib.upsert_link({SwitchId{1}, PortId{1}}, {SwitchId{2}, PortId{1}},
                  EdgeMetrics{5000, 1, 1000});
  Endpoint at{SwitchId{1}, PortId{1}};
  EXPECT_TRUE(nib.reserve_link_bandwidth(at, 600).ok());
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 400);
  EXPECT_EQ(nib.reserve_link_bandwidth(at, 600).code(), ErrorCode::kExhausted);
  EXPECT_TRUE(nib.release_link_bandwidth(at, 600).ok());
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 1000);
  EXPECT_EQ(nib.reserve_link_bandwidth({SwitchId{9}, PortId{1}}, 1).code(),
            ErrorCode::kNotFound);
}

TEST(NibReservations, MiddleboxUtilizationClamped) {
  Nib nib;
  southbound::GMiddleboxAnnounce mb;
  mb.gmb = MiddleboxId{1};
  mb.total_capacity_kbps = 100;
  mb.utilization = 0.9;
  nib.upsert_middlebox(mb);
  EXPECT_TRUE(nib.adjust_middlebox_utilization(MiddleboxId{1}, 0.5).ok());
  EXPECT_DOUBLE_EQ(nib.middlebox(MiddleboxId{1})->utilization, 1.0);
  EXPECT_TRUE(nib.adjust_middlebox_utilization(MiddleboxId{1}, -2.0).ok());
  EXPECT_DOUBLE_EQ(nib.middlebox(MiddleboxId{1})->utilization, 0.0);
  EXPECT_EQ(nib.adjust_middlebox_utilization(MiddleboxId{9}, 0.1).code(),
            ErrorCode::kNotFound);
}

class NullBus : public nos::DeviceBus {
 public:
  Result<void> send(SwitchId, const southbound::Message&) override { return Ok(); }
};

class PathReservationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t s : {1, 2, 3}) {
      nos::SwitchRecord rec;
      rec.id = SwitchId{s};
      rec.ports[PortId{1}] = sw_port(1);
      rec.ports[PortId{2}] = sw_port(2);
      if (s == 3) rec.ports[PortId{8}] = sw_port(8);
      nib.upsert_switch(rec);
    }
    nib.upsert_link({SwitchId{1}, PortId{2}}, {SwitchId{2}, PortId{1}},
                    EdgeMetrics{5000, 1, 1000});
    nib.upsert_link({SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}},
                    EdgeMetrics{5000, 1, 1000});
  }

  nos::ComputedRoute route() {
    nos::ComputedRoute r;
    r.hops = {nos::RouteHop{SwitchId{1}, PortId{1}, PortId{2}},
              nos::RouteHop{SwitchId{2}, PortId{1}, PortId{2}},
              nos::RouteHop{SwitchId{3}, PortId{1}, PortId{8}}};
    r.source = {SwitchId{1}, PortId{1}};
    r.exit = {SwitchId{3}, PortId{8}};
    return r;
  }

  double available(std::size_t index) { return nib.links()[index].metrics.bandwidth_kbps; }

  Nib nib;
  NullBus bus;
  nos::PathImplementer paths{&bus, 1, 1, &nib};
};

TEST_F(PathReservationTest, SetupReservesOnEveryCrossedLink) {
  nos::PathSetupOptions options;
  options.reserve_kbps = 300;
  dataplane::Match classifier;
  classifier.ue = UeId{1};
  auto id = paths.setup(route(), classifier, options);
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(available(0), 700);
  EXPECT_DOUBLE_EQ(available(1), 700);
  ASSERT_TRUE(paths.deactivate(*id).ok());
  EXPECT_DOUBLE_EQ(available(0), 1000);
  EXPECT_DOUBLE_EQ(available(1), 1000);
}

TEST_F(PathReservationTest, AdmissionFailureLeavesNoResidue) {
  // Thin the second link below the request.
  ASSERT_TRUE(
      nib.set_link_up({SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}}, true).ok());
  ASSERT_TRUE(nib.reserve_link_bandwidth({SwitchId{2}, PortId{2}}, 900).ok());
  nos::PathSetupOptions options;
  options.reserve_kbps = 300;
  dataplane::Match classifier;
  classifier.ue = UeId{1};
  auto id = paths.setup(route(), classifier, options);
  EXPECT_EQ(id.code(), ErrorCode::kExhausted);
  EXPECT_DOUBLE_EQ(available(0), 1000);  // first link's reservation rolled back
  EXPECT_TRUE(paths.paths().empty());
}

TEST_F(PathReservationTest, MiddleboxUtilizationFollowsReservation) {
  southbound::GMiddleboxAnnounce mb;
  mb.gmb = MiddleboxId{5};
  mb.type = dataplane::MiddleboxType::kFirewall;
  mb.total_capacity_kbps = 1000;
  mb.attached_switch = SwitchId{2};
  mb.attached_port = PortId{5};
  nib.upsert_middlebox(mb);
  auto r = route();
  r.middleboxes = {MiddleboxId{5}};
  nos::PathSetupOptions options;
  options.reserve_kbps = 250;
  dataplane::Match classifier;
  classifier.ue = UeId{1};
  auto id = paths.setup(r, classifier, options);
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(nib.middlebox(MiddleboxId{5})->utilization, 0.25);
  ASSERT_TRUE(paths.deactivate(*id).ok());
  EXPECT_DOUBLE_EQ(nib.middlebox(MiddleboxId{5})->utilization, 0.0);
}

/// End-to-end over the Figure 5 shape: a guaranteed-bit-rate bearer shrinks
/// the leaf's vFabric bandwidth, the update crosses the threshold and
/// reaches the root, and admission eventually rejects what no longer fits.
class HierarchyReservationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s1 = net.add_switch();
    s2 = net.add_switch();
    s3 = net.add_switch();
    s4 = net.add_switch();
    (void)net.connect(s1, s2, sim::Duration::millis(5), 1000);  // thin west spine
    (void)net.connect(s2, s3, sim::Duration::millis(5), 1e6);
    (void)net.connect(s3, s4, sim::Duration::millis(5), 1e6);
    group_a = net.add_bs_group(s1);
    group_b = net.add_bs_group(s4);
    bs_a = net.add_base_station(group_a, {});
    net.add_base_station(group_b, {});
    egress = net.add_egress(s4);

    mgmt::HierarchySpec spec;
    spec.leaves.push_back(mgmt::RegionSpec{"west", {s1, s2}, {group_a}});
    spec.leaves.push_back(mgmt::RegionSpec{"east", {s3, s4}, {group_b}});
    spec.group_adjacency.add(group_a, group_b, 1.0);
    mp = std::make_unique<mgmt::ManagementPlane>(&net);
    mp->bootstrap(spec);
    suite = std::make_unique<apps::AppSuite>(*mp);
    provider.egress_id = egress;
    suite->originate_interdomain(provider);
  }

  struct OneRoute : apps::ExternalPathProvider {
    EgressId egress_id;
    std::vector<PrefixId> prefixes() const override { return {PrefixId{1}}; }
    std::optional<apps::ExternalCost> cost(EgressId e, PrefixId) const override {
      if (!(e == egress_id)) return std::nullopt;
      return apps::ExternalCost{10, 20000};
    }
  } provider;

  apps::BearerRequest gbr(UeId ue, double kbps) {
    apps::BearerRequest r;
    r.ue = ue;
    r.bs = bs_a;
    r.dst_prefix = PrefixId{1};
    r.qos.min_bandwidth_kbps = kbps;
    return r;
  }

  dataplane::PhysicalNetwork net;
  SwitchId s1, s2, s3, s4;
  BsGroupId group_a, group_b;
  BsId bs_a;
  EgressId egress;
  std::unique_ptr<mgmt::ManagementPlane> mp;
  std::unique_ptr<apps::AppSuite> suite;
};

TEST_F(HierarchyReservationTest, ReservationShrinksVfabricUpToTheRoot) {
  auto& west = mp->leaf(0);
  auto& mobility = suite->mobility(west);
  ASSERT_TRUE(mobility.ue_attach(UeId{1}, bs_a).ok());

  auto root_bandwidth = [&]() {
    SwitchId gs_west = west.abstraction().gswitch_id();
    const nos::SwitchRecord* rec = mp->root().nib().sw(gs_west);
    double min_bw = 1e18;
    for (const auto& e : rec->vfabric) min_bw = std::min(min_bw, e.metrics.bandwidth_kbps);
    return min_bw;
  };
  double before = root_bandwidth();
  ASSERT_LE(before, 1000);  // bottleneck is the thin west spine

  auto bearer = mobility.request_bearer(gbr(UeId{1}, 600));
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  // The 60% drop crossed the 10% threshold: the root's copy shrank.
  EXPECT_GT(west.reca().vfabric_updates_sent(), 0u);
  EXPECT_NEAR(root_bandwidth(), before - 600, 1e-6);

  // Releasing restores the advertised bandwidth.
  ASSERT_TRUE(mobility.deactivate_bearer(UeId{1}, *bearer).ok());
  EXPECT_NEAR(root_bandwidth(), before, 1e-6);
}

TEST_F(HierarchyReservationTest, AdmissionRejectsWhatNoLongerFits) {
  auto& mobility = suite->mobility(mp->leaf(0));
  ASSERT_TRUE(mobility.ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(mobility.ue_attach(UeId{2}, bs_a).ok());
  ASSERT_TRUE(mobility.request_bearer(gbr(UeId{1}, 700)).ok());
  // Only ~300 kbps left on the west spine: a second 700 kbps bearer cannot
  // be admitted anywhere (the spine is the only way out of group A).
  auto second = mobility.request_bearer(gbr(UeId{2}, 700));
  EXPECT_FALSE(second.ok());
}

TEST_F(HierarchyReservationTest, ReservationDirtiesTheAbstractionUntilRefresh) {
  auto& west = mp->leaf(0);
  west.abstraction().refresh();
  ASSERT_FALSE(west.abstraction().dirty());
  const auto version = west.nib().version();
  const nos::LinkRecord& spine = west.nib().links().front();
  ASSERT_TRUE(west.nib().reserve_link_bandwidth(spine.a, 100).ok());
  EXPECT_EQ(west.nib().version(), version);  // a bandwidth change only
  EXPECT_TRUE(west.abstraction().dirty());
  west.abstraction().refresh();
  EXPECT_FALSE(west.abstraction().dirty());
  ASSERT_TRUE(west.nib().release_link_bandwidth(spine.a, 100).ok());
  EXPECT_TRUE(west.abstraction().dirty());
  west.abstraction().refresh();
  EXPECT_FALSE(west.abstraction().dirty());
}

// Regression: rediscovery used to overwrite a link's available bandwidth
// with the measured capacity, handing reserved bandwidth back.
TEST_F(HierarchyReservationTest, RediscoveryKeepsReservations) {
  auto& west = mp->leaf(0);
  auto& mobility = suite->mobility(west);
  ASSERT_TRUE(mobility.ue_attach(UeId{1}, bs_a).ok());
  ASSERT_TRUE(mobility.ue_attach(UeId{2}, bs_a).ok());
  ASSERT_TRUE(mobility.request_bearer(gbr(UeId{1}, 700)).ok());
  auto spine_bandwidth = [&] {
    double min_bw = 1e18;
    for (const nos::LinkRecord& l : west.nib().links())
      min_bw = std::min(min_bw, l.metrics.bandwidth_kbps);
    return min_bw;
  };
  EXPECT_NEAR(spine_bandwidth(), 300, 1e-6);
  west.run_link_discovery();
  EXPECT_NEAR(spine_bandwidth(), 300, 1e-6);
  EXPECT_FALSE(mobility.request_bearer(gbr(UeId{2}, 700)).ok());
}

}  // namespace
}  // namespace softmow
