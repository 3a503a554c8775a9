#include <gtest/gtest.h>

#include "nos/routing.h"
#include "reca/abstraction.h"

namespace softmow::reca {
namespace {

southbound::PortDesc port(std::uint64_t id,
                          dataplane::PeerKind peer = dataplane::PeerKind::kSwitch,
                          std::uint64_t egress = ~0ull) {
  southbound::PortDesc d;
  d.port = PortId{id};
  d.peer = peer;
  if (egress != ~0ull) d.egress = EgressId{egress};
  return d;
}

/// Region: switch 1 -- switch 2; switch 1 carries a radio port (group 5,
/// border) and a radio port (group 6, internal); switch 2 has an egress
/// port (p8) and a dangling switch port (p3, cross-region candidate).
class AbstractionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    nos::SwitchRecord s1;
    s1.id = SwitchId{1};
    s1.ports[PortId{1}] = port(1);
    s1.ports[PortId{7}] = port(7, dataplane::PeerKind::kBsGroup);
    s1.ports[PortId{9}] = port(9, dataplane::PeerKind::kBsGroup);
    nib.upsert_switch(s1);
    nos::SwitchRecord s2;
    s2.id = SwitchId{2};
    s2.ports[PortId{1}] = port(1);
    s2.ports[PortId{3}] = port(3);  // no link: border candidate
    s2.ports[PortId{8}] = port(8, dataplane::PeerKind::kExternal, 1);
    nib.upsert_switch(s2);
    nib.upsert_link({SwitchId{1}, PortId{1}}, {SwitchId{2}, PortId{1}},
                    EdgeMetrics{5000, 1, 1e6});

    southbound::GBsAnnounce border_group;
    border_group.gbs = GBsId{5};
    border_group.attached_switch = SwitchId{1};
    border_group.attached_port = PortId{7};
    border_group.constituent_groups = {BsGroupId{5}};
    nib.upsert_gbs(border_group);
    southbound::GBsAnnounce internal_group;
    internal_group.gbs = GBsId{6};
    internal_group.attached_switch = SwitchId{1};
    internal_group.attached_port = PortId{9};
    internal_group.constituent_groups = {BsGroupId{6}};
    nib.upsert_gbs(internal_group);

    abstraction.set_border_gbs({GBsId{5}});
    abstraction.recompute();
  }

  nos::Nib nib;
  nos::RoutingService routing{&nib, 1};
  TopologyAbstraction abstraction{ControllerId{3}, 1, &nib, &routing};
};

TEST_F(AbstractionFixture, GSwitchIdEncodesController) {
  EXPECT_EQ(abstraction.gswitch_id(), gswitch_id_for(ControllerId{3}));
  EXPECT_TRUE(is_gswitch_id(abstraction.gswitch_id()));
  EXPECT_FALSE(is_gswitch_id(SwitchId{17}));
}

TEST_F(AbstractionFixture, ExposesExactlyTheBorderPorts) {
  const auto& features = abstraction.features();
  EXPECT_TRUE(features.is_gswitch);
  // Exposed: egress p8, dangling p3, border G-BS port, internal-aggregate
  // G-BS port (the internal group exists). Internal link ports are hidden.
  EXPECT_EQ(features.ports.size(), 4u);
  int external = 0, cross = 0, radio = 0;
  for (const auto& p : features.ports) {
    external += p.peer == dataplane::PeerKind::kExternal;
    cross += p.peer == dataplane::PeerKind::kSwitch;
    radio += p.peer == dataplane::PeerKind::kBsGroup;
  }
  EXPECT_EQ(external, 1);
  EXPECT_EQ(cross, 1);
  EXPECT_EQ(radio, 2);
}

TEST_F(AbstractionFixture, PortMappingRoundTrips) {
  for (const auto& p : abstraction.features().ports) {
    auto local = abstraction.to_local(p.port);
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(abstraction.to_exposed(*local), p.port);
  }
  EXPECT_FALSE(abstraction.to_local(PortId{999}).has_value());
  EXPECT_FALSE(abstraction.to_exposed(Endpoint{SwitchId{1}, PortId{1}}).has_value());
}

TEST_F(AbstractionFixture, ExposedPortNumbersStableAcrossRecomputes) {
  auto before = abstraction.features().ports;
  abstraction.mark_dirty();
  abstraction.recompute();
  auto after = abstraction.features().ports;
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(abstraction.to_local(before[i].port), abstraction.to_local(after[i].port));
  }
}

TEST_F(AbstractionFixture, VfabricMatchesRealShortestPaths) {
  // Entry from the border G-BS port (1:7) to the egress (2:8) must equal the
  // real path: cross switch 1 (free), 1 link, cross switch 2 (free).
  PortId from = *abstraction.to_exposed(Endpoint{SwitchId{1}, PortId{7}});
  PortId to = *abstraction.to_exposed(Endpoint{SwitchId{2}, PortId{8}});
  bool found = false;
  for (const auto& entry : abstraction.features().vfabric) {
    if (entry.from == from && entry.to == to) {
      EXPECT_DOUBLE_EQ(entry.metrics.hop_count, 1);
      EXPECT_DOUBLE_EQ(entry.metrics.latency_us, 5000);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AbstractionFixture, BorderGbsExposedOneToOneInternalAggregated) {
  const auto& gbs = abstraction.exposed_gbs();
  ASSERT_EQ(gbs.size(), 2u);
  bool saw_border = false, saw_internal = false;
  for (const auto& g : gbs) {
    if (g.gbs == GBsId{5}) {
      saw_border = true;
      EXPECT_TRUE(g.is_border);
      EXPECT_EQ(g.attached_switch, abstraction.gswitch_id());
    }
    if (g.gbs == internal_gbs_id_for(ControllerId{3})) {
      saw_internal = true;
      EXPECT_FALSE(g.is_border);
      EXPECT_EQ(g.constituent_groups, std::vector<BsGroupId>{BsGroupId{6}});
    }
  }
  EXPECT_TRUE(saw_border);
  EXPECT_TRUE(saw_internal);
}

TEST_F(AbstractionFixture, ExposedGbsIdMapsBorderIdentityAndCollapsesInternal) {
  EXPECT_EQ(abstraction.exposed_gbs_id(GBsId{5}), GBsId{5});
  EXPECT_EQ(abstraction.exposed_gbs_id(GBsId{6}), internal_gbs_id_for(ControllerId{3}));
}

TEST_F(AbstractionFixture, ConstituentsFanOutForTheAggregate) {
  PortId agg_port;
  for (const auto& g : abstraction.exposed_gbs()) {
    if (!g.is_border) agg_port = g.attached_port;
  }
  auto fan = abstraction.constituents(agg_port);
  ASSERT_EQ(fan.size(), 1u);  // one internal group in this fixture
  EXPECT_EQ(fan[0], (Endpoint{SwitchId{1}, PortId{9}}));
  // Border ports map to their single endpoint.
  PortId border_port = *abstraction.to_exposed(Endpoint{SwitchId{1}, PortId{7}});
  EXPECT_EQ(abstraction.constituents(border_port).size(), 1u);
  EXPECT_TRUE(abstraction.constituents(PortId{999}).empty());
}

TEST_F(AbstractionFixture, GMiddleboxAggregatesPerType) {
  southbound::GMiddleboxAnnounce m1;
  m1.gmb = MiddleboxId{1};
  m1.type = dataplane::MiddleboxType::kFirewall;
  m1.total_capacity_kbps = 100;
  m1.utilization = 0.5;
  m1.attached_switch = SwitchId{1};
  m1.attached_port = PortId{1};
  southbound::GMiddleboxAnnounce m2 = m1;
  m2.gmb = MiddleboxId{2};
  m2.total_capacity_kbps = 300;
  m2.utilization = 0.1;
  nib.upsert_middlebox(m1);
  nib.upsert_middlebox(m2);
  abstraction.recompute();
  ASSERT_EQ(abstraction.exposed_gmbs().size(), 1u);
  const auto& agg = abstraction.exposed_gmbs()[0];
  EXPECT_DOUBLE_EQ(agg.total_capacity_kbps, 400);
  EXPECT_NEAR(agg.utilization, (100 * 0.5 + 300 * 0.1) / 400.0, 1e-12);
}

TEST_F(AbstractionFixture, DownCrossPortIsNotExposed) {
  nos::SwitchRecord s2 = *nib.sw(SwitchId{2});
  s2.ports[PortId{3}].up = false;
  nib.upsert_switch(s2);
  abstraction.recompute();
  for (const auto& p : abstraction.features().ports)
    EXPECT_NE(abstraction.to_local(p.port), (Endpoint{SwitchId{2}, PortId{3}}));
}

TEST_F(AbstractionFixture, StatsCountDiscoveredVsExposed) {
  auto stats = abstraction.stats();
  EXPECT_EQ(stats.switches, 2u);
  EXPECT_EQ(stats.ports, 6u);
  EXPECT_EQ(stats.total_ports, 6u);  // no access switches in this NIB
  EXPECT_EQ(stats.links, 1u);
  EXPECT_EQ(stats.exposed_ports, 4u);
}

}  // namespace
}  // namespace softmow::reca
