#include <gtest/gtest.h>

#include "nos/nib.h"

namespace softmow::nos {
namespace {

southbound::PortDesc port(std::uint64_t id,
                          dataplane::PeerKind peer = dataplane::PeerKind::kSwitch) {
  southbound::PortDesc d;
  d.port = PortId{id};
  d.peer = peer;
  return d;
}

SwitchRecord make_switch(std::uint64_t id, std::size_t ports) {
  SwitchRecord rec;
  rec.id = SwitchId{id};
  for (std::uint64_t p = 1; p <= ports; ++p) rec.ports[PortId{p}] = port(p);
  return rec;
}

TEST(Nib, SwitchUpsertAndRemove) {
  Nib nib;
  nib.upsert_switch(make_switch(1, 3));
  nib.upsert_switch(make_switch(2, 2));
  EXPECT_EQ(nib.switch_count(), 2u);
  EXPECT_EQ(nib.total_ports(), 5u);
  ASSERT_NE(nib.sw(SwitchId{1}), nullptr);
  EXPECT_NE(nib.sw(SwitchId{1})->port(PortId{2}), nullptr);
  ASSERT_TRUE(nib.remove_switch(SwitchId{1}).ok());
  EXPECT_EQ(nib.sw(SwitchId{1}), nullptr);
}

TEST(Nib, LinkEndpointsNormalized) {
  Nib nib;
  Endpoint a{SwitchId{2}, PortId{1}};
  Endpoint b{SwitchId{1}, PortId{3}};
  nib.upsert_link(a, b, {});
  nib.upsert_link(b, a, {});  // same link, either order
  EXPECT_EQ(nib.links().size(), 1u);
  EXPECT_TRUE(nib.endpoint_linked(a));
  EXPECT_TRUE(nib.endpoint_linked(b));
  ASSERT_TRUE(nib.remove_link(a, b).ok());
  EXPECT_TRUE(nib.links().empty());
}

TEST(Nib, RemoveSwitchDropsItsLinks) {
  Nib nib;
  nib.upsert_switch(make_switch(1, 2));
  nib.upsert_switch(make_switch(2, 2));
  nib.upsert_link({SwitchId{1}, PortId{1}}, {SwitchId{2}, PortId{1}}, {});
  ASSERT_TRUE(nib.remove_switch(SwitchId{2}).ok());
  EXPECT_TRUE(nib.links().empty());
}

TEST(Nib, LinkUpDownByEndpoint) {
  Nib nib;
  Endpoint a{SwitchId{1}, PortId{1}}, b{SwitchId{2}, PortId{1}};
  nib.upsert_link(a, b, {});
  nib.set_links_at_up(a, false);
  EXPECT_FALSE(nib.links().front().up);
  EXPECT_TRUE(nib.set_link_up(a, b, true).ok());
  EXPECT_TRUE(nib.links().front().up);
  EXPECT_EQ(nib.set_link_up(a, {SwitchId{9}, PortId{1}}, true).code(),
            ErrorCode::kNotFound);
}

TEST(Nib, ReupsertingDownLinkBringsItUp) {
  Nib nib;
  Endpoint a{SwitchId{1}, PortId{1}}, b{SwitchId{2}, PortId{1}};
  nib.upsert_link(a, b, {});
  nib.set_links_at_up(a, false);
  nib.upsert_link(a, b, {});  // rediscovered: link is alive again
  EXPECT_TRUE(nib.links().front().up);
}

TEST(Nib, GbsWithdrawalRequiresOwnership) {
  Nib nib;
  southbound::GBsAnnounce g;
  g.gbs = GBsId{5};
  g.attached_switch = SwitchId{1};
  nib.upsert_gbs(g);
  // A withdrawal from a different G-switch must not remove the record.
  southbound::GBsAnnounce foreign;
  foreign.gbs = GBsId{5};
  foreign.withdrawn = true;
  foreign.attached_switch = SwitchId{2};
  nib.upsert_gbs(foreign);
  EXPECT_NE(nib.gbs(GBsId{5}), nullptr);
  // The owner's withdrawal works.
  southbound::GBsAnnounce own = foreign;
  own.attached_switch = SwitchId{1};
  nib.upsert_gbs(own);
  EXPECT_EQ(nib.gbs(GBsId{5}), nullptr);
}

TEST(Nib, MiddleboxByType) {
  Nib nib;
  southbound::GMiddleboxAnnounce m1;
  m1.gmb = MiddleboxId{1};
  m1.type = dataplane::MiddleboxType::kFirewall;
  southbound::GMiddleboxAnnounce m2;
  m2.gmb = MiddleboxId{2};
  m2.type = dataplane::MiddleboxType::kIds;
  nib.upsert_middlebox(m1);
  nib.upsert_middlebox(m2);
  EXPECT_EQ(nib.middleboxes().size(), 2u);
  EXPECT_EQ(nib.middleboxes_of_type(dataplane::MiddleboxType::kFirewall).size(), 1u);
  m1.withdrawn = true;
  nib.upsert_middlebox(m1);
  EXPECT_EQ(nib.middleboxes().size(), 1u);
}

TEST(Nib, ExternalRoutesDeduplicatePerEgressPrefix) {
  Nib nib;
  Endpoint egress{SwitchId{1}, PortId{2}};
  nib.upsert_external_route({egress, PrefixId{1}, 10, 100});
  nib.upsert_external_route({egress, PrefixId{1}, 12, 120});  // replaces
  nib.upsert_external_route({egress, PrefixId{2}, 9, 90});
  EXPECT_EQ(nib.external_route_count(), 2u);
  auto routes = nib.external_routes(PrefixId{1});
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_DOUBLE_EQ(routes[0].hops, 12);
  EXPECT_EQ(nib.all_external_routes().size(), 2u);
}

TEST(Nib, RouteChangesDoNotBumpTopologyVersion) {
  Nib nib;
  auto v = nib.version();
  nib.upsert_external_route({{SwitchId{1}, PortId{1}}, PrefixId{1}, 1, 1});
  EXPECT_EQ(nib.version(), v);
  nib.upsert_switch(make_switch(1, 1));
  EXPECT_GT(nib.version(), v);
}

TEST(Nib, SubscribersFireOnTopologyChange) {
  Nib nib;
  int fired = 0;
  nib.subscribe([&] { ++fired; });
  nib.upsert_switch(make_switch(1, 1));
  EXPECT_EQ(fired, 1);
  nib.upsert_link({SwitchId{1}, PortId{1}}, {SwitchId{2}, PortId{1}}, {});
  EXPECT_EQ(fired, 2);
}

TEST(Nib, ReservationsAreBandwidthChangesNotTopologyChanges) {
  Nib nib;
  nib.upsert_link({SwitchId{1}, PortId{1}}, {SwitchId{2}, PortId{1}},
                  EdgeMetrics{5000, 1, 1000});
  nib.upsert_link({SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}},
                  EdgeMetrics{5000, 1, 1000});
  int fired = 0;
  nib.subscribe([&] { ++fired; });
  const auto version = nib.version();
  const auto epoch = nib.bandwidth_epoch();

  ASSERT_TRUE(nib.reserve_link_bandwidth({SwitchId{2}, PortId{2}}, 400).ok());
  EXPECT_EQ(nib.bandwidth_epoch(), epoch + 1);
  EXPECT_EQ(nib.links()[1].bandwidth_epoch, nib.bandwidth_epoch());  // stamped
  EXPECT_LE(nib.links()[0].bandwidth_epoch, epoch);                   // untouched
  ASSERT_TRUE(nib.release_link_bandwidth({SwitchId{3}, PortId{1}}, 400).ok());
  EXPECT_EQ(nib.bandwidth_epoch(), epoch + 2);
  EXPECT_EQ(nib.links()[1].bandwidth_epoch, nib.bandwidth_epoch());
  // A refused reservation changes nothing.
  EXPECT_EQ(nib.reserve_link_bandwidth({SwitchId{1}, PortId{1}}, 5000).code(),
            ErrorCode::kExhausted);
  EXPECT_EQ(nib.bandwidth_epoch(), epoch + 2);

  EXPECT_EQ(nib.version(), version);
  EXPECT_EQ(fired, 0);
}

TEST(Nib, RediscoveryKeepsReservations) {
  Nib nib;
  const Endpoint a{SwitchId{1}, PortId{1}};
  const Endpoint b{SwitchId{2}, PortId{1}};
  nib.upsert_link(a, b, EdgeMetrics{5000, 1, 1000});
  ASSERT_TRUE(nib.reserve_link_bandwidth(a, 700).ok());
  // Discovery measures the full capacity again; the reservation stays.
  nib.upsert_link(b, a, EdgeMetrics{5000, 1, 1000});
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 300);
  EXPECT_DOUBLE_EQ(nib.links()[0].reserved_kbps, 700);
  // A capacity below the reservations floors the available bandwidth at 0.
  nib.upsert_link(a, b, EdgeMetrics{5000, 1, 500});
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 0);
  ASSERT_TRUE(nib.release_link_bandwidth(a, 700).ok());
  EXPECT_DOUBLE_EQ(nib.links()[0].reserved_kbps, 0);
  nib.upsert_link(a, b, EdgeMetrics{5000, 1, 1000});
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 1000);
}

TEST(Nib, UnchangedRediscoveryKeepsTheVersion) {
  Nib nib;
  const Endpoint a{SwitchId{1}, PortId{1}};
  const Endpoint b{SwitchId{2}, PortId{1}};
  nib.upsert_link(a, b, EdgeMetrics{5000, 1, 1000});
  ASSERT_TRUE(nib.reserve_link_bandwidth(a, 300).ok());
  int fired = 0;
  nib.subscribe([&] { ++fired; });
  auto version = nib.version();

  // Same latency, hops and (post-reservation) bandwidth, either end order.
  nib.upsert_link(b, a, EdgeMetrics{5000, 1, 1000});
  nib.upsert_link(a, b, EdgeMetrics{5000, 1, 1000});
  EXPECT_EQ(nib.version(), version);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 700);

  // A changed latency bumps it.
  nib.upsert_link(a, b, EdgeMetrics{6000, 1, 1000});
  EXPECT_GT(nib.version(), version);
  EXPECT_EQ(fired, 1);
  version = nib.version();

  // So does rediscovering a down link with unchanged metrics: it comes up.
  nib.set_links_at_up(a, false);
  version = nib.version();
  nib.upsert_link(a, b, EdgeMetrics{6000, 1, 1000});
  EXPECT_GT(nib.version(), version);
  EXPECT_TRUE(nib.links()[0].up);
  version = nib.version();

  // And a changed hop count or measured capacity.
  nib.upsert_link(a, b, EdgeMetrics{6000, 2, 1000});
  EXPECT_GT(nib.version(), version);
  version = nib.version();
  nib.upsert_link(a, b, EdgeMetrics{6000, 2, 900});
  EXPECT_GT(nib.version(), version);
  EXPECT_DOUBLE_EQ(nib.links()[0].metrics.bandwidth_kbps, 600);
}

TEST(Nib, SetVfabricOnUnknownSwitchFails) {
  Nib nib;
  EXPECT_EQ(nib.set_vfabric(SwitchId{9}, {}).code(), ErrorCode::kNotFound);
  nib.upsert_switch(make_switch(9, 1));
  EXPECT_TRUE(nib.set_vfabric(SwitchId{9}, {southbound::VFabricEntry{}}).ok());
  EXPECT_EQ(nib.sw(SwitchId{9})->vfabric.size(), 1u);
}

}  // namespace
}  // namespace softmow::nos
