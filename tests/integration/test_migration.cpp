// Live leaf migration (src/migrate) end to end: a bearer keeps delivering
// through every phase of a planned re-homing — snapshot, dual-control
// catch-up, flip, drain — with zero rule churn and a clean verifier; an
// abort mid-catch-up rolls back completely; every illegal transition returns
// a typed error; and the continuous re-homing loop moves hot leaves out and
// cold leaves back.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow {
namespace {

using dataplane::DeliveryReport;

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario = topo::build_scenario(topo::small_scenario_params());
    mp = scenario->mgmt.get();
    prefix = scenario->iplane->prefixes().front();
    for (const auto& region : scenario->partition.group_regions) {
      for (BsGroupId group : region) {
        if (mp->leaf_of_group(group) != &mp->leaf(0)) continue;
        const auto* bs_group = scenario->net.bs_group(group);
        if (bs_group == nullptr || bs_group->members.empty()) continue;
        bs = bs_group->members.front();
        ASSERT_TRUE(attach(ue));
        return;
      }
    }
    FAIL() << "no base station homed in leaf 0";
  }

  /// Attaches `u` at the probe BS and sets up a bearer to the external
  /// prefix — always through whatever instance currently *is* leaf 0.
  [[nodiscard]] bool attach(UeId u) {
    auto& mobility = scenario->apps->mobility(mp->leaf(0));
    if (!mobility.ue_attach(u, bs).ok()) return false;
    apps::BearerRequest request;
    request.ue = u;
    request.bs = bs;
    request.dst_prefix = prefix;
    return mobility.request_bearer(request).ok();
  }

  DeliveryReport send(UeId u) {
    Packet pkt;
    pkt.ue = u;
    pkt.dst_prefix = prefix;
    return scenario->net.inject_uplink(pkt, bs);
  }

  std::unique_ptr<topo::Scenario> scenario;
  mgmt::ManagementPlane* mp = nullptr;
  UeId ue{90101};
  BsId bs{};
  PrefixId prefix{};
};

TEST_F(MigrationTest, BearerServesThroughEveryPhaseOfPlannedMigration) {
  ASSERT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);

  migrate::MigrationManager mgr(*scenario);
  ASSERT_TRUE(mgr.begin(0, {"dc-east", sim::Duration::millis(6)}).ok());
  ASSERT_TRUE(mgr.stream_snapshot().ok());
  EXPECT_EQ(mgr.phase(), migrate::Phase::kCatchUp);
  // Dual-control window: the source still serves the data plane...
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  // ...and keeps accepting control-plane work — a bearer set up mid-window
  // is exactly the in-flight state catch-up must carry to the target.
  UeId ue_mid{90102};
  ASSERT_TRUE(attach(ue_mid));
  EXPECT_EQ(send(ue_mid).outcome, DeliveryReport::Outcome::kExternal);

  while (!mgr.ready_to_flip()) ASSERT_TRUE(mgr.catch_up().ok());
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);

  ASSERT_TRUE(mgr.flip().ok());
  EXPECT_EQ(mgr.phase(), migrate::Phase::kDrain);
  // Zero bearer loss: both flows deliver immediately after the flip, before
  // the source is even retired.
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_EQ(send(ue_mid).outcome, DeliveryReport::Outcome::kExternal);

  ASSERT_TRUE(mgr.drain().ok());
  EXPECT_EQ(mgr.phase(), migrate::Phase::kIdle);
  EXPECT_EQ(mgr.completed(), 1u);

  // The fresh instance answers the same ControllerId, holds master on every
  // device, and the placement bookkeeping moved.
  reca::Controller& fresh = mp->leaf(0);
  for (SwitchId sw : fresh.devices())
    EXPECT_EQ(scenario->net.sw(sw)->master().value_or(ControllerId{}), fresh.id());
  EXPECT_EQ(mp->leaf_placement(0).site, "dc-east");

  // Post-flip the control plane is fully operational: old bearers deliver, a
  // brand-new bearer sets up through the migrated leaf, and the static
  // verifier finds nothing.
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_EQ(send(ue_mid).outcome, DeliveryReport::Outcome::kExternal);
  UeId ue_after{90103};
  ASSERT_TRUE(attach(ue_after));
  EXPECT_EQ(send(ue_after).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_TRUE(mp->verify_data_plane().clean());

  const migrate::MigrationRecord& rec = mgr.records().back();
  EXPECT_EQ(rec.final_phase, migrate::Phase::kDone);
  EXPECT_GT(rec.devices, 0u);
  EXPECT_GT(rec.bytes_snapshot, 0u);
  EXPECT_GT(rec.disruption_ms, 0.0);
  // Disruption is only the flip window — strictly less than the whole cycle.
  EXPECT_LT(rec.disruption_ms, rec.total_ms());
}

TEST_F(MigrationTest, AbortMidCatchUpRollsBackCompletely) {
  migrate::MigrationManager mgr(*scenario);
  ASSERT_TRUE(mgr.begin(0, {"dc-west", sim::Duration::millis(9)}).ok());
  ASSERT_TRUE(mgr.stream_snapshot().ok());
  ASSERT_TRUE(mgr.catch_up().ok());  // first round parks standby sessions

  std::vector<SwitchId> devices = mp->leaf(0).devices();
  ASSERT_FALSE(devices.empty());
  for (SwitchId sw : devices)
    EXPECT_TRUE(mp->hub().agent(sw)->has_standby(mp->leaf(0).id())) << sw.value;

  ASSERT_TRUE(mgr.abort("drill").ok());
  EXPECT_EQ(mgr.phase(), migrate::Phase::kIdle);
  EXPECT_EQ(mgr.aborted(), 1u);
  EXPECT_EQ(mgr.records().back().final_phase, migrate::Phase::kAborted);

  // Rollback is total: parked sessions dropped, the source never lost its
  // role or its placement, and traffic still flows.
  for (SwitchId sw : devices) {
    EXPECT_FALSE(mp->hub().agent(sw)->has_standby(mp->leaf(0).id())) << sw.value;
    EXPECT_EQ(scenario->net.sw(sw)->master().value_or(ControllerId{}), mp->leaf(0).id());
  }
  EXPECT_EQ(mp->leaf_placement(0).site, "core");
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_TRUE(mp->verify_data_plane().clean());

  // The drill left nothing behind: a real migration succeeds afterwards.
  auto rec = mgr.migrate_leaf(0, {"dc-east", sim::Duration::millis(6)});
  ASSERT_TRUE(rec.ok()) << rec.error();
  EXPECT_EQ(rec->final_phase, migrate::Phase::kDone);
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
}

TEST_F(MigrationTest, EveryIllegalTransitionReturnsTypedConflict) {
  migrate::MigrationManager mgr(*scenario);

  {
    auto r = mgr.begin(999, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  }
  // No cycle in flight: every phase verb is a conflict, not a crash.
  EXPECT_EQ(mgr.stream_snapshot().code(), ErrorCode::kConflict);
  EXPECT_EQ(mgr.catch_up().code(), ErrorCode::kConflict);
  EXPECT_EQ(mgr.flip().code(), ErrorCode::kConflict);
  EXPECT_EQ(mgr.drain().code(), ErrorCode::kConflict);
  EXPECT_EQ(mgr.abort("x").code(), ErrorCode::kConflict);
  EXPECT_FALSE(mgr.ready_to_flip());

  ASSERT_TRUE(mgr.begin(0, {"dc", sim::Duration::millis(5)}).ok());
  EXPECT_EQ(mgr.begin(1, {}).code(), ErrorCode::kConflict);  // one at a time
  EXPECT_EQ(mgr.flip().code(), ErrorCode::kConflict);        // no snapshot yet

  ASSERT_TRUE(mgr.stream_snapshot().ok());
  EXPECT_EQ(mgr.stream_snapshot().code(), ErrorCode::kConflict);  // double stream
  EXPECT_EQ(mgr.flip().code(), ErrorCode::kConflict);  // target not caught up

  while (!mgr.ready_to_flip()) ASSERT_TRUE(mgr.catch_up().ok());
  EXPECT_EQ(mgr.catch_up().code(), ErrorCode::kConflict);  // window closed
  ASSERT_TRUE(mgr.flip().ok());
  // Past the point of no return: the flip happened, abort must refuse.
  EXPECT_EQ(mgr.abort("late").code(), ErrorCode::kConflict);
  ASSERT_TRUE(mgr.drain().ok());
  EXPECT_EQ(mgr.completed(), 1u);
}

TEST_F(MigrationTest, ContinuousRehomingMovesHotOutAndColdBack) {
  migrate::MigrationManager mgr(*scenario);
  migrate::ContinuousRehoming loop(*scenario, mgr);

  {
    auto r = loop.step({1.0}, sim::TimePoint::zero());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  }

  const std::size_t n = mp->leaf_count();
  ASSERT_GE(n, 2u);
  // Window 1: leaf 1 runs far above the mean — it re-homes to its local site.
  std::vector<double> hot(n, 1.0);
  hot[1] = 10.0;
  auto moves = loop.step(hot, sim::TimePoint::zero() + sim::Duration::minutes(1));
  ASSERT_TRUE(moves.ok()) << moves.error();
  EXPECT_EQ(*moves, 1u);
  EXPECT_EQ(mp->leaf_placement(1).site, "site-" + mp->leaf(1).name());

  // Window 2: the surge passed — the now-cold leaf consolidates back to core
  // (everyone else stays inside the hot/cold band and does not move).
  std::vector<double> cool(n, 2.0);
  cool[1] = 0.5;
  auto back = loop.step(cool, sim::TimePoint::zero() + sim::Duration::minutes(2));
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(*back, 1u);
  EXPECT_EQ(mp->leaf_placement(1).site, "core");

  EXPECT_EQ(loop.steps(), 2u);
  EXPECT_EQ(loop.rehomings(), 2u);
  EXPECT_EQ(mgr.completed(), 2u);
  // Two live re-homings later the data plane never noticed.
  EXPECT_EQ(send(ue).outcome, DeliveryReport::Outcome::kExternal);
  EXPECT_TRUE(mp->verify_data_plane().clean());

  // A rehoming step while a manual cycle is in flight must refuse.
  ASSERT_TRUE(mgr.begin(0, {"dc", sim::Duration::millis(5)}).ok());
  EXPECT_EQ(loop.step(cool, sim::TimePoint::zero()).code(), ErrorCode::kConflict);
  ASSERT_TRUE(mgr.abort("cleanup").ok());
}

}  // namespace
}  // namespace softmow
