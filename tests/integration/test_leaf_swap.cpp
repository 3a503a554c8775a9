// A leaf swap — the §6 standby promotion after a controller crash, or the
// §5.3.2 flip that ends a live migration — rebinds the fresh leaf at the
// parent-link delay the management plane was bound with, and the fresh
// instance keeps the §6 hardening (self-healing, reliable delivery) the
// leaf it replaces had.
#include <gtest/gtest.h>

#include <memory>

#include "softmow/softmow.h"

namespace softmow {
namespace {

const sim::Duration kParentDelay = sim::Duration::millis(5);

class LeafSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario = topo::build_scenario(topo::small_scenario_params(11));
    mp = scenario->mgmt.get();
    engine = std::make_unique<sim::ShardedSimulator>(mp->natural_shard_count());
    mp->bind_shards(*engine, kParentDelay);
  }

  void TearDown() override { mp->unbind_shards(); }

  /// Sends one message from leaf `i` up to its parent from inside an engine
  /// event; it must arrive on the parent's shard exactly one bound delay
  /// after it left.
  void expect_parent_delay(std::size_t i) {
    reca::Controller* leaf = &mp->leaf(i);
    reca::Controller* parent = nullptr;
    for (reca::Controller* c : mp->all_controllers()) {
      if (c->child_by_gswitch(leaf->abstraction().gswitch_id()) == leaf) parent = c;
    }
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(parent->shard(), leaf->shard());

    // The handler outlives this call on the parent, so it writes fixture
    // members only.
    arrivals = 0;
    parent->register_child_app_handler(
        "delay-probe", [this, parent](SwitchId, const southbound::AppMessage&) {
          arrived = engine->now(parent->shard());
          arrival_shard = sim::ShardedSimulator::current_shard();
          ++arrivals;
        });
    engine->schedule(leaf->shard(), sim::Duration::millis(1), [this, leaf] {
      sent = engine->now(leaf->shard());
      southbound::AppMessage probe;
      probe.type = "delay-probe";
      leaf->reca().send_up(probe);
    });
    engine->run();

    ASSERT_EQ(arrivals, 1);
    EXPECT_EQ(arrival_shard, parent->shard());
    EXPECT_EQ(arrived - sent, kParentDelay);
  }

  std::unique_ptr<topo::Scenario> scenario;
  mgmt::ManagementPlane* mp = nullptr;
  std::unique_ptr<sim::ShardedSimulator> engine;
  sim::TimePoint sent;
  sim::TimePoint arrived;
  sim::ShardId arrival_shard = 0;
  int arrivals = 0;
};

TEST_F(LeafSwapTest, FailedOverLeafKeepsTheBoundParentDelay) {
  expect_parent_delay(0);
  const reca::Controller* crashed = &mp->leaf(0);

  faults::RecoveryCoordinator coord(*scenario);
  faults::FaultEvent crash;
  crash.at = sim::TimePoint::zero() + sim::Duration::minutes(1.0);
  crash.kind = faults::FaultKind::kControllerCrash;
  crash.leaf = 0;
  ASSERT_TRUE(coord.execute(crash).has_value());
  ASSERT_NE(&mp->leaf(0), crashed);

  expect_parent_delay(0);
}

TEST_F(LeafSwapTest, MigratedLeafKeepsTheBoundParentDelay) {
  expect_parent_delay(0);
  const reca::Controller* source = &mp->leaf(0);

  migrate::MigrationManager mgr(*scenario);
  ASSERT_TRUE(mgr.migrate_leaf(0, {"dc-east", sim::Duration::millis(6)}).ok());
  ASSERT_NE(&mp->leaf(0), source);

  expect_parent_delay(0);
}

TEST_F(LeafSwapTest, FailedOverLeafKeepsItsHardening) {
  faults::RecoveryCoordinator coord(*scenario);
  coord.harden();
  const reca::Controller* crashed = &mp->leaf(0);
  ASSERT_TRUE(crashed->self_healing());
  ASSERT_TRUE(crashed->reliable_delivery());

  faults::FaultEvent crash;
  crash.at = sim::TimePoint::zero() + sim::Duration::minutes(1.0);
  crash.kind = faults::FaultKind::kControllerCrash;
  crash.leaf = 0;
  ASSERT_TRUE(coord.execute(crash).has_value());
  ASSERT_NE(&mp->leaf(0), crashed);

  EXPECT_TRUE(mp->leaf(0).self_healing());
  EXPECT_TRUE(mp->leaf(0).reliable_delivery());
}

TEST_F(LeafSwapTest, MigratedLeafKeepsItsHardening) {
  reca::Controller* source = &mp->leaf(0);
  source->set_self_healing(true);
  source->set_reliable_delivery(true);

  migrate::MigrationManager mgr(*scenario);
  ASSERT_TRUE(mgr.migrate_leaf(0, {"dc-east", sim::Duration::millis(6)}).ok());
  ASSERT_NE(&mp->leaf(0), source);

  EXPECT_TRUE(mp->leaf(0).self_healing());
  EXPECT_TRUE(mp->leaf(0).reliable_delivery());
}

}  // namespace
}  // namespace softmow
