// The engine's one shard layout: bind_shards puts leaf i (its controller and
// the frame transit of its devices) on shard i, the mid level on the next
// shard and the root on the last, and it only accepts an engine of
// natural_shard_count() shards.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow {
namespace {

const sim::Duration kParentDelay = sim::Duration::millis(5);

void expect_natural_layout(mgmt::ManagementPlane& mp) {
  sim::ShardedSimulator engine(mp.natural_shard_count());
  mp.bind_shards(engine, kParentDelay);
  const std::size_t leaves = mp.leaf_count();
  for (std::size_t i = 0; i < leaves; ++i) {
    EXPECT_EQ(mp.leaf(i).shard(), i) << mp.leaf(i).name();
    for (SwitchId sw : mp.leaf(i).devices())
      EXPECT_EQ(mp.hub().owner_of(sw), i) << mp.leaf(i).name();
  }
  for (reca::Controller* mid : mp.mids()) EXPECT_EQ(mid->shard(), leaves) << mid->name();
  EXPECT_EQ(mp.root().shard(), engine.shard_count() - 1);
  mp.unbind_shards();
}

TEST(ShardLayout, TwoLevelPutsLeavesFirstAndTheRootLast) {
  auto scenario = topo::build_scenario(topo::small_scenario_params());
  mgmt::ManagementPlane& mp = *scenario->mgmt;
  ASSERT_TRUE(mp.mids().empty());
  EXPECT_EQ(mp.natural_shard_count(), mp.leaf_count() + 1);
  expect_natural_layout(mp);
}

TEST(ShardLayout, ThreeLevelPutsTheMidLevelBetweenLeavesAndRoot) {
  topo::ScenarioParams params = topo::small_scenario_params(5);
  params.regions = 4;
  params.with_mid_level = true;
  auto scenario = topo::build_scenario(std::move(params));
  mgmt::ManagementPlane& mp = *scenario->mgmt;
  ASSERT_FALSE(mp.mids().empty());
  EXPECT_EQ(mp.natural_shard_count(), mp.leaf_count() + 2);
  expect_natural_layout(mp);
}

TEST(ShardLayoutDeathTest, EngineOfAnotherShardCountIsRejected) {
  auto scenario = topo::build_scenario(topo::small_scenario_params());
  mgmt::ManagementPlane& mp = *scenario->mgmt;
  sim::ShardedSimulator engine(mp.natural_shard_count() + 1);
  EXPECT_DEBUG_DEATH(mp.bind_shards(engine, kParentDelay), "natural_shard_count");
  mp.unbind_shards();
}

}  // namespace
}  // namespace softmow
