// Shared checkpoint format (mgmt/checkpoint.h): full capture/restore, the
// priced sync, and the HotStandby consumer. The same format feeds crash
// failover and planned migration, so these tests pin down what both rely
// on: a sync against an empty checkpoint costs the whole capture, an
// unchanged controller costs only the fixed header, and an erased path
// costs one removal record. Bearer churn leaves only live paths in the
// book, and a standby sync stores only those.
#include "mgmt/checkpoint.h"

#include <gtest/gtest.h>

#include "mgmt/failover.h"
#include "softmow/softmow.h"

namespace softmow {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario = topo::build_scenario(topo::small_scenario_params());
    mp = scenario->mgmt.get();
    prefix = scenario->iplane->prefixes().front();
    // A BS homed in leaf 0, for mutating the leaf's path book mid-test.
    for (const auto& region : scenario->partition.group_regions) {
      for (BsGroupId group : region) {
        if (mp->leaf_of_group(group) != &mp->leaf(0)) continue;
        const auto* bs_group = scenario->net.bs_group(group);
        if (bs_group == nullptr || bs_group->members.empty()) continue;
        bs = bs_group->members.front();
        return;
      }
    }
    FAIL() << "no base station homed in leaf 0";
  }

  /// Installs one fresh bearer through leaf 0 — new paths, new labels, new
  /// cookies: every allocator and the path book move.
  void add_bearer(std::uint64_t ue_value) {
    auto& mobility = scenario->apps->mobility(mp->leaf(0));
    UeId ue{ue_value};
    ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
    apps::BearerRequest request;
    request.ue = ue;
    request.bs = bs;
    request.dst_prefix = prefix;
    ASSERT_TRUE(mobility.request_bearer(request).ok());
  }

  std::unique_ptr<topo::Scenario> scenario;
  mgmt::ManagementPlane* mp = nullptr;
  BsId bs{};
  PrefixId prefix{};
};

TEST_F(CheckpointTest, RestoreReproducesNonDerivableState) {
  reca::Controller& source = mp->leaf(0);
  add_bearer(70001);
  mgmt::Checkpoint ckpt;
  EXPECT_GT(ckpt.sync(source).bytes, 0u);
  EXPECT_FALSE(ckpt.devices.empty());

  reca::Controller restored(source.id(), 1, source.name(), mp->label_mode());
  mgmt::restore_checkpoint(restored, ckpt);

  auto src_gbs = source.nib().gbs_list();
  auto dst_gbs = restored.nib().gbs_list();
  EXPECT_EQ(std::vector<GBsId>(src_gbs.begin(), src_gbs.end()),
            std::vector<GBsId>(dst_gbs.begin(), dst_gbs.end()));
  EXPECT_EQ(restored.nib().external_route_count(), source.nib().external_route_count());
  // Devices are deliberately NOT adopted by restore — failover seizes them
  // as master, migration pre-warms them as parked standbys.
  EXPECT_TRUE(restored.devices().empty());
}

TEST_F(CheckpointTest, UnchangedMasterCostsOnlyTheHeader) {
  reca::Controller& source = mp->leaf(0);
  mgmt::Checkpoint ckpt;
  mgmt::SyncCost first = ckpt.sync(source);
  EXPECT_TRUE(first.changed);
  mgmt::SyncCost again = ckpt.sync(source);
  EXPECT_FALSE(again.changed);
  // The fixed header (64) and the allocator cursors (24) ride every sync.
  EXPECT_EQ(again.bytes, 64u + 24u);
  EXPECT_LT(again.bytes, first.bytes);
}

TEST_F(CheckpointTest, ErasedPathsCostARemovalRecordEach) {
  reca::Controller& source = mp->leaf(0);
  add_bearer(70002);
  mgmt::Checkpoint ckpt;
  (void)ckpt.sync(source);
  std::vector<PathId> held = source.paths().paths();
  ASSERT_FALSE(held.empty());

  // Detaching the UE tears its bearer down: its paths leave the book, and
  // nothing else in the checkpoint moves.
  ASSERT_TRUE(scenario->apps->mobility(source).ue_detach(UeId{70002}).ok());
  std::size_t erased = 0;
  for (PathId id : held) erased += source.paths().path(id) == nullptr ? 1 : 0;
  ASSERT_GT(erased, 0u);
  mgmt::SyncCost cost = ckpt.sync(source);
  EXPECT_TRUE(cost.changed);
  EXPECT_EQ(cost.bytes, 64u + 24u + 8u * erased);
  std::vector<PathId> stored;
  for (const auto& [id, path] : ckpt.paths.paths) stored.push_back(id);
  EXPECT_EQ(stored, source.paths().paths());
}

TEST_F(CheckpointTest, HotStandbySyncsShrinkToTheChangeRate) {
  reca::Controller& source = mp->leaf(0);
  // Construction performs the first sync: the whole state crosses the wire.
  mgmt::HotStandby standby(source, mp->hub());
  EXPECT_EQ(standby.checkpoints(), 1u);
  std::uint64_t full_bytes = standby.last_sync_bytes();
  EXPECT_EQ(full_bytes, mgmt::Checkpoint{}.sync(source).bytes);

  add_bearer(70020);
  standby.sync();
  EXPECT_EQ(standby.checkpoints(), 2u);
  // The second sync ships only what changed, not the full state.
  EXPECT_GT(standby.last_sync_bytes(), 0u);
  EXPECT_LT(standby.last_sync_bytes(), full_bytes);
  // The stored checkpoint is the master's current state.
  mgmt::Checkpoint stored = standby.checkpoint();
  EXPECT_FALSE(stored.sync(source).changed);
}

TEST_F(CheckpointTest, StandbyPromotedFromDeltaSyncedCheckpointMatchesMaster) {
  reca::Controller& source = mp->leaf(0);
  mgmt::HotStandby standby(source, mp->hub());
  standby.sync();
  add_bearer(70030);
  standby.sync();  // a priced re-sync — promotion must see the post-change state

  std::size_t routes = source.nib().external_route_count();
  auto gbs_view = source.nib().gbs_list();
  std::vector<GBsId> gbs(gbs_view.begin(), gbs_view.end());

  auto promoted = standby.promote();
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(promoted->id(), source.id());
  EXPECT_EQ(promoted->nib().external_route_count(), routes);
  auto promoted_gbs = promoted->nib().gbs_list();
  EXPECT_EQ(std::vector<GBsId>(promoted_gbs.begin(), promoted_gbs.end()), gbs);
}

/// Paths in `c`'s book that own no rule (none, when the book holds only
/// live paths: a tagged path owns its classifier).
std::size_t paths_without_rules(reca::Controller& c) {
  std::size_t n = 0;
  for (PathId id : c.paths().paths()) n += c.paths().path(id)->rules.empty() ? 1 : 0;
  return n;
}

TEST(CheckpointPathBook, BearerChurnLeavesOnlyLivePathsAndTheStandbyShipsRemovals) {
  // Fewer egress points than leaves: a leaf without one delegates every
  // bearer to an ancestor.
  topo::ScenarioParams params = topo::small_scenario_params();
  params.egress_points = 2;
  auto scenario = topo::build_scenario(params);
  mgmt::ManagementPlane& mp = *scenario->mgmt;
  const PrefixId prefix = scenario->iplane->prefixes().front();
  // Tags on, so a sliced GBR bearer classifies onto a shared aggregate.
  slice::SliceManager slices(*scenario, slice::SliceManager::Options{});
  slice::SliceSpec spec;
  spec.name = "gbr";
  const SliceId tenant = *slices.add_slice(spec);

  // A BS whose bearers stay leaf-local and one whose bearers are delegated.
  std::optional<BsId> local_bs, delegated_bs;
  std::uint64_t next_ue = 80000;
  for (const auto& region : scenario->partition.group_regions) {
    for (BsGroupId group : region) {
      BsId bs = scenario->net.bs_group(group)->members.front();
      auto& mobility = scenario->apps->leaf_mobility_of_group(group);
      UeId probe{next_ue++};
      ASSERT_TRUE(mobility.ue_attach(probe, bs).ok());
      apps::BearerRequest request;
      request.ue = probe;
      request.bs = bs;
      request.dst_prefix = prefix;
      auto bearer = mobility.request_bearer(request);
      ASSERT_TRUE(bearer.ok()) << bearer.error().message;
      bool local = mobility.ue(probe)->bearers.at(*bearer).handled_locally;
      (local ? local_bs : delegated_bs) = bs;
      ASSERT_TRUE(mobility.ue_detach(probe).ok());
    }
  }
  ASSERT_TRUE(local_bs && delegated_bs);
  reca::Controller& leaf = *mp.leaf_of_group(scenario->net.base_station(*local_bs)->group);

  apps::BearerRequest local;
  local.bs = *local_bs;
  local.dst_prefix = prefix;
  apps::BearerRequest delegated = local;
  delegated.bs = *delegated_bs;
  apps::BearerRequest gbr = local;
  gbr.slice = tenant;
  gbr.qos.min_bandwidth_kbps = 1000;
  const std::vector<apps::BearerRequest> kinds{local, delegated, gbr};

  std::map<reca::Controller*, std::size_t> baseline;
  for (reca::Controller* c : mp.all_controllers()) baseline[c] = c->paths().paths().size();

  // One bearer of each kind, each for a fresh UE at the kind's BS.
  auto open = [&]() {
    std::vector<std::pair<apps::MobilityApp*, UeId>> ues;
    for (apps::BearerRequest request : kinds) {
      request.ue = UeId{next_ue++};
      auto& mobility = scenario->apps->leaf_mobility_of_group(
          scenario->net.base_station(request.bs)->group);
      EXPECT_TRUE(mobility.ue_attach(request.ue, request.bs).ok());
      auto bearer = mobility.request_bearer(request);
      EXPECT_TRUE(bearer.ok()) << bearer.error().message;
      ues.emplace_back(&mobility, request.ue);
    }
    EXPECT_FALSE(leaf.paths().aggregates().empty()) << "the GBR bearer rides a tag";
    return ues;
  };

  // The standby's base holds the first set of bearers' paths, live.
  auto held = open();
  mgmt::HotStandby standby(leaf, mp.hub());
  std::vector<PathId> base_paths;
  for (const auto& [id, path] : standby.checkpoint().paths.paths) base_paths.push_back(id);
  ASSERT_GT(base_paths.size(), baseline[&leaf]);
  for (auto [mobility, ue] : held) ASSERT_TRUE(mobility->ue_detach(ue).ok());

  // Churn: every cycle sets the three kinds up, takes every other set
  // through idle/active, and tears everything down again.
  for (int i = 0; i < 20; ++i) {
    auto ues = open();
    if (i % 2 == 0) {
      for (auto [mobility, ue] : ues) ASSERT_TRUE(mobility->ue_idle(ue).ok());
      for (auto [mobility, ue] : ues) ASSERT_TRUE(mobility->ue_active(ue).ok());
    }
    for (auto [mobility, ue] : ues) ASSERT_TRUE(mobility->ue_detach(ue).ok());
  }

  for (reca::Controller* c : mp.all_controllers()) {
    EXPECT_EQ(c->paths().paths().size(), baseline[c]) << c->name();
    EXPECT_EQ(paths_without_rules(*c), 0u) << c->name();
  }

  // The next sync drops every base path that went away, each priced as a
  // removal record.
  std::size_t gone = 0;
  for (PathId id : base_paths) gone += leaf.paths().path(id) == nullptr ? 1 : 0;
  EXPECT_GT(gone, 0u);
  standby.sync();
  EXPECT_GE(standby.last_sync_bytes(), 64u + 24u + 8u * gone);
  std::vector<PathId> stored;
  for (const auto& [id, path] : standby.checkpoint().paths.paths) {
    stored.push_back(id);
    EXPECT_FALSE(path.rules.empty()) << id.str();
  }
  EXPECT_EQ(stored, leaf.paths().paths());
  mgmt::Checkpoint resync = standby.checkpoint();
  EXPECT_FALSE(resync.sync(leaf).changed);
}

}  // namespace
}  // namespace softmow
