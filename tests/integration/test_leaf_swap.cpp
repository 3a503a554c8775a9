// A leaf swap — the §6 standby promotion after a controller crash, or the
// §5.3.2 flip that ends a live migration — is complete when the management
// plane returns: the fresh leaf is rebound at the parent-link delay the
// plane was bound with, keeps the §6 hardening (self-healing, reliable
// delivery), the tag allocator and the vFabric threshold of the leaf it
// replaces, serves the apps without a caller re-attaching them, inherits
// the outgoing instance's tag references, and translates the parent's
// resync of the rules it already holds exactly once.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

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

  /// A BS whose group is homed in leaf 0.
  BsId leaf0_bs() {
    for (const auto& region : scenario->partition.group_regions) {
      for (BsGroupId group : region) {
        if (mp->leaf_of_group(group) == &mp->leaf(0))
          return scenario->net.bs_group(group)->members.front();
      }
    }
    ADD_FAILURE() << "no base station homed in leaf 0";
    return BsId{};
  }

  /// Tags mode: two tenants with every subscriber's bearer open.
  std::unique_ptr<slice::SliceManager> tagged_tenants() {
    auto mgr = std::make_unique<slice::SliceManager>(*scenario, slice::SliceManager::Options{});
    for (const char* name : {"a", "b"}) {
      slice::SliceSpec spec;
      spec.name = name;
      SliceId id = *mgr->add_slice(spec);
      EXPECT_TRUE(mgr->provision(id, 4).ok());
      for (UeId ue : mgr->subscribers(id))
        EXPECT_TRUE(mgr->open_bearer(id, ue, PrefixId{17}).ok());
    }
    return mgr;
  }

  /// Live counts of the shared tag allocator.
  static std::vector<std::size_t> tag_counts(dataplane::TagAllocator& tags) {
    return {tags.ingress_aggregates(), tags.egress_aggregates(), tags.ingress_references(),
            tags.egress_references()};
  }

  /// The first leaf holding a tag aggregate.
  std::size_t tagged_leaf() {
    for (std::size_t i = 0; i < mp->leaf_count(); ++i)
      if (!mp->leaf(i).paths().aggregates().empty()) return i;
    ADD_FAILURE() << "no leaf holds a tag aggregate";
    return 0;
  }

  /// Opens new bearers for a subscriber homed in leaf `i`, to prefixes it
  /// has no bearer to yet; the first one the leaf serves itself must carry
  /// its slice's tag.
  void expect_new_bearer_tagged(slice::SliceManager& mgr, std::size_t i) {
    reca::Controller& leaf = mp->leaf(i);
    apps::MobilityApp& mobility = scenario->apps->mobility(leaf);
    for (SliceId id : mgr.slices()) {
      for (UeId ue : mgr.subscribers(id)) {
        if (mobility.ue(ue) == nullptr) continue;
        for (std::uint64_t dst = 21; dst <= 50; ++dst) {
          auto bearer = mgr.open_bearer(id, ue, PrefixId{dst});
          ASSERT_TRUE(bearer.ok());
          const apps::BearerRecord& rec = mobility.ue(ue)->bearers.at(*bearer);
          if (!rec.handled_locally) continue;
          const nos::InstalledPath* path = leaf.paths().path(rec.local_path);
          ASSERT_NE(path, nullptr);
          auto tag = dataplane::decode_tag(path->label.value);
          ASSERT_TRUE(tag.has_value());
          EXPECT_EQ(tag->slice, id);
          return;
        }
      }
    }
    FAIL() << "leaf " << i << " serves no new bearer itself";
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
  dataplane::TagAllocator tags;
  reca::Controller* crashed = &mp->leaf(0);
  crashed->set_tag_allocator(&tags);
  crashed->reca().set_vfabric_threshold(0.3);
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
  EXPECT_EQ(mp->leaf(0).tag_allocator(), &tags);
  EXPECT_EQ(mp->leaf(0).reca().vfabric_threshold(), 0.3);
}

TEST_F(LeafSwapTest, MigratedLeafKeepsItsHardening) {
  dataplane::TagAllocator tags;
  reca::Controller* source = &mp->leaf(0);
  source->set_self_healing(true);
  source->set_reliable_delivery(true);
  source->set_tag_allocator(&tags);
  source->reca().set_vfabric_threshold(0.3);

  migrate::MigrationManager mgr(*scenario);
  ASSERT_TRUE(mgr.migrate_leaf(0, {"dc-east", sim::Duration::millis(6)}).ok());
  ASSERT_NE(&mp->leaf(0), source);

  EXPECT_TRUE(mp->leaf(0).self_healing());
  EXPECT_TRUE(mp->leaf(0).reliable_delivery());
  EXPECT_EQ(mp->leaf(0).tag_allocator(), &tags);
  EXPECT_EQ(mp->leaf(0).reca().vfabric_threshold(), 0.3);
}

TEST_F(LeafSwapTest, DirectFailoverLeavesTheAppsAttached) {
  mgmt::HotStandby standby(mp->leaf(0), mp->hub());
  standby.sync();
  reca::Controller& fresh = mp->fail_over_leaf(0, standby);

  // No caller re-attached the apps: the swap did.
  apps::MobilityApp& mobility = scenario->apps->mobility(fresh);
  const BsId bs = leaf0_bs();
  const UeId ue{90201};
  ASSERT_TRUE(mobility.ue_attach(ue, bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = bs;
  request.dst_prefix = scenario->iplane->prefixes().front();
  EXPECT_TRUE(mobility.request_bearer(request).ok());
}

TEST_F(LeafSwapTest, FailedOverLeafInheritsItsTagReferences) {
  auto mgr = tagged_tenants();
  const std::size_t i = tagged_leaf();
  mgmt::HotStandby standby(mp->leaf(i), mp->hub());
  standby.sync();
  const std::vector<std::size_t> before = tag_counts(*mgr->tag_allocator());

  mp->fail_over_leaf(i, standby);
  EXPECT_EQ(tag_counts(*mgr->tag_allocator()), before);

  expect_new_bearer_tagged(*mgr, i);
  EXPECT_EQ(mp->verify_data_plane().isolation_violations(), 0u);
}

TEST_F(LeafSwapTest, MigratedLeafInheritsItsTagReferences) {
  auto mgr = tagged_tenants();
  const std::size_t i = tagged_leaf();
  const std::vector<std::size_t> before = tag_counts(*mgr->tag_allocator());

  migrate::MigrationManager migrations(*scenario);
  ASSERT_TRUE(migrations.migrate_leaf(i, {"dc-east", sim::Duration::millis(6)}).ok());
  EXPECT_EQ(tag_counts(*mgr->tag_allocator()), before);

  expect_new_bearer_tagged(*mgr, i);
  EXPECT_EQ(mp->verify_data_plane().isolation_violations(), 0u);
}

TEST(LeafSwapResync, FailedOverLeafKeepsOneTranslationOfTheParentsRules) {
  // Fewer egress points than leaves: a leaf without one delegates every
  // bearer, so its parent programs them onto the leaf's G-switch.
  topo::ScenarioParams params = topo::small_scenario_params();
  params.egress_points = 2;
  auto scenario = topo::build_scenario(params);
  mgmt::ManagementPlane& mp = *scenario->mgmt;
  const PrefixId prefix = scenario->iplane->prefixes().front();
  // Tags on: a sliced bearer rides its ancestor's tag aggregate, a plain one
  // a per-path label.
  slice::SliceManager slices(*scenario, slice::SliceManager::Options{});
  slice::SliceSpec spec;
  spec.name = "tenant";
  const SliceId tenant = *slices.add_slice(spec);

  // The first group whose leaf delegates a probe bearer.
  std::optional<BsGroupId> delegating;
  std::uint64_t next_ue = 91000;
  for (const auto& region : scenario->partition.group_regions) {
    for (BsGroupId group : region) {
      if (delegating) break;
      apps::MobilityApp& mobility = scenario->apps->leaf_mobility_of_group(group);
      apps::BearerRequest probe;
      probe.ue = UeId{next_ue++};
      probe.bs = scenario->net.bs_group(group)->members.front();
      probe.dst_prefix = prefix;
      ASSERT_TRUE(mobility.ue_attach(probe.ue, probe.bs).ok());
      auto bearer = mobility.request_bearer(probe);
      ASSERT_TRUE(bearer.ok()) << bearer.error().message;
      if (!mobility.ue(probe.ue)->bearers.at(*bearer).handled_locally) delegating = group;
      ASSERT_TRUE(mobility.ue_detach(probe.ue).ok());
    }
  }
  ASSERT_TRUE(delegating.has_value()) << "no leaf delegates its bearers";
  const std::size_t i = mp.leaf_index_of_group(*delegating);
  const std::size_t rules_before = scenario->net.total_rules();
  const std::size_t paths_before = mp.leaf(i).paths().paths().size();

  // One labelled and one tag-encapsulated bearer, both served by the parent.
  apps::BearerRequest labelled;
  labelled.bs = scenario->net.bs_group(*delegating)->members.front();
  labelled.dst_prefix = prefix;
  apps::BearerRequest tagged = labelled;
  tagged.slice = tenant;
  std::vector<UeId> ues;
  for (apps::BearerRequest request : {labelled, tagged}) {
    request.ue = UeId{next_ue++};
    apps::MobilityApp& mobility = scenario->apps->leaf_mobility_of_group(*delegating);
    ASSERT_TRUE(mobility.ue_attach(request.ue, request.bs).ok());
    auto bearer = mobility.request_bearer(request);
    ASSERT_TRUE(bearer.ok()) << bearer.error().message;
    ASSERT_FALSE(mobility.ue(request.ue)->bearers.at(*bearer).handled_locally);
    ues.push_back(request.ue);
  }
  bool parent_tags = false;
  for (reca::Controller* c : mp.all_controllers())
    parent_tags |= c->level() > 1 && !c->paths().aggregates().empty();
  ASSERT_TRUE(parent_tags) << "the sliced bearer rides a tag aggregate at the parent";

  mgmt::HotStandby standby(mp.leaf(i), mp.hub());
  const std::size_t paths = mp.leaf(i).paths().paths().size();
  const std::size_t rules = scenario->net.total_rules();
  ASSERT_GT(paths, paths_before);

  // The parent sees the promoted instance's G-switch Hello and re-sends
  // every rule it holds there.
  testing::internal::CaptureStderr();
  reca::Controller& fresh = mp.fail_over_leaf(i, standby);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_EQ(log.find("rejected flow-mod"), std::string::npos) << log;
  EXPECT_EQ(fresh.paths().paths().size(), paths);
  EXPECT_EQ(scenario->net.total_rules(), rules);

  // Tearing the bearers down through the promoted leaf leaves no rule.
  apps::MobilityApp& mobility = scenario->apps->leaf_mobility_of_group(*delegating);
  for (UeId ue : ues) ASSERT_TRUE(mobility.ue_detach(ue).ok());
  EXPECT_EQ(fresh.paths().paths().size(), paths_before);
  EXPECT_EQ(scenario->net.total_rules(), rules_before);
}

}  // namespace
}  // namespace softmow
