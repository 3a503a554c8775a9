// Three-level hierarchy (leaves -> level-2 parents -> root, as in Figure 1):
// recursive discovery across all levels, delegation resolving at the lowest
// capable level, handovers mediated by the lowest common ancestor, and the
// single-label invariant across multi-level translated paths.
#include <gtest/gtest.h>

#include <set>

#include "softmow/softmow.h"

namespace softmow {
namespace {

class ThreeLevelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo::ScenarioParams params = topo::small_scenario_params(5);
    params.regions = 4;
    params.with_mid_level = true;  // {0,1} under parent-0, {2,3} under parent-1
    scenario_ = topo::build_scenario(std::move(params)).release();
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  topo::Scenario& scenario() { return *scenario_; }
  mgmt::ManagementPlane& mp() { return *scenario_->mgmt; }
  static topo::Scenario* scenario_;
};

topo::Scenario* ThreeLevelTest::scenario_ = nullptr;

TEST_F(ThreeLevelTest, HierarchyShape) {
  EXPECT_EQ(mp().root().level(), 3);
  ASSERT_EQ(mp().mids().size(), 2u);
  for (reca::Controller* mid : mp().mids()) {
    EXPECT_EQ(mid->level(), 2);
    EXPECT_EQ(mid->children().size(), 2u);
    EXPECT_EQ(mid->nib().switch_count(), 2u);  // two leaf G-switches
  }
  EXPECT_EQ(mp().root().nib().switch_count(), 2u);  // two mid G-switches
}

TEST_F(ThreeLevelTest, DiscoveryPartitionsLinksAcrossThreeLevels) {
  // Every physical link is discovered by exactly one controller: the lowest
  // one that sees both endpoints (DESIGN.md invariant 2).
  std::size_t total = 0;
  for (reca::Controller* c : mp().all_controllers()) total += c->nib().links().size();
  EXPECT_EQ(total, scenario().net.links().size());
  // The root only sees links between its two mid-level G-switches.
  for (const nos::LinkRecord& link : mp().root().nib().links()) {
    EXPECT_TRUE(reca::is_gswitch_id(link.a.sw));
    EXPECT_TRUE(reca::is_gswitch_id(link.b.sw));
  }
}

TEST_F(ThreeLevelTest, MidLevelAbstractionReexposesBorders) {
  for (reca::Controller* mid : mp().mids()) {
    mid->abstraction().refresh();
    const auto& features = mid->abstraction().features();
    EXPECT_TRUE(features.is_gswitch);
    EXPECT_GT(features.ports.size(), 0u);
    // The mid hides everything internal to its two leaves.
    std::size_t child_exposed = 0;
    for (reca::Controller* leaf : mid->children())
      child_exposed += leaf->abstraction().features().ports.size();
    EXPECT_LT(features.ports.size(), child_exposed);
  }
}

TEST_F(ThreeLevelTest, RootPathKeepsSingleLabelAcrossThreeLevels) {
  // Find a bearer that must be served above level 1 (prefix reachable, leaf
  // cannot see all egresses) and verify delivery + the §4.3 invariant.
  auto& mp_ref = mp();
  for (BsGroupId group : scenario().trace.groups) {
    reca::Controller* leaf = mp_ref.leaf_of_group(group);
    auto& mobility = scenario().apps->mobility(*leaf);
    BsId bs = scenario().net.bs_group(group)->members.front();
    UeId ue{4000 + group.value};
    if (!mobility.ue_attach(ue, bs).ok()) continue;
    apps::BearerRequest request;
    request.ue = ue;
    request.bs = bs;
    request.dst_prefix = PrefixId{group.value % 50};
    auto bearer = mobility.request_bearer(request);
    if (!bearer.ok()) continue;
    const apps::BearerRecord& rec = mobility.ue(ue)->bearers.at(*bearer);
    if (rec.handled_level < 2) continue;  // want a translated multi-level path

    Packet pkt;
    pkt.ue = ue;
    pkt.dst_prefix = request.dst_prefix;
    auto report = scenario().net.inject_uplink(pkt, bs);
    ASSERT_EQ(report.outcome, dataplane::DeliveryReport::Outcome::kExternal);
    EXPECT_LE(report.packet.max_depth_seen(), 1u);
    SUCCEED();
    return;
  }
  GTEST_SKIP() << "no multi-level bearer in this seed";
}

TEST_F(ThreeLevelTest, HandoverMediatedByLowestCommonAncestor) {
  auto& mp_ref = mp();
  // A cross-leaf, same-mid adjacency edge: the mid is the common ancestor.
  BsGroupId src, dst;
  bool same_mid_found = false;
  for (const auto& [key, w] : scenario().trace.group_adjacency.edges()) {
    std::size_t la = mp_ref.leaf_index_of_group(key.first);
    std::size_t lb = mp_ref.leaf_index_of_group(key.second);
    if (la == lb) continue;
    if (mp_ref.mid_index_of_leaf(la) == mp_ref.mid_index_of_leaf(lb)) {
      src = key.first;
      dst = key.second;
      same_mid_found = true;
      break;
    }
  }
  if (!same_mid_found) GTEST_SKIP() << "no same-mid cross-leaf adjacency in this seed";

  std::size_t mid_index = mp_ref.mid_index_of_leaf(mp_ref.leaf_index_of_group(src));
  reca::Controller* mid = mp_ref.mids()[mid_index];
  auto& mid_mobility = scenario().apps->mobility(*mid);
  auto& root_mobility = scenario().apps->mobility(mp_ref.root());
  auto mid_before = mid_mobility.stats().inter_region_handled;
  auto root_before = root_mobility.stats().inter_region_handled;

  auto& mobility = scenario().apps->mobility(*mp_ref.leaf_of_group(src));
  UeId ue{7001};
  ASSERT_TRUE(mobility.ue_attach(ue, scenario().net.bs_group(src)->members.front()).ok());
  ASSERT_TRUE(mobility.handover(ue, scenario().net.bs_group(dst)->members.front()).ok());

  // §5.2: the request stops at the lowest common ancestor — the mid, not
  // the root.
  EXPECT_EQ(mid_mobility.stats().inter_region_handled, mid_before + 1);
  EXPECT_EQ(root_mobility.stats().inter_region_handled, root_before);
}

/// Interdomain routes for one prefix at a fixed set of egresses only.
struct EgressSubsetProvider : apps::ExternalPathProvider {
  PrefixId prefix;
  std::set<EgressId> egresses;
  std::vector<PrefixId> prefixes() const override { return {prefix}; }
  std::optional<apps::ExternalCost> cost(EgressId e, PrefixId p) const override {
    if (p != prefix || egresses.count(e) == 0) return std::nullopt;
    return apps::ExternalCost{3, 5000};
  }
};

TEST_F(ThreeLevelTest, MidHandoverClimbsRootBearerFromExposedGbs) {
  // A same-mid, cross-leaf handover into a group internal to the mid (not
  // one of its border G-BSes), of a UE whose bearer only the root can serve:
  // its prefix is routable only through egresses under the other mid. The
  // mid cannot re-serve the bearer from the target and climbs; the root
  // knows the target only by the mid's exposed ID (its internal aggregate),
  // so the climb must name it in that space (§5.1) or the bearer is lost.
  auto& mp_ref = mp();
  BsGroupId src, dst;
  bool found = false;
  for (const auto& [key, w] : scenario().trace.group_adjacency.edges()) {
    for (auto [a, b] : {std::pair{key.first, key.second}, std::pair{key.second, key.first}}) {
      std::size_t la = mp_ref.leaf_index_of_group(a);
      std::size_t lb = mp_ref.leaf_index_of_group(b);
      if (found || la == lb || mp_ref.mid_index_of_leaf(la) != mp_ref.mid_index_of_leaf(lb))
        continue;
      reca::Controller* mid = mp_ref.mids()[mp_ref.mid_index_of_leaf(la)];
      if (mid->abstraction().dirty()) mid->refresh_abstraction();
      if (mid->abstraction().border_gbs().contains(mgmt::gbs_id_for_group(b))) continue;
      src = a;
      dst = b;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no same-mid handover into a mid-internal group in this seed";

  std::size_t mid_index = mp_ref.mid_index_of_leaf(mp_ref.leaf_index_of_group(src));
  EgressSubsetProvider provider;
  provider.prefix = PrefixId{900};
  for (reca::Controller* leaf : mp_ref.mids()[1 - mid_index]->children()) {
    for (SwitchId sw : leaf->nib().switches()) {
      for (const auto& [pid, desc] : leaf->nib().sw(sw)->ports) {
        if (desc.peer == dataplane::PeerKind::kExternal && desc.egress.valid())
          provider.egresses.insert(desc.egress);
      }
    }
  }
  ASSERT_FALSE(provider.egresses.empty());
  scenario().apps->originate_interdomain(provider);

  auto& source = scenario().apps->mobility(*mp_ref.leaf_of_group(src));
  BsId src_bs = scenario().net.bs_group(src)->members.front();
  BsId dst_bs = scenario().net.bs_group(dst)->members.front();
  UeId ue{9001};
  ASSERT_TRUE(source.ue_attach(ue, src_bs).ok());
  apps::BearerRequest request;
  request.ue = ue;
  request.bs = src_bs;
  request.dst_prefix = provider.prefix;
  auto bearer = source.request_bearer(request);
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  ASSERT_EQ(source.ue(ue)->bearers.at(*bearer).handled_level, 3);

  ASSERT_TRUE(source.handover(ue, dst_bs).ok());
  const apps::UeRecord* moved = scenario().apps->mobility(*mp_ref.leaf_of_group(dst)).ue(ue);
  ASSERT_NE(moved, nullptr);
  ASSERT_EQ(moved->bearers.size(), 1u);
  const apps::BearerRecord& rec = moved->bearers.begin()->second;
  EXPECT_TRUE(rec.active) << "bearer lost across the handover";
  EXPECT_NE(rec.ancestor_key, 0u);
  EXPECT_TRUE(scenario().apps->mobility(mp_ref.root()).holds_ancestor_path(rec.ancestor_key));
}

TEST_F(ThreeLevelTest, CrossMidHandoverClimbsToRoot) {
  auto& mp_ref = mp();
  BsGroupId src, dst;
  bool cross_mid_found = false;
  for (const auto& [key, w] : scenario().trace.group_adjacency.edges()) {
    std::size_t la = mp_ref.leaf_index_of_group(key.first);
    std::size_t lb = mp_ref.leaf_index_of_group(key.second);
    if (la == lb) continue;
    if (mp_ref.mid_index_of_leaf(la) != mp_ref.mid_index_of_leaf(lb)) {
      src = key.first;
      dst = key.second;
      cross_mid_found = true;
      break;
    }
  }
  if (!cross_mid_found) GTEST_SKIP() << "no cross-mid adjacency in this seed";

  auto& root_mobility = scenario().apps->mobility(mp_ref.root());
  auto root_before = root_mobility.stats().inter_region_handled;
  auto& mobility = scenario().apps->mobility(*mp_ref.leaf_of_group(src));
  UeId ue{7002};
  ASSERT_TRUE(mobility.ue_attach(ue, scenario().net.bs_group(src)->members.front()).ok());
  ASSERT_TRUE(mobility.handover(ue, scenario().net.bs_group(dst)->members.front()).ok());
  EXPECT_EQ(root_mobility.stats().inter_region_handled, root_before + 1);
  // The UE now lives at the destination leaf.
  EXPECT_NE(scenario().apps->mobility(*mp_ref.leaf_of_group(dst)).ue(ue), nullptr);
}

TEST_F(ThreeLevelTest, HandoverGraphCollectionRecursesThroughMids) {
  // Drive a couple of handovers so the leaf logs are non-empty (each gtest
  // case runs in its own process; no state from sibling tests).
  auto& mp_ref = mp();
  int driven = 0;
  std::uint64_t seq = 0;
  for (const auto& [key, w] : scenario().trace.group_adjacency.edges()) {
    if (driven >= 3) break;
    auto& mobility = scenario().apps->mobility(*mp_ref.leaf_of_group(key.first));
    UeId ue{8000 + seq++};
    if (!mobility.ue_attach(ue, scenario().net.bs_group(key.first)->members.front()).ok())
      continue;
    if (mobility.handover(ue, scenario().net.bs_group(key.second)->members.front()).ok())
      ++driven;
  }
  ASSERT_GT(driven, 0);

  auto& root_mobility = scenario().apps->mobility(mp().root());
  auto graph = root_mobility.collect_handover_graph();
  EXPECT_GT(graph.total_weight(), 0.0);
  // Every node is something the root can see: one of its NIB G-BSes.
  for (GBsId node : graph.nodes()) {
    EXPECT_NE(mp().root().nib().gbs(node), nullptr) << node.str();
  }
}

}  // namespace
}  // namespace softmow
