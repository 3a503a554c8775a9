// End-to-end tenant isolation: the slice-annotated static verifier and the
// rule/probe audit both stay clean over a multi-tenant scenario, both pin a
// seeded cross-tenant classifier to its exact (switch, cookie, slice)
// triple, and the self-healing plane removes it again. A slice closing a
// bearer its leaf no longer holds releases the charge and counts the miss.
// A promoted leaf keeps the tag allocator, and a destroyed manager leaves
// nothing behind in the plane. A bearer restored after its tag's ids were
// recycled takes a fresh tag, never the claimant's, and a slice closes a
// bearer restored from idle under the id it opened it with.
#include <gtest/gtest.h>

#include <memory>

#include "mgmt/audit.h"
#include "softmow/softmow.h"

namespace softmow {
namespace {

class SliceIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario = topo::build_scenario(topo::small_scenario_params(11));
    mgr = std::make_unique<slice::SliceManager>(*scenario,
                                                slice::SliceManager::Options{});
    for (const char* name : {"a", "b"}) {
      slice::SliceSpec spec;
      spec.name = name;
      SliceId id = *mgr->add_slice(spec);
      ASSERT_TRUE(mgr->provision(id, 2).ok());
      for (UeId ue : mgr->subscribers(id)) {
        ASSERT_TRUE(mgr->open_bearer(id, ue, PrefixId{17}).ok());
      }
    }
  }

  std::unique_ptr<topo::Scenario> scenario;
  std::unique_ptr<slice::SliceManager> mgr;
};

TEST_F(SliceIsolationTest, MultiTenantScenarioVerifiesClean) {
  verify::VerifyReport report = scenario->mgmt->verify_data_plane();
  EXPECT_EQ(report.isolation_violations(), 0u) << report.summary();
  EXPECT_TRUE(report.clean()) << report.summary();

  mgmt::SliceAuditReport audit =
      mgmt::audit_slice_isolation(scenario->net, mgr->ue_slices());
  EXPECT_TRUE(audit.clean());
  EXPECT_GT(audit.probes_sent, 0u);
  EXPECT_GT(audit.tagged_hops_checked, 0u);
}

TEST_F(SliceIsolationTest, RogueRuleIsPinnedByVerifierAndAudit) {
  faults::FaultScenario plan = faults::make_fault_plan("rogue-rule", *scenario, 1);
  ASSERT_EQ(plan.events.size(), 1u);
  const faults::FaultEvent& ev = plan.events.front();
  ASSERT_EQ(ev.kind, faults::FaultKind::kRogueRule);

  dataplane::Switch* sw = scenario->net.sw(ev.sw);
  ASSERT_NE(sw, nullptr);
  ASSERT_TRUE(sw->table().install(ev.rogue).ok());

  // Static verifier: at least one isolation finding names the exact
  // (switch, cookie, slice) triple of the forged classifier.
  verify::VerifyReport report = scenario->mgmt->verify_data_plane();
  EXPECT_GT(report.isolation_violations(), 0u) << report.summary();
  std::optional<SliceId> forged_slice;
  for (const dataplane::Action& a : ev.rogue.actions) {
    if (auto tag = dataplane::decode_tag(a.label.value)) forged_slice = tag->slice;
  }
  ASSERT_TRUE(forged_slice.has_value());
  bool verifier_pinned = false;
  for (const verify::Finding& f : report.findings) {
    if (f.invariant != verify::Invariant::kCrossSlice &&
        f.invariant != verify::Invariant::kTagMismatch)
      continue;
    if (f.sw == ev.sw && f.cookie == ev.rogue.cookie && f.slice == *forged_slice)
      verifier_pinned = true;
  }
  EXPECT_TRUE(verifier_pinned)
      << "no isolation finding named (" << ev.sw.str() << ", " << ev.rogue.cookie
      << ", " << forged_slice->str() << ")";

  // Probe audit: same triple, independently.
  mgmt::SliceAuditReport audit =
      mgmt::audit_slice_isolation(scenario->net, mgr->ue_slices());
  EXPECT_FALSE(audit.clean());
  bool audit_pinned = false;
  for (const mgmt::SliceAuditFinding& f : audit.findings) {
    if (f.sw == ev.sw && f.cookie == ev.rogue.cookie && f.found == *forged_slice)
      audit_pinned = true;
  }
  EXPECT_TRUE(audit_pinned);

  // Removing the rogue rule restores both detectors to clean.
  ASSERT_TRUE(sw->table().remove_by_cookie(ev.rogue.cookie).ok());
  EXPECT_EQ(scenario->mgmt->verify_data_plane().isolation_violations(), 0u);
  EXPECT_TRUE(mgmt::audit_slice_isolation(scenario->net, mgr->ue_slices()).clean());
}

TEST_F(SliceIsolationTest, SelfHealingRemovesRogueRule) {
  faults::FaultScenario plan = faults::make_fault_plan("rogue-rule", *scenario, 1);
  ASSERT_EQ(plan.events.size(), 1u);
  const faults::FaultEvent& ev = plan.events.front();

  faults::RecoveryCoordinator coord(*scenario);
  coord.harden();
  faults::FaultInjector injector;
  std::vector<faults::FaultRecord> records = injector.run(plan, coord);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_GE(records[0].repaired, 1u);
  EXPECT_GT(records[0].mttr_ms, 0.0);

  // The forged cookie is gone and the tenancy invariants hold again.
  const dataplane::Switch* sw = scenario->net.sw(ev.sw);
  ASSERT_NE(sw, nullptr);
  for (const dataplane::FlowRule& rule : sw->table().rules())
    EXPECT_NE(rule.cookie, ev.rogue.cookie);
  EXPECT_EQ(scenario->mgmt->verify_data_plane().isolation_violations(), 0u);
  EXPECT_TRUE(mgmt::audit_slice_isolation(scenario->net, mgr->ue_slices()).clean());
}

TEST_F(SliceIsolationTest, FailoverRewiresTagAllocator) {
  // The promoted standby takes the shared tag allocator over from the
  // instance it replaces, so post-failover bearers are tagged at once.
  mgmt::HotStandby standby(scenario->mgmt->leaf(0), scenario->mgmt->hub());
  standby.sync();
  reca::Controller& promoted = scenario->mgmt->fail_over_leaf(0, standby);
  EXPECT_EQ(promoted.tag_allocator(), mgr->tag_allocator());
}

TEST_F(SliceIsolationTest, VerifyAfterTheManagerIsGoneTouchesNoFreedState) {
  // The plane's slice annotator captures the manager; destroying the
  // manager removes it, so a later verify pass runs unannotated.
  mgr.reset();
  verify::VerifyReport report = scenario->mgmt->verify_data_plane();
  EXPECT_EQ(report.isolation_violations(), 0u) << report.summary();
  for (reca::Controller* c : scenario->mgmt->all_controllers())
    EXPECT_EQ(c->tag_allocator(), nullptr);
}

TEST_F(SliceIsolationTest, CloseOfBearerTheLeafNoLongerHoldsIsCounted) {
  const obs::Counter* ignored = obs::default_registry().find_counter(
      "ignored_errors_total", {{"site", "slice.close_bearer"}});
  ASSERT_NE(ignored, nullptr);
  const std::uint64_t before = ignored->value();
  const SliceId id{0};
  const UeId ue = mgr->subscribers(id).front();

  auto held = mgr->open_bearer(id, ue, PrefixId{18});
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(mgr->close_bearer(id, ue, *held).ok());
  EXPECT_EQ(ignored->value(), before);

  // The leaf drops the bearer behind the slice's back: closing it still
  // releases the slice's charge, and the failed deactivation is counted.
  auto bearer = mgr->open_bearer(id, ue, PrefixId{19});
  ASSERT_TRUE(bearer.ok());
  const double reserved = mgr->stats(id).reserved_kbps;
  apps::MobilityApp* owner = nullptr;
  for (reca::Controller* leaf : scenario->mgmt->leaves()) {
    if (scenario->apps->mobility(*leaf).ue(ue) != nullptr) owner = &scenario->apps->mobility(*leaf);
  }
  ASSERT_NE(owner, nullptr);
  ASSERT_TRUE(owner->deactivate_bearer(ue, *bearer).ok());
  ASSERT_TRUE(mgr->close_bearer(id, ue, *bearer).ok());
  EXPECT_LT(mgr->stats(id).reserved_kbps, reserved);
  EXPECT_EQ(ignored->value(), before + 1);
}

TEST(SliceTagRecycling, ActivationAfterTheTagsIdsWereRecycledTakesNoAlias) {
  auto scenario = topo::build_scenario(topo::small_scenario_params(11));
  slice::SliceManager mgr(*scenario, slice::SliceManager::Options{});
  slice::SliceSpec spec;
  spec.name = "a";
  const SliceId id = *mgr.add_slice(spec);
  ASSERT_EQ(*mgr.provision(id, 1), 1u);
  const UeId ue = mgr.subscribers(id).front();
  auto bearer = mgr.open_bearer(id, ue, PrefixId{17});
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;

  reca::Controller* leaf = nullptr;
  for (reca::Controller* c : scenario->mgmt->leaves())
    if (scenario->apps->mobility(*c).ue(ue) != nullptr) leaf = c;
  ASSERT_NE(leaf, nullptr);
  apps::MobilityApp& mobility = scenario->apps->mobility(*leaf);
  const apps::BearerRecord& record = mobility.ue(ue)->bearers.at(*bearer);
  ASSERT_TRUE(record.handled_locally);
  const nos::InstalledPath* path = leaf->paths().path(record.local_path);
  ASSERT_NE(path, nullptr);
  ASSERT_TRUE(path->options.shared_tag.has_value()) << "a multi-hop route rides the tag";
  const std::uint32_t tag = path->label.value;
  const auto dims = dataplane::decode_tag(tag);
  ASSERT_TRUE(dims.has_value());
  dataplane::TagAllocator& tags = *mgr.tag_allocator();

  // Idle: the bearer's aggregate drains and both of its ids are recycled.
  const std::uint64_t recycled = tags.ids_recycled();
  ASSERT_TRUE(mobility.ue_idle(ue).ok());
  EXPECT_EQ(tags.ids_recycled(), recycled + 2);

  // Another endpoint pair claims the recycled ids.
  const std::uint32_t squatter =
      tags.tag_for(dims->slice, dims->clause, Endpoint{SwitchId{9001}, PortId{1}},
                   Endpoint{SwitchId{9002}, PortId{1}});
  ASSERT_EQ(squatter, tag) << "recycling re-issues the drained ids";
  tags.retain(squatter);

  ASSERT_TRUE(mobility.ue_active(ue).ok());
  const apps::UeRecord* rec = mobility.ue(ue);
  ASSERT_EQ(rec->bearers.size(), 1u);
  const apps::BearerRecord& restored = rec->bearers.begin()->second;
  ASSERT_TRUE(restored.active);
  ASSERT_TRUE(restored.handled_locally);
  const nos::InstalledPath* fresh = leaf->paths().path(restored.local_path);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->label.value, squatter) << "the restored bearer aliases the claimant";
  const auto fresh_dims = dataplane::decode_tag(fresh->label.value);
  ASSERT_TRUE(fresh_dims.has_value());
  EXPECT_EQ(fresh_dims->slice, dims->slice);
  EXPECT_EQ(fresh_dims->clause, dims->clause);

  EXPECT_TRUE(mgmt::audit_slice_isolation(scenario->net, mgr.ue_slices()).clean());
  verify::VerifyReport report = scenario->mgmt->verify_data_plane();
  EXPECT_TRUE(report.clean()) << report.summary();
  tags.release(squatter);
}

TEST(SliceBearerRestore, CloseAfterAnIdleCycleTearsTheRestoredBearerDown) {
  auto scenario = topo::build_scenario(topo::small_scenario_params(11));
  slice::SliceManager mgr(*scenario, slice::SliceManager::Options{});
  slice::SliceSpec spec;
  spec.name = "a";
  const SliceId id = *mgr.add_slice(spec);
  ASSERT_EQ(*mgr.provision(id, 1), 1u);
  const UeId ue = mgr.subscribers(id).front();
  const obs::Counter* ignored = obs::default_registry().find_counter(
      "ignored_errors_total", {{"site", "slice.close_bearer"}});
  ASSERT_NE(ignored, nullptr);
  const std::uint64_t ignored_before = ignored->value();
  const std::size_t rules_before = scenario->net.total_rules();

  auto bearer = mgr.open_bearer(id, ue, PrefixId{17});
  ASSERT_TRUE(bearer.ok()) << bearer.error().message;
  ASSERT_GT(scenario->net.total_rules(), rules_before);
  reca::Controller* leaf = nullptr;
  for (reca::Controller* c : scenario->mgmt->leaves())
    if (scenario->apps->mobility(*c).ue(ue) != nullptr) leaf = c;
  ASSERT_NE(leaf, nullptr);
  apps::MobilityApp& mobility = scenario->apps->mobility(*leaf);

  ASSERT_TRUE(mobility.ue_idle(ue).ok());
  ASSERT_TRUE(mobility.ue_active(ue).ok());
  ASSERT_TRUE(mobility.ue(ue)->bearers.contains(*bearer)) << "restored under a new id";
  ASSERT_TRUE(mobility.ue(ue)->bearers.at(*bearer).active);

  ASSERT_TRUE(mgr.close_bearer(id, ue, *bearer).ok());
  EXPECT_EQ(ignored->value(), ignored_before);
  EXPECT_EQ(mgr.stats(id).reserved_kbps, 0.0);
  EXPECT_TRUE(mobility.ue(ue)->bearers.empty());
  EXPECT_EQ(scenario->net.total_rules(), rules_before) << "the restored path is left behind";
}

}  // namespace
}  // namespace softmow
