// End-to-end tenant isolation: the slice-annotated static verifier and the
// rule/probe audit both stay clean over a multi-tenant scenario, both pin a
// seeded cross-tenant classifier to its exact (switch, cookie, slice)
// triple, and the self-healing plane removes it again. A slice closing a
// bearer its leaf no longer holds releases the charge and counts the miss.
// A promoted leaf keeps the tag allocator, and a destroyed manager leaves
// nothing behind in the plane.
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

}  // namespace
}  // namespace softmow
