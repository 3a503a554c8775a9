// TraceDriver (live control-plane replay) and the probe-based data-plane
// audit.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow {
namespace {

class DriverAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo::ScenarioParams params = topo::small_scenario_params(9);
    params.trace.duration_minutes = 60;
    params.trace.peak_bearers_per_min = 3000;
    params.trace.peak_handovers_per_min = 500;
    scenario = topo::build_scenario(std::move(params));
  }

  std::unique_ptr<topo::Scenario> scenario;
};

TEST_F(DriverAuditTest, ReplayDrivesTheRealApplications) {
  topo::TraceDriverParams params;
  params.event_scale = 0.01;  // ~30 bearers/min network-wide
  topo::TraceDriver driver(*scenario, params);
  auto report = driver.replay(0, 30);

  EXPECT_EQ(report.minutes_replayed, 30u);
  EXPECT_GT(report.bearers_requested, 20u);
  EXPECT_GT(report.attaches, 0u);
  // The vast majority of trace bearers are plain best-effort and must be
  // servable; tolerate a small failing tail.
  EXPECT_LT(report.bearers_failed * 10, report.bearers_requested + 10);

  // Leaf-level stats moved (>=: re-activating an ancestor-handled bearer
  // re-requests it internally, which also counts as an arrival).
  std::uint64_t bearer_arrivals = 0;
  for (reca::Controller* leaf : scenario->mgmt->leaves())
    bearer_arrivals += scenario->apps->mobility(*leaf).stats().bearer_arrivals;
  EXPECT_GE(bearer_arrivals, report.bearers_requested);
}

TEST_F(DriverAuditTest, ReplayMediatesHandoversAtTheRightLevels) {
  topo::TraceDriverParams params;
  params.event_scale = 0.05;
  topo::TraceDriver driver(*scenario, params);
  auto report = driver.replay(0, 60);
  if (report.handovers_requested == 0) GTEST_SKIP() << "no handover events in this slice";

  std::uint64_t mediated = 0;
  for (const auto& [level, count] : report.handovers_by_level) mediated += count;
  // Every successful handover was mediated somewhere (leaf or ancestor).
  EXPECT_GE(mediated + report.handovers_failed, report.handovers_requested);
}

TEST_F(DriverAuditTest, AuditIsCleanAfterReplay) {
  topo::TraceDriverParams params;
  params.event_scale = 0.01;
  params.idle_probability = 1.0;  // every bearer cycles idle->active: restored paths stay live
  topo::TraceDriver driver(*scenario, params);
  auto report = driver.replay(0, 20);
  ASSERT_GT(report.rules_at_end, 0u);

  auto audit = mgmt::audit_data_plane(scenario->net);
  EXPECT_GT(audit.classifiers_probed, 0u);
  EXPECT_TRUE(audit.clean()) << audit.findings.size() << " findings, first at "
                             << (audit.findings.empty()
                                     ? "-"
                                     : audit.findings[0].access_switch.str());
  EXPECT_EQ(audit.label_violations, 0u);
}

TEST_F(DriverAuditTest, AuditFlagsABrokenPath) {
  // Install a bearer, then sabotage a transit rule so the probe punts.
  auto& mp = *scenario->mgmt;
  BsGroupId group = scenario->partition.group_regions[0].front();
  BsId bs = scenario->net.bs_group(group)->members.front();
  auto& mobility = scenario->apps->mobility(*mp.leaf_of_group(group));
  ASSERT_TRUE(mobility.ue_attach(UeId{1}, bs).ok());
  apps::BearerRequest request;
  request.ue = UeId{1};
  request.bs = bs;
  request.dst_prefix = PrefixId{3};
  ASSERT_TRUE(mobility.request_bearer(request).ok());
  ASSERT_TRUE(mgmt::audit_data_plane(scenario->net).clean());

  // Remove every rule from a core switch on the path (rule vandalism).
  auto first = mgmt::audit_data_plane(scenario->net);
  Packet probe;
  probe.ue = UeId{1};
  probe.dst_prefix = PrefixId{3};
  auto walk = scenario->net.inject_uplink(probe, bs);
  ASSERT_EQ(walk.outcome, dataplane::DeliveryReport::Outcome::kExternal);
  ASSERT_GE(walk.packet.trace.size(), 2u);
  SwitchId victim = walk.packet.trace[1].sw;
  scenario->net.sw(victim)->table().clear();

  auto after = mgmt::audit_data_plane(scenario->net);
  EXPECT_FALSE(after.clean());
  EXPECT_GE(after.punted, 1u);
  ASSERT_FALSE(after.findings.empty());
  EXPECT_EQ(after.findings[0].outcome, dataplane::DeliveryReport::Outcome::kToController);
  (void)first;
}

TEST_F(DriverAuditTest, AuditCountsNothingOnEmptyDataPlane) {
  auto report = mgmt::audit_data_plane(scenario->net);
  EXPECT_EQ(report.classifiers_probed, 0u);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace softmow
