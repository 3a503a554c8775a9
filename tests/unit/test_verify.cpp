// Static data-plane verifier: symbolic walks on hand-built tables, seeded
// faults on real scenario state, and agreement with the probe audit.
#include <gtest/gtest.h>

#include "softmow/softmow.h"

namespace softmow {
namespace {

using dataplane::FlowRule;
using dataplane::output;
using dataplane::pop_label;
using dataplane::push_label;
using dataplane::set_version;
using verify::Finding;
using verify::Invariant;
using verify::VerifyReport;

bool has_finding(const VerifyReport& report, Invariant inv, SwitchId sw,
                 std::uint64_t cookie) {
  for (const Finding& f : report.findings) {
    if (f.invariant == inv && f.sw == sw && f.cookie == cookie) return true;
  }
  return false;
}

std::string dump(const VerifyReport& report) {
  std::string out = report.summary();
  for (const Finding& f : report.findings) out += "\n  " + f.str();
  return out;
}

// Hand-built chain: BS group at `a`, egress at `c`, one classified flow
// pushing label 5 across a -> b -> c, popped at the border.
class VerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a = net.add_switch({0, 0});
    b = net.add_switch({1, 0});
    c = net.add_switch({2, 0});
    ab = *net.connect(a, b, sim::Duration::millis(5), 1000);
    bc = *net.connect(b, c, sim::Duration::millis(5), 1000);
    group = net.add_bs_group(a);
    net.add_base_station(group, {0, 1});
    egress = net.add_egress(c);
    access = net.bs_group(group)->access_switch;
  }

  void install_chain() {
    FlowRule classify;
    classify.cookie = 1;
    classify.match.ue = UeId{1};
    classify.actions = {push_label(Label{5, 1}), output(PortId{2})};
    ASSERT_TRUE(net.sw(access)->table().install(classify).ok());
    install_transit(a, 2, net.link(ab)->a.port);
    install_transit(b, 3, net.link(bc)->a.port);
    FlowRule exit;
    exit.cookie = 4;
    exit.match.label = 5;
    exit.actions = {pop_label(), output(net.egress(egress)->attach.port)};
    ASSERT_TRUE(net.sw(c)->table().install(exit).ok());
  }

  void install_transit(SwitchId sw, std::uint64_t cookie, PortId out) {
    FlowRule rule;
    rule.cookie = cookie;
    rule.match.label = 5;
    rule.actions = {output(out)};
    ASSERT_TRUE(net.sw(sw)->table().install(rule).ok());
  }

  dataplane::PhysicalNetwork net;
  SwitchId a, b, c, access;
  LinkId ab, bc;
  BsGroupId group;
  EgressId egress;
};

TEST_F(VerifierTest, CleanChainVerifiesClean) {
  install_chain();
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(report.clean()) << dump(report);
  EXPECT_EQ(report.classes_analyzed, 1u);
  EXPECT_EQ(report.classes_delivered, 1u);
  EXPECT_EQ(report.rules_analyzed, 4u);
  // classifier -> a -> b -> c along the rule graph.
  EXPECT_EQ(report.graph_edges, 3u);
}

TEST_F(VerifierTest, MissingTransitRuleIsABlackhole) {
  install_chain();
  net.sw(b)->table().clear();
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.blackholes, 1u) << dump(report);
  // The miss manifests at b; the class is named after its classifier.
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].sw, b);
  EXPECT_EQ(report.findings[0].origin_switch, access);
  EXPECT_EQ(report.findings[0].origin_cookie, 1u);
}

TEST_F(VerifierTest, WrongOutPortIsABlackholeNamingTheRule) {
  install_chain();
  install_transit(a, 2, PortId{999});  // replaces cookie 2 with a dead port
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(has_finding(report, Invariant::kBlackhole, a, 2)) << dump(report);
}

TEST_F(VerifierTest, ForwardingLoopIsDetectedSymbolically) {
  install_chain();
  install_transit(b, 3, net.link(ab)->b.port);  // b sends the label back to a
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_GE(report.loops, 1u) << dump(report);
  EXPECT_EQ(report.classes_delivered, 0u);
}

TEST_F(VerifierTest, MissingPopIsAnUnbalancedStack) {
  install_chain();
  FlowRule exit;
  exit.cookie = 4;
  exit.match.label = 5;
  exit.actions = {output(net.egress(egress)->attach.port)};  // forgot the pop
  ASSERT_TRUE(net.sw(c)->table().install(exit).ok());
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(has_finding(report, Invariant::kUnbalancedStack, c, 4)) << dump(report);
  EXPECT_EQ(report.classes_delivered, 0u);
}

TEST_F(VerifierTest, DoublePushViolatesLabelDepth) {
  install_chain();
  FlowRule classify;
  classify.cookie = 1;
  classify.match.ue = UeId{1};
  classify.actions = {push_label(Label{5, 1}), push_label(Label{5, 2}), output(PortId{2})};
  ASSERT_TRUE(net.sw(access)->table().install(classify).ok());
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(has_finding(report, Invariant::kLabelDepth, access, 1)) << dump(report);
}

TEST_F(VerifierTest, PopOnEmptyStackIsFlagged) {
  install_chain();
  FlowRule classify;
  classify.cookie = 1;
  classify.match.ue = UeId{1};
  classify.actions = {pop_label(), output(PortId{2})};
  ASSERT_TRUE(net.sw(access)->table().install(classify).ok());
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(has_finding(report, Invariant::kUnbalancedStack, access, 1)) << dump(report);
}

TEST_F(VerifierTest, StaleVersionMatchIsAMixedVersionFinding) {
  install_chain();
  // Rule at b now only exists under update version 7 — packets of the class
  // carry version 0, so §6 consistency is broken mid-path.
  FlowRule stale;
  stale.cookie = 3;
  stale.match.label = 5;
  stale.match.version = 7;
  stale.actions = {output(net.link(bc)->a.port)};
  ASSERT_TRUE(net.sw(b)->table().install(stale).ok());
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(has_finding(report, Invariant::kMixedVersion, b, 3)) << dump(report);
}

TEST_F(VerifierTest, ClassObservingTwoVersionsIsFlagged) {
  install_chain();
  FlowRule classify;
  classify.cookie = 1;
  classify.match.ue = UeId{1};
  classify.actions = {set_version(1), push_label(Label{5, 1}), output(PortId{2})};
  ASSERT_TRUE(net.sw(access)->table().install(classify).ok());
  // Transit at b re-stamps the packet with a *different* version: the class
  // observes a mix of update generations (§6).
  FlowRule restamp;
  restamp.cookie = 3;
  restamp.match.label = 5;
  restamp.actions = {set_version(2), output(net.link(bc)->a.port)};
  ASSERT_TRUE(net.sw(b)->table().install(restamp).ok());
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_GE(report.mixed_versions, 1u) << dump(report);
}

TEST_F(VerifierTest, DominatedRuleIsShadowed) {
  install_chain();
  FlowRule blanket;  // higher priority, strictly wider match than cookie 2
  blanket.cookie = 9;
  blanket.priority = 50;
  blanket.actions = {output(net.link(ab)->a.port)};
  ASSERT_TRUE(net.sw(a)->table().install(blanket).ok());
  VerifyReport report = verify::verify_data_plane(net);
  EXPECT_TRUE(has_finding(report, Invariant::kShadowedRule, a, 2)) << dump(report);
}

TEST_F(VerifierTest, WildcardFieldMeetingAConstrainedRuleScansTheWholeTable) {
  install_chain();  // the classifier binds the UE and leaves dst_prefix wildcard
  FlowRule narrow;  // b forwards only dst 7 on towards c
  narrow.cookie = 3;
  narrow.priority = 20;
  narrow.match.label = 5;
  narrow.match.dst_prefix = PrefixId{7};
  narrow.actions = {output(net.link(bc)->a.port)};
  ASSERT_TRUE(net.sw(b)->table().install(narrow).ok());
  FlowRule rest;  // every other destination goes to a dead port
  rest.cookie = 30;
  rest.priority = 10;
  rest.match.label = 5;
  rest.actions = {output(PortId{999})};
  ASSERT_TRUE(net.sw(b)->table().install(rest).ok());

  const obs::MetricsRegistry& reg = obs::default_registry();
  auto lookups = [&](const char* path) {
    const obs::Counter* n = reg.find_counter("verify_table_lookups_total", {{"path", path}});
    return n == nullptr ? std::uint64_t{0} : n->value();
  };
  const std::uint64_t index_before = lookups("index");
  const std::uint64_t scan_before = lookups("scan");

  // At b the class splits on dst_prefix: the dst-7 sub-class is delivered,
  // the residue falls through to cookie 30 and its dead port.
  VerifyReport report = verify::verify_data_plane(net);
  ASSERT_EQ(report.findings.size(), 1u) << dump(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.invariant, Invariant::kBlackhole);
  EXPECT_EQ(f.sw, b);
  EXPECT_EQ(f.cookie, 30u);
  EXPECT_EQ(f.origin_switch, access);
  EXPECT_EQ(f.origin_cookie, 1u);
  EXPECT_EQ(f.detail, "output on unknown/down port " + PortId{999}.str());
  EXPECT_EQ(report.classes_delivered, 1u);
  EXPECT_EQ(report.graph_edges, 4u);  // classifier -> a -> b (both rules) -> c

  // Only the wildcard lookup at b scans; the access switch, a, the bound
  // sub-class's second look at b, and c are served by the index.
  EXPECT_EQ(lookups("scan") - scan_before, 1u);
  EXPECT_EQ(lookups("index") - index_before, 4u);
}

TEST_F(VerifierTest, OrphanRulesAndPathlessBearersNeedControlState) {
  install_chain();
  verify::ControlState state;
  state.have_live_rules = true;
  state.live_rules.insert({access, 1});  // b's rule backs no path
  state.live_rules.insert({a, 2});
  state.live_rules.insert({c, 4});
  state.bearers.push_back({UeId{1}, BearerId{1}, /*active=*/true, /*path_installed=*/false});
  state.bearers.push_back({UeId{2}, BearerId{2}, /*active=*/false, /*path_installed=*/false});

  VerifyReport report = verify::verify_data_plane(net, &state);
  EXPECT_TRUE(has_finding(report, Invariant::kOrphanRule, b, 3)) << dump(report);
  EXPECT_EQ(report.orphan_rules, 1u);
  EXPECT_EQ(report.pathless_bearers, 1u);

  // Without control state, neither cross-check can (or should) fire.
  VerifyReport bare = verify::verify_data_plane(net);
  EXPECT_TRUE(bare.clean()) << dump(bare);
}

TEST_F(VerifierTest, IncrementalReverifyTracksLocalizedDamage) {
  install_chain();
  verify::StaticVerifier verifier(&net);
  EXPECT_TRUE(verifier.verify().clean());

  install_transit(b, 3, PortId{999});  // sabotage b
  VerifyReport broken = verifier.reverify({b});
  EXPECT_TRUE(has_finding(broken, Invariant::kBlackhole, b, 3)) << dump(broken);

  install_transit(b, 3, net.link(bc)->a.port);  // repair b
  VerifyReport repaired = verifier.reverify({b});
  EXPECT_TRUE(repaired.clean()) << dump(repaired);
  EXPECT_EQ(repaired.classes_delivered, 1u);

  // A dirty switch no class ever touches re-checks only that switch.
  SwitchId d = net.add_switch({9, 9});
  VerifyReport still_clean = verifier.reverify({d});
  EXPECT_TRUE(still_clean.clean()) << dump(still_clean);
}

// --- seeded faults on real controller-installed state ------------------------

class SeededFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario = topo::build_scenario(topo::small_scenario_params(9));
    auto& mp = *scenario->mgmt;
    group = scenario->partition.group_regions[0].front();
    BsId bs = scenario->net.bs_group(group)->members.front();
    leaf = mp.leaf_of_group(group);
    auto& mobility = scenario->apps->mobility(*leaf);
    ASSERT_TRUE(mobility.ue_attach(UeId{1}, bs).ok());
    apps::BearerRequest request;
    request.ue = UeId{1};
    request.bs = bs;
    request.dst_prefix = PrefixId{3};
    ASSERT_TRUE(mobility.request_bearer(request).ok());

    // Locate the installed path backing the bearer in the (live) path book.
    for (PathId id : leaf->paths().paths()) {
      const nos::InstalledPath* p = leaf->paths().path(id);
      if (p->classifier.ue == UeId{1}) {
        path = p;
        break;
      }
    }
    ASSERT_NE(path, nullptr);
    ASSERT_GE(path->rules.size(), 2u);
  }

  /// The installed rule at `index` along the path (copy).
  FlowRule rule_at(std::size_t index) {
    auto [sw, cookie] = path->rules[index];
    for (const FlowRule& r : scenario->net.sw(sw)->table().rules()) {
      if (r.cookie == cookie) return r;
    }
    ADD_FAILURE() << "rule " << cookie << " not installed on " << sw.str();
    return {};
  }

  VerifyReport static_verify() { return scenario->mgmt->verify_data_plane(); }

  std::unique_ptr<topo::Scenario> scenario;
  reca::Controller* leaf = nullptr;
  BsGroupId group;
  const nos::InstalledPath* path = nullptr;
};

TEST_F(SeededFaultTest, CleanStateSatisfiesBothCheckers) {
  auto audit = mgmt::audit_data_plane(scenario->net);
  EXPECT_GT(audit.classifiers_probed, 0u);
  EXPECT_TRUE(audit.clean());
  VerifyReport report = static_verify();
  EXPECT_TRUE(report.clean()) << dump(report);
  EXPECT_GT(report.classes_analyzed, 0u);
  EXPECT_EQ(report.classes_delivered, report.classes_analyzed);
}

TEST_F(SeededFaultTest, WrongOutPortFlaggedByBothCheckersPrecisely) {
  std::size_t mid = path->rules.size() / 2;
  auto [sw, cookie] = path->rules[mid];
  FlowRule broken = rule_at(mid);
  for (dataplane::Action& action : broken.actions) {
    if (action.type == dataplane::ActionType::kOutput) action.port = PortId{9999};
  }
  ASSERT_TRUE(scenario->net.sw(sw)->table().install(broken).ok());

  EXPECT_FALSE(mgmt::audit_data_plane(scenario->net).clean());
  VerifyReport report = static_verify();
  EXPECT_TRUE(has_finding(report, Invariant::kBlackhole, sw, cookie)) << dump(report);
}

TEST_F(SeededFaultTest, MissingPopFlaggedByBothCheckersPrecisely) {
  std::size_t last = path->rules.size() - 1;
  auto [sw, cookie] = path->rules[last];
  FlowRule broken = rule_at(last);
  std::erase_if(broken.actions, [](const dataplane::Action& action) {
    return action.type == dataplane::ActionType::kPopLabel;
  });
  ASSERT_TRUE(scenario->net.sw(sw)->table().install(broken).ok());

  auto audit = mgmt::audit_data_plane(scenario->net);
  EXPECT_FALSE(audit.clean());
  EXPECT_GE(audit.label_violations, 1u);
  VerifyReport report = static_verify();
  EXPECT_TRUE(has_finding(report, Invariant::kUnbalancedStack, sw, cookie)) << dump(report);
}

TEST_F(SeededFaultTest, StaleVersionFlaggedByBothCheckersPrecisely) {
  std::size_t mid = path->rules.size() / 2;
  auto [sw, cookie] = path->rules[mid];
  FlowRule stale = rule_at(mid);
  stale.match.version = 7;  // rule survives only in a never-committed update
  ASSERT_TRUE(scenario->net.sw(sw)->table().install(stale).ok());

  EXPECT_FALSE(mgmt::audit_data_plane(scenario->net).clean());
  VerifyReport report = static_verify();
  EXPECT_TRUE(has_finding(report, Invariant::kMixedVersion, sw, cookie)) << dump(report);
}

TEST_F(SeededFaultTest, RuleBehindNoPathIsAnOrphan) {
  auto [sw, cookie] = path->rules[0];
  FlowRule rogue = rule_at(0);
  rogue.cookie = 987654;  // same shape, but no controller path owns it
  rogue.priority += 1;
  ASSERT_TRUE(scenario->net.sw(sw)->table().install(rogue).ok());

  VerifyReport report = static_verify();
  EXPECT_TRUE(has_finding(report, Invariant::kOrphanRule, sw, 987654)) << dump(report);
  (void)cookie;
}

TEST_F(SeededFaultTest, DeactivatedBearerLeavesNoOrphans) {
  auto& mobility = scenario->apps->mobility(*leaf);
  const apps::UeRecord* rec = mobility.ue(UeId{1});
  ASSERT_NE(rec, nullptr);
  ASSERT_FALSE(rec->bearers.empty());
  ASSERT_TRUE(mobility.deactivate_bearer(UeId{1}, rec->bearers.begin()->first).ok());
  VerifyReport report = static_verify();
  EXPECT_TRUE(report.clean()) << dump(report);
}

}  // namespace
}  // namespace softmow
