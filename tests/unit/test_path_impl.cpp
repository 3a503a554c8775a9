#include <gtest/gtest.h>

#include "nos/path_impl.h"

namespace softmow::nos {
namespace {

/// Captures FlowMods per switch instead of programming anything.
class RecordingBus : public DeviceBus {
 public:
  Result<void> send(SwitchId sw, const southbound::Message& msg) override {
    if (fail_on.valid() && sw == fail_on)
      return Error{ErrorCode::kUnavailable, "injected failure"};
    if (const auto* mod = std::get_if<southbound::FlowMod>(&msg)) mods.push_back(*mod);
    return Ok();
  }

  /// Adds minus removes: the net rule count this bus left on the data plane.
  [[nodiscard]] long net_rules() const {
    long net = 0;
    for (const auto& m : mods) net += m.op == southbound::FlowMod::Op::kAdd ? 1 : -1;
    return net;
  }

  [[nodiscard]] std::vector<southbound::FlowMod> mods_for(SwitchId sw) const {
    std::vector<southbound::FlowMod> out;
    for (const auto& m : mods)
      if (m.sw == sw) out.push_back(m);
    return out;
  }

  std::vector<southbound::FlowMod> mods;
  SwitchId fail_on;
};

ComputedRoute three_hop_route() {
  // access(1: in 1, out 2) -> core(2: in 1, out 2) -> border(3: in 1, out 8)
  ComputedRoute route;
  route.hops = {RouteHop{SwitchId{1}, PortId{1}, PortId{2}},
                RouteHop{SwitchId{2}, PortId{1}, PortId{2}},
                RouteHop{SwitchId{3}, PortId{1}, PortId{8}}};
  route.source = Endpoint{SwitchId{1}, PortId{1}};
  route.exit = Endpoint{SwitchId{3}, PortId{8}};
  return route;
}

dataplane::Match ue_classifier(std::uint64_t ue = 7) {
  dataplane::Match m;
  m.ue = UeId{ue};
  return m;
}

bool has_action(const southbound::FlowMod& mod, dataplane::ActionType type) {
  for (const auto& a : mod.rule.actions)
    if (a.type == type) return true;
  return false;
}

TEST(PathImplementer, OwnPathRules) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  auto id = paths.setup(three_hop_route(), ue_classifier());
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(bus.mods.size(), 3u);

  // First switch: classify + push + output; match pins the in-port.
  const auto& first = bus.mods[0];
  EXPECT_EQ(first.sw, SwitchId{1});
  EXPECT_EQ(first.rule.match.ue, UeId{7});
  EXPECT_EQ(first.rule.match.in_port, PortId{1});
  EXPECT_TRUE(has_action(first, dataplane::ActionType::kPushLabel));

  // Transit: match on (label, in-port) only.
  const auto& mid = bus.mods[1];
  EXPECT_TRUE(mid.rule.match.label.has_value());
  EXPECT_FALSE(mid.rule.match.ue.has_value());
  EXPECT_FALSE(has_action(mid, dataplane::ActionType::kPushLabel));

  // Exit: pop the local label before output.
  const auto& last = bus.mods[2];
  EXPECT_TRUE(has_action(last, dataplane::ActionType::kPopLabel));
}

TEST(PathImplementer, OuterSwapTranslationRules) {
  // RecA translation of a parent transit rule: pop outer at ingress (swap to
  // local), push outer back at egress (swap back).
  RecordingBus bus;
  PathImplementer paths(&bus, 2, 1);
  dataplane::Match classifier;
  classifier.label = 900;
  PathSetupOptions options;
  options.outer_pop = true;
  options.outer_push = Label{900, 2};
  ASSERT_TRUE(paths.setup(three_hop_route(), classifier, options).ok());

  EXPECT_TRUE(has_action(bus.mods[0], dataplane::ActionType::kSwapLabel));
  EXPECT_FALSE(has_action(bus.mods[0], dataplane::ActionType::kPushLabel));
  // Exit swaps the local label back to the outer one: never two labels.
  EXPECT_TRUE(has_action(bus.mods[2], dataplane::ActionType::kSwapLabel));
  EXPECT_FALSE(has_action(bus.mods[2], dataplane::ActionType::kPopLabel));
}

TEST(PathImplementer, StackingTranslationRules) {
  RecordingBus bus;
  PathImplementer paths(&bus, 3, 1);
  PathSetupOptions options;
  options.push_under = {Label{800, 3}, Label{801, 2}};
  options.extra_pops_at_exit = 0;
  ASSERT_TRUE(paths.setup(three_hop_route(), ue_classifier(), options).ok());
  // First switch pushes the two outer labels then the local one: 3 pushes.
  int pushes = 0;
  for (const auto& a : bus.mods[0].rule.actions)
    pushes += a.type == dataplane::ActionType::kPushLabel ? 1 : 0;
  EXPECT_EQ(pushes, 3);
}

TEST(PathImplementer, SingleSwitchPathAvoidsLocalLabel) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  ComputedRoute route;
  route.hops = {RouteHop{SwitchId{1}, PortId{1}, PortId{8}}};
  route.source = Endpoint{SwitchId{1}, PortId{1}};
  route.exit = Endpoint{SwitchId{1}, PortId{8}};
  ASSERT_TRUE(paths.setup(route, ue_classifier()).ok());
  ASSERT_EQ(bus.mods.size(), 1u);
  EXPECT_FALSE(has_action(bus.mods[0], dataplane::ActionType::kPushLabel));
  EXPECT_FALSE(has_action(bus.mods[0], dataplane::ActionType::kPopLabel));
}

TEST(PathImplementer, EmptyRouteRejected) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  ComputedRoute route;
  EXPECT_EQ(paths.setup(route, ue_classifier()).code(), ErrorCode::kInvalidArgument);
}

TEST(PathImplementer, RollbackOnInstallFailure) {
  RecordingBus bus;
  bus.fail_on = SwitchId{3};
  PathImplementer paths(&bus, 1, 1);
  auto id = paths.setup(three_hop_route(), ue_classifier());
  EXPECT_FALSE(id.ok());
  // The two already-installed rules were removed again.
  int removes = 0;
  for (const auto& m : bus.mods)
    removes += m.op == southbound::FlowMod::Op::kRemoveByCookie ? 1 : 0;
  EXPECT_EQ(removes, 2);
  EXPECT_TRUE(paths.paths().empty());
}

TEST(PathImplementer, DeactivateRemovesEveryRule) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  auto id = paths.setup(three_hop_route(), ue_classifier());
  ASSERT_TRUE(id.ok());
  bus.mods.clear();
  ASSERT_TRUE(paths.deactivate(*id).ok());
  EXPECT_EQ(bus.mods.size(), 3u);
  for (const auto& m : bus.mods)
    EXPECT_EQ(m.op, southbound::FlowMod::Op::kRemoveByCookie);
  // The path is forgotten: a second deactivation finds nothing to remove.
  EXPECT_EQ(paths.path(*id), nullptr);
  EXPECT_TRUE(paths.paths().empty());
  EXPECT_EQ(paths.deactivate(*id).code(), ErrorCode::kNotFound);
  EXPECT_EQ(bus.mods.size(), 3u);
}

TEST(PathImplementer, SecondSetupReinstallsEveryHop) {
  // A deactivated path is gone; a second setup of the same route and
  // classifier is a new path that re-installs every hop's rule.
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  auto id = paths.setup(three_hop_route(), ue_classifier());
  ASSERT_TRUE(id.ok());
  const std::vector<southbound::FlowMod> first = bus.mods;
  ASSERT_TRUE(paths.deactivate(*id).ok());
  bus.mods.clear();
  auto again = paths.setup(three_hop_route(), ue_classifier());
  ASSERT_TRUE(again.ok());
  EXPECT_NE(*again, *id);
  ASSERT_EQ(bus.mods.size(), 3u);
  for (std::size_t i = 0; i < bus.mods.size(); ++i) {
    EXPECT_EQ(bus.mods[i].op, southbound::FlowMod::Op::kAdd);
    EXPECT_EQ(bus.mods[i].sw, first[i].sw);
    EXPECT_EQ(bus.mods[i].rule.match.in_port, first[i].rule.match.in_port);
  }
  EXPECT_EQ(bus.mods[0].rule.match.ue, UeId{7});
  EXPECT_EQ(paths.paths().size(), 1u);
  EXPECT_NE(paths.path(*again), nullptr);
}

TEST(PathImplementerTagGc, DrainingLastBearerReturnsRuleCountToBaseline) {
  // Tag-space GC (slicing encapsulation): two bearers share one tag
  // aggregate; draining both must remove the shared transit rules AND hand
  // the tag's aggregate ids back to the allocator.
  RecordingBus bus;
  dataplane::TagAllocator alloc;
  PathImplementer paths(&bus, 1, 1);
  paths.set_tag_allocator(&alloc);

  ComputedRoute route = three_hop_route();
  std::uint32_t tag = alloc.tag_for(SliceId{2}, 3, route.source, route.exit);
  PathSetupOptions options;
  options.shared_tag = Label{tag, 1};

  auto a = paths.setup(route, ue_classifier(1), options);
  auto b = paths.setup(route, ue_classifier(2), options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(paths.aggregates().size(), 1u);
  EXPECT_EQ(alloc.ingress_aggregates(), 1u);
  EXPECT_EQ(alloc.egress_aggregates(), 1u);

  // Net rule count across the data plane: adds minus removes must return to
  // zero once the last bearer of the aggregate drains.
  ASSERT_GT(bus.net_rules(), 0);

  ASSERT_TRUE(paths.deactivate(*a).ok());
  EXPECT_EQ(paths.aggregates().size(), 1u) << "second bearer still references the tag";
  EXPECT_EQ(alloc.ids_recycled(), 0u);

  ASSERT_TRUE(paths.deactivate(*b).ok());
  EXPECT_EQ(paths.aggregates().size(), 0u);
  EXPECT_EQ(bus.net_rules(), 0) << "every installed rule must have been removed";
  EXPECT_EQ(alloc.ingress_aggregates(), 0u);
  EXPECT_EQ(alloc.egress_aggregates(), 0u);
  EXPECT_EQ(alloc.ids_recycled(), 2u);
}

TEST(TagAllocatorGc, TagForAfterRecyclingTakesNoAlias) {
  // A stored tag can go stale: deactivating its last path drains the tag's
  // aggregate ids, and the allocator re-issues them to a *different*
  // endpoint pair. Asking tag_for() afresh with the stored (slice, clause)
  // interns new ids, so a path set up again never aliases the other pair's
  // transit rules.
  RecordingBus bus;
  dataplane::TagAllocator alloc;
  PathImplementer paths(&bus, 1, 1);
  paths.set_tag_allocator(&alloc);

  ComputedRoute route = three_hop_route();
  std::uint32_t stored = alloc.tag_for(SliceId{3}, 7, route.source, route.exit);
  PathSetupOptions options;
  options.shared_tag = Label{stored, 1};
  auto id = paths.setup(route, ue_classifier(1), options);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(paths.deactivate(*id).ok());  // ingress and egress ids recycled

  // A different endpoint pair claims the recycled ids.
  ComputedRoute other;
  other.hops = {RouteHop{SwitchId{5}, PortId{1}, PortId{2}},
                RouteHop{SwitchId{6}, PortId{1}, PortId{9}}};
  other.source = Endpoint{SwitchId{5}, PortId{1}};
  other.exit = Endpoint{SwitchId{6}, PortId{9}};
  std::uint32_t squatter = alloc.tag_for(SliceId{3}, 7, other.source, other.exit);
  PathSetupOptions squat_options;
  squat_options.shared_tag = Label{squatter, 1};
  ASSERT_TRUE(paths.setup(other, ue_classifier(9), squat_options).ok());
  EXPECT_EQ(dataplane::decode_tag(squatter)->ingress_agg, 0u);
  EXPECT_EQ(squatter, stored) << "recycling must re-issue the drained ids";

  // Re-derivation: the original pair now interns new ids, and the
  // (slice, clause) dimensions survive it.
  auto old = dataplane::decode_tag(stored);
  ASSERT_TRUE(old.has_value());
  std::uint32_t fresh = alloc.tag_for(old->slice, old->clause, route.source, route.exit);
  EXPECT_NE(fresh, squatter);
  auto decoded = dataplane::decode_tag(fresh);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->slice.value, 3u);
  EXPECT_EQ(decoded->clause, 7u);
  EXPECT_NE(decoded->ingress_agg, 0u);

  PathSetupOptions again_options;
  again_options.shared_tag = Label{fresh, 1};
  auto again = paths.setup(route, ue_classifier(1), again_options);
  ASSERT_TRUE(again.ok());
  const InstalledPath* p = paths.path(*again);
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p->label.value, squatter) << "the path set up again must not alias the squatter";
  EXPECT_EQ(paths.aggregates().size(), 2u);
}

TEST(PathImplementerTagGc, ClassifierFailureReleasesAggregateAndTag) {
  // The tagged twin of RollbackOnInstallFailure: the shared rules go in
  // first, so a classifier that cannot be sent must take the fresh
  // aggregate back out and hand its tag ids back to the allocator.
  RecordingBus bus;
  bus.fail_on = SwitchId{1};  // the classifier's switch
  dataplane::TagAllocator alloc;
  PathImplementer paths(&bus, 1, 1);
  paths.set_tag_allocator(&alloc);

  ComputedRoute route = three_hop_route();
  PathSetupOptions options;
  options.shared_tag = Label{alloc.tag_for(SliceId{2}, 3, route.source, route.exit), 1};
  EXPECT_FALSE(paths.setup(route, ue_classifier(), options).ok());

  EXPECT_GT(bus.mods.size(), 0u) << "the shared rules were sent before the classifier";
  EXPECT_EQ(bus.net_rules(), 0) << "every shared rule must have been removed again";
  EXPECT_TRUE(paths.aggregates().empty());
  EXPECT_TRUE(paths.shared_rules().empty());
  EXPECT_TRUE(paths.paths().empty());
  EXPECT_EQ(alloc.ingress_aggregates(), 0u);
  EXPECT_EQ(alloc.egress_aggregates(), 0u);
  EXPECT_EQ(alloc.ids_recycled(), 2u);
}

TEST(PathImplementerResync, RepushesExactlyThePlainPathHopsOnTheSwitch) {
  // A middlebox detour visits switch 2 twice; resyncing it re-sends both of
  // those hop rules (and nothing else) under their original cookies.
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  ComputedRoute route;
  route.hops = {RouteHop{SwitchId{1}, PortId{1}, PortId{2}},
                RouteHop{SwitchId{2}, PortId{1}, PortId{5}},
                RouteHop{SwitchId{2}, PortId{5}, PortId{2}},
                RouteHop{SwitchId{3}, PortId{1}, PortId{8}}};
  route.source = Endpoint{SwitchId{1}, PortId{1}};
  route.exit = Endpoint{SwitchId{3}, PortId{8}};
  PathSetupOptions options;
  options.reserve_kbps = 500;
  auto id = paths.setup(route, ue_classifier(), options);
  ASSERT_TRUE(id.ok());
  std::vector<southbound::FlowMod> installed = bus.mods_for(SwitchId{2});
  ASSERT_EQ(installed.size(), 2u);
  bus.mods.clear();

  EXPECT_EQ(paths.resync_switch(SwitchId{2}), 2u);
  ASSERT_EQ(bus.mods.size(), 2u);
  const InstalledPath* p = paths.path(*id);
  ASSERT_NE(p, nullptr);
  for (std::size_t k = 0; k < 2; ++k) {
    const southbound::FlowMod& mod = bus.mods[k];
    EXPECT_EQ(mod.op, southbound::FlowMod::Op::kAdd);
    EXPECT_EQ(mod.sw, SwitchId{2});
    EXPECT_EQ(mod.rule.cookie, p->rules[k + 1].second);
    EXPECT_EQ(mod.rule.cookie, installed[k].rule.cookie);
    EXPECT_TRUE(mod.rule.match == installed[k].rule.match);
    EXPECT_EQ(mod.rule.actions.size(), installed[k].rule.actions.size());
    EXPECT_EQ(mod.reserve_kbps, 500);
  }
  bus.mods.clear();
  EXPECT_EQ(paths.resync_switch(SwitchId{9}), 0u) << "no hop on that switch";
  EXPECT_TRUE(bus.mods.empty());
}

TEST(PathImplementerResync, RepushesTaggedClassifiersAndEachAggregateRuleOnce) {
  RecordingBus bus;
  dataplane::TagAllocator alloc;
  PathImplementer paths(&bus, 1, 1);
  paths.set_tag_allocator(&alloc);
  ComputedRoute route = three_hop_route();
  std::uint32_t tag = alloc.tag_for(SliceId{2}, 3, route.source, route.exit);
  PathSetupOptions options;
  options.shared_tag = Label{tag, 1};
  auto a = paths.setup(route, ue_classifier(1), options);
  auto b = paths.setup(route, ue_classifier(2), options);
  ASSERT_TRUE(a.ok() && b.ok());
  bus.mods.clear();

  // First hop: one per-path classifier each, under its own cookie.
  EXPECT_EQ(paths.resync_switch(SwitchId{1}), 2u);
  ASSERT_EQ(bus.mods.size(), 2u);
  EXPECT_EQ(bus.mods[0].rule.cookie, paths.path(*a)->rules[0].second);
  EXPECT_EQ(bus.mods[1].rule.cookie, paths.path(*b)->rules[0].second);
  EXPECT_EQ(bus.mods[0].rule.match.ue, UeId{1});
  EXPECT_EQ(bus.mods[1].rule.match.ue, UeId{2});

  // Transit and exit: the aggregate's shared rule, once for both paths.
  for (std::size_t hop : {1u, 2u}) {
    bus.mods.clear();
    SwitchId sw = route.hops[hop].sw;
    EXPECT_EQ(paths.resync_switch(sw), 1u);
    ASSERT_EQ(bus.mods.size(), 1u);
    EXPECT_EQ(bus.mods[0].op, southbound::FlowMod::Op::kAdd);
    EXPECT_EQ(bus.mods[0].rule.cookie, shared_tag_cookie(tag, hop));
    EXPECT_EQ(bus.mods[0].rule.match.label, tag);
  }
}

TEST(PathImplementer, RerouteKeepsTheIdAndSwapsTheRules) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  auto id = paths.setup(three_hop_route(), ue_classifier());
  ASSERT_TRUE(id.ok());
  const InstalledPath* p = paths.path(*id);
  ASSERT_NE(p, nullptr);
  auto old_rules = p->rules;
  Label old_label = p->label;
  bus.mods.clear();

  // access(1) -> detour core(4) -> border(3)
  ComputedRoute detour = three_hop_route();
  detour.hops[1] = RouteHop{SwitchId{4}, PortId{1}, PortId{2}};
  ASSERT_TRUE(paths.reroute(*id, detour).ok());

  EXPECT_EQ(paths.paths(), std::vector<PathId>{*id}) << "no replacement id";
  p = paths.path(*id);
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p->label.value, old_label.value) << "untagged path takes a fresh label";
  ASSERT_EQ(p->route.hops.size(), 3u);
  EXPECT_EQ(p->route.hops[1].sw, SwitchId{4});

  // The old cookies come out first, then the new route goes in.
  ASSERT_EQ(bus.mods.size(), 6u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(bus.mods[k].op, southbound::FlowMod::Op::kRemoveByCookie);
    EXPECT_EQ(bus.mods[k].sw, old_rules[k].first);
    EXPECT_EQ(bus.mods[k].cookie, old_rules[k].second);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    const southbound::FlowMod& mod = bus.mods[3 + k];
    EXPECT_EQ(mod.op, southbound::FlowMod::Op::kAdd);
    EXPECT_EQ(mod.sw, detour.hops[k].sw);
    EXPECT_EQ(mod.rule.cookie, p->rules[k].second);
    EXPECT_NE(mod.rule.cookie, old_rules[k].second);
  }
  EXPECT_EQ(paths.reroute(PathId{99}, detour).code(), ErrorCode::kNotFound);
}

TEST(PathImplementer, FailedRerouteErasesThePath) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  auto id = paths.setup(three_hop_route(), ue_classifier());
  ASSERT_TRUE(id.ok());

  // The detour's core switch refuses the install: the old rules are gone,
  // the half-installed new ones are rolled back, and so is the path.
  ComputedRoute detour = three_hop_route();
  detour.hops[1] = RouteHop{SwitchId{4}, PortId{1}, PortId{2}};
  bus.fail_on = SwitchId{4};
  EXPECT_EQ(paths.reroute(*id, detour).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(paths.path(*id), nullptr);
  EXPECT_TRUE(paths.paths().empty());
  EXPECT_EQ(bus.net_rules(), 0);

  auto other = paths.setup(three_hop_route(), ue_classifier(8));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(paths.reroute(*other, ComputedRoute{}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(paths.path(*other), nullptr);
  EXPECT_EQ(bus.net_rules(), 0);
}

TEST(PathImplementer, LabelsAreUniquePerPathAndTagged) {
  RecordingBus bus;
  PathImplementer paths(&bus, /*controller_tag=*/5, /*level=*/2);
  auto a = paths.setup(three_hop_route(), ue_classifier(1));
  auto b = paths.setup(three_hop_route(), ue_classifier(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const InstalledPath* pa = paths.path(*a);
  const InstalledPath* pb = paths.path(*b);
  EXPECT_NE(pa->label.value, pb->label.value);
  EXPECT_EQ(pa->label.value >> 20, 5u);  // controller tag in the high bits
  EXPECT_EQ(pa->label.owner_level, 2);
}

TEST(PathImplementer, VersionStampedAtIngress) {
  RecordingBus bus;
  PathImplementer paths(&bus, 1, 1);
  PathSetupOptions options;
  options.version = 7;
  ASSERT_TRUE(paths.setup(three_hop_route(), ue_classifier(), options).ok());
  EXPECT_TRUE(has_action(bus.mods[0], dataplane::ActionType::kSetVersion));
}

TEST(RouteIntact, DetectsMissingAndDownPieces) {
  Nib nib;
  for (std::uint64_t s : {1, 2, 3}) {
    SwitchRecord rec;
    rec.id = SwitchId{s};
    southbound::PortDesc p1, p2;
    p1.port = PortId{1};
    p2.port = s == 3 ? PortId{8} : PortId{2};
    rec.ports[p1.port] = p1;
    rec.ports[p2.port] = p2;
    nib.upsert_switch(rec);
  }
  nib.upsert_link({SwitchId{1}, PortId{2}}, {SwitchId{2}, PortId{1}}, {});
  nib.upsert_link({SwitchId{2}, PortId{2}}, {SwitchId{3}, PortId{1}}, {});
  ComputedRoute route = three_hop_route();
  EXPECT_TRUE(route_intact(nib, route));
  nib.set_links_at_up({SwitchId{2}, PortId{2}}, false);
  EXPECT_FALSE(route_intact(nib, route));
  nib.set_links_at_up({SwitchId{2}, PortId{2}}, true);
  EXPECT_TRUE(route_intact(nib, route));
  ASSERT_TRUE(nib.remove_switch(SwitchId{2}).ok());
  EXPECT_FALSE(route_intact(nib, route));
}

}  // namespace
}  // namespace softmow::nos
