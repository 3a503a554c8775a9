// The slicing subsystem: tenant registration, deterministic provisioning,
// admission control against per-slice budget shares, cross-tenant ownership
// enforcement, and the encapsulation switch (tags vs §4.3 labels).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "softmow/softmow.h"

namespace softmow {
namespace {

class SliceManagerTest : public ::testing::Test {
 protected:
  void SetUp() override { scenario = topo::build_scenario(topo::small_scenario_params(11)); }

  std::unique_ptr<slice::SliceManager> make_manager(
      slice::EncapMode mode, double budget_kbps = 4.0e6) {
    slice::SliceManager::Options opts;
    opts.encap = mode;
    opts.bearer_budget_kbps = budget_kbps;
    return std::make_unique<slice::SliceManager>(*scenario, opts);
  }

  SliceId add(slice::SliceManager& mgr, const char* name, double share = 0.5) {
    slice::SliceSpec spec;
    spec.name = name;
    spec.share = share;
    auto id = mgr.add_slice(spec);
    EXPECT_TRUE(id.ok());
    return *id;
  }

  std::unique_ptr<topo::Scenario> scenario;
};

TEST_F(SliceManagerTest, SliceIdsAreDenseAndCapped) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  for (std::uint64_t i = 0; i < dataplane::PolicyTag::kMaxSlices; ++i) {
    slice::SliceSpec spec;
    // Formatted into a buffer: GCC 12's -O3 inliner raises a spurious
    // -Wrestrict on string concatenation here.
    char name[24];
    std::snprintf(name, sizeof name, "t%llu", static_cast<unsigned long long>(i));
    spec.name = name;
    spec.share = 1.0 / 32;
    auto id = mgr->add_slice(spec);
    ASSERT_TRUE(id.ok()) << i;
    EXPECT_EQ(id->value, i);
  }
  slice::SliceSpec overflow;
  overflow.name = "one-too-many";
  auto id = mgr->add_slice(overflow);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.code(), ErrorCode::kExhausted);
}

TEST_F(SliceManagerTest, RejectsNonPositiveShare) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  slice::SliceSpec spec;
  spec.name = "zero";
  spec.share = 0;
  auto id = mgr->add_slice(spec);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.code(), ErrorCode::kInvalidArgument);
}

TEST_F(SliceManagerTest, ProvisionAttachesDisjointSubscriberNamespaces) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  SliceId a = add(*mgr, "a");
  SliceId b = add(*mgr, "b");
  ASSERT_EQ(*mgr->provision(a, 3), 3u);
  ASSERT_EQ(*mgr->provision(b, 3), 3u);
  EXPECT_EQ(mgr->subscribers(a).size(), 3u);
  for (UeId ue : mgr->subscribers(a)) {
    EXPECT_EQ(mgr->ue_slices().at(ue), a);
    for (UeId other : mgr->subscribers(b)) EXPECT_NE(ue, other);
  }
  // Provisioning is deterministic: a second manager over an identically
  // built scenario attaches the same UEs.
  auto scenario2 = topo::build_scenario(topo::small_scenario_params(11));
  slice::SliceManager mgr2(*scenario2, slice::SliceManager::Options{});
  SliceId a2 = add(mgr2, "a");
  ASSERT_EQ(*mgr2.provision(a2, 3), 3u);
  EXPECT_EQ(mgr2.subscribers(a2), mgr->subscribers(a));
}

TEST_F(SliceManagerTest, OpenBearerStampsSliceTagOnClassifier) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  SliceId id = add(*mgr, "tagged");
  ASSERT_EQ(*mgr->provision(id, 1), 1u);
  UeId ue = mgr->subscribers(id).front();
  auto bearer = mgr->open_bearer(id, ue, PrefixId{17}, apps::ApplicationClass::kDefault);
  ASSERT_TRUE(bearer.ok());

  // The access classifier for this UE must apply a policy tag that decodes
  // back to the owning slice.
  bool found = false;
  for (SwitchId sw_id : scenario->net.all_switches()) {
    const dataplane::Switch* sw = scenario->net.sw(sw_id);
    if (sw == nullptr) continue;
    for (const dataplane::FlowRule& rule : sw->table().rules()) {
      if (!rule.match.ue || !(*rule.match.ue == ue)) continue;
      for (const dataplane::Action& a : rule.actions) {
        if (a.type != dataplane::ActionType::kPushLabel &&
            a.type != dataplane::ActionType::kSwapLabel)
          continue;
        auto tag = dataplane::decode_tag(a.label.value);
        if (!tag) continue;
        EXPECT_EQ(tag->slice, id);
        EXPECT_EQ(tag->clause,
                  slice::clause_for(mgr->spec(id).tier, apps::ApplicationClass::kDefault));
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "no policy-tagged classifier installed for the bearer";

  slice::SliceStats stats = mgr->stats(id);
  EXPECT_EQ(stats.bearers_admitted, 1u);
  EXPECT_GT(stats.reserved_kbps, 0.0);
  EXPECT_FALSE(stats.bearers_by_level.empty());
}

TEST_F(SliceManagerTest, LabelModeInstallsNoTags) {
  auto mgr = make_manager(slice::EncapMode::kLabels);
  SliceId id = add(*mgr, "plain");
  ASSERT_EQ(*mgr->provision(id, 1), 1u);
  ASSERT_TRUE(mgr->open_bearer(id, mgr->subscribers(id).front(), PrefixId{17}).ok());
  for (SwitchId sw_id : scenario->net.all_switches()) {
    const dataplane::Switch* sw = scenario->net.sw(sw_id);
    if (sw == nullptr) continue;
    for (const dataplane::FlowRule& rule : sw->table().rules()) {
      for (const dataplane::Action& a : rule.actions) {
        if (a.type == dataplane::ActionType::kPushLabel ||
            a.type == dataplane::ActionType::kSwapLabel) {
          EXPECT_FALSE(dataplane::is_policy_tag(a.label)) << sw_id.str();
        }
      }
    }
  }
}

TEST_F(SliceManagerTest, CrossSliceBearerIsPermissionError) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  SliceId a = add(*mgr, "a");
  SliceId b = add(*mgr, "b");
  ASSERT_EQ(*mgr->provision(a, 1), 1u);
  ASSERT_EQ(*mgr->provision(b, 1), 1u);
  auto stolen = mgr->open_bearer(b, mgr->subscribers(a).front(), PrefixId{17});
  ASSERT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.code(), ErrorCode::kPermission);
  EXPECT_EQ(mgr->stats(b).bearers_admitted, 0u);
}

TEST_F(SliceManagerTest, AdmissionControlRejectsOverBudget) {
  // Budget fits exactly one default bearer (500 kbps) at share 1.0.
  auto mgr = make_manager(slice::EncapMode::kTags, /*budget_kbps=*/600);
  SliceId id = add(*mgr, "tight", /*share=*/1.0);
  ASSERT_EQ(*mgr->provision(id, 2), 2u);
  const auto& subs = mgr->subscribers(id);
  ASSERT_TRUE(
      mgr->open_bearer(id, subs[0], PrefixId{17}, apps::ApplicationClass::kDefault).ok());
  auto second =
      mgr->open_bearer(id, subs[1], PrefixId{18}, apps::ApplicationClass::kDefault);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), ErrorCode::kExhausted);
  slice::SliceStats stats = mgr->stats(id);
  EXPECT_EQ(stats.bearers_admitted, 1u);
  EXPECT_EQ(stats.bearers_rejected, 1u);
}

TEST_F(SliceManagerTest, CloseBearerReleasesBudget) {
  auto mgr = make_manager(slice::EncapMode::kTags, /*budget_kbps=*/600);
  SliceId id = add(*mgr, "churn", /*share=*/1.0);
  ASSERT_EQ(*mgr->provision(id, 1), 1u);
  UeId ue = mgr->subscribers(id).front();
  auto bearer = mgr->open_bearer(id, ue, PrefixId{17}, apps::ApplicationClass::kDefault);
  ASSERT_TRUE(bearer.ok());
  EXPECT_GT(mgr->stats(id).reserved_kbps, 0.0);

  ASSERT_TRUE(mgr->close_bearer(id, ue, *bearer).ok());
  EXPECT_EQ(mgr->stats(id).reserved_kbps, 0.0);
  auto again = mgr->close_bearer(id, ue, *bearer);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), ErrorCode::kNotFound);

  // The released budget admits a fresh bearer.
  EXPECT_TRUE(
      mgr->open_bearer(id, ue, PrefixId{18}, apps::ApplicationClass::kDefault).ok());
}

TEST_F(SliceManagerTest, UnknownSliceAndUnprovisionedUeAreTyped) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  auto bad_slice = mgr->open_bearer(SliceId{99}, UeId{1}, PrefixId{17});
  ASSERT_FALSE(bad_slice.ok());
  EXPECT_EQ(bad_slice.code(), ErrorCode::kNotFound);

  SliceId id = add(*mgr, "a");
  auto bad_ue = mgr->open_bearer(id, UeId{424242}, PrefixId{17});
  ASSERT_FALSE(bad_ue.ok());
  EXPECT_EQ(bad_ue.code(), ErrorCode::kPermission);
}

TEST_F(SliceManagerTest, BlockedTierIsRejectedByAuthorization) {
  auto mgr = make_manager(slice::EncapMode::kTags);
  slice::SliceSpec spec;
  spec.name = "blocked";
  spec.tier = apps::SubscriberClass::kBlocked;
  SliceId id = *mgr->add_slice(spec);
  ASSERT_EQ(*mgr->provision(id, 1), 1u);
  auto bearer = mgr->open_bearer(id, mgr->subscribers(id).front(), PrefixId{17});
  ASSERT_FALSE(bearer.ok());
  EXPECT_EQ(bearer.code(), ErrorCode::kPermission);
  EXPECT_EQ(mgr->stats(id).bearers_admitted, 0u);
}

TEST(SliceClauses, ClauseStaysInsideTagWidth) {
  for (auto tier : {apps::SubscriberClass::kBasic, apps::SubscriberClass::kPremium}) {
    for (auto app : {apps::ApplicationClass::kDefault, apps::ApplicationClass::kVoip,
                     apps::ApplicationClass::kVideo, apps::ApplicationClass::kBulk}) {
      EXPECT_LT(slice::clause_for(tier, app), dataplane::PolicyTag::kMaxClauses);
    }
  }
}

}  // namespace
}  // namespace softmow
