// SoftCell-style policy tags: bit-layout roundtrip, disjointness from the
// per-path label space, and deterministic aggregate interning.
#include <gtest/gtest.h>

#include "dataplane/policy_tag.h"

namespace softmow {
namespace {

using dataplane::PolicyTag;
using dataplane::TagAllocator;
using dataplane::decode_tag;
using dataplane::encode_tag;
using dataplane::is_policy_tag;

TEST(PolicyTag, EncodeDecodeRoundtrip) {
  PolicyTag tag;
  tag.slice = SliceId{7};
  tag.clause = 13;
  tag.egress_agg = 555;
  tag.ingress_agg = 1999;
  std::uint32_t value = encode_tag(tag);
  EXPECT_TRUE(is_policy_tag(value));
  auto decoded = decode_tag(value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, tag);
}

TEST(PolicyTag, RoundtripAtFieldLimits) {
  PolicyTag tag;
  tag.slice = SliceId{PolicyTag::kMaxSlices - 1};
  tag.clause = PolicyTag::kMaxClauses - 1;
  tag.egress_agg = PolicyTag::kMaxEgressAggs - 1;
  tag.ingress_agg = PolicyTag::kMaxIngressAggs - 1;
  auto decoded = decode_tag(encode_tag(tag));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, tag);
}

TEST(PolicyTag, FieldsMaskedToWidth) {
  // Out-of-range inputs must not bleed into neighbouring fields.
  PolicyTag tag;
  tag.slice = SliceId{PolicyTag::kMaxSlices + 3};
  tag.clause = PolicyTag::kMaxClauses + 1;
  tag.egress_agg = PolicyTag::kMaxEgressAggs + 9;
  tag.ingress_agg = PolicyTag::kMaxIngressAggs + 5;
  auto decoded = decode_tag(encode_tag(tag));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->slice.value, 3u);
  EXPECT_EQ(decoded->clause, 1u);
  EXPECT_EQ(decoded->egress_agg, 9u);
  EXPECT_EQ(decoded->ingress_agg, 5u);
}

TEST(PolicyTag, PerPathLabelsAreNotTags) {
  // The swapping allocator keeps the high bit clear (see
  // nos::PathImplementer::allocate_label); any such value must neither carry
  // the marker nor decode.
  for (std::uint32_t value : {0u, 1u, 42u, 0x7fff'ffffu}) {
    EXPECT_FALSE(is_policy_tag(value)) << value;
    EXPECT_FALSE(decode_tag(value).has_value()) << value;
  }
  EXPECT_TRUE(is_policy_tag(PolicyTag::kMarkerBit));
}

TEST(TagAllocator, SameInputsShareOneTag) {
  TagAllocator alloc;
  Endpoint ingress{SwitchId{1}, PortId{1}};
  Endpoint egress{SwitchId{9}, PortId{2}};
  std::uint32_t a = alloc.tag_for(SliceId{0}, 4, ingress, egress);
  std::uint32_t b = alloc.tag_for(SliceId{0}, 4, ingress, egress);
  EXPECT_EQ(a, b);
  EXPECT_EQ(alloc.ingress_aggregates(), 1u);
  EXPECT_EQ(alloc.egress_aggregates(), 1u);
}

TEST(TagAllocator, DimensionsSeparateTags) {
  TagAllocator alloc;
  Endpoint ingress{SwitchId{1}, PortId{1}};
  Endpoint egress{SwitchId{9}, PortId{2}};
  Endpoint other_egress{SwitchId{10}, PortId{2}};
  std::uint32_t base = alloc.tag_for(SliceId{0}, 4, ingress, egress);
  EXPECT_NE(base, alloc.tag_for(SliceId{1}, 4, ingress, egress));
  EXPECT_NE(base, alloc.tag_for(SliceId{0}, 5, ingress, egress));
  EXPECT_NE(base, alloc.tag_for(SliceId{0}, 4, ingress, other_egress));
  EXPECT_EQ(alloc.egress_aggregates(), 2u);
}

TEST(TagAllocator, DeterministicAcrossInstances) {
  // Two allocators fed the same request sequence intern the same dense
  // aggregate ids, so the tag stream is reproducible run-to-run.
  TagAllocator a, b;
  std::vector<std::uint32_t> from_a, from_b;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Endpoint ingress{SwitchId{i % 4}, PortId{1}};
    Endpoint egress{SwitchId{100 + i % 3}, PortId{2}};
    SliceId slice{i % 2};
    std::uint32_t clause = static_cast<std::uint32_t>(i % 5);
    from_a.push_back(a.tag_for(slice, clause, ingress, egress));
    from_b.push_back(b.tag_for(slice, clause, ingress, egress));
  }
  EXPECT_EQ(from_a, from_b);
}

TEST(TagAllocatorGc, ReleasingLastReferenceRecyclesAggregateIds) {
  TagAllocator alloc;
  Endpoint ingress{SwitchId{1}, PortId{1}};
  Endpoint egress{SwitchId{9}, PortId{2}};
  std::uint32_t tag = alloc.tag_for(SliceId{0}, 4, ingress, egress);
  alloc.retain(tag);
  alloc.retain(tag);  // two live aggregates share the tag's ids
  EXPECT_EQ(alloc.ingress_aggregates(), 1u);

  alloc.release(tag);
  EXPECT_EQ(alloc.ingress_aggregates(), 1u) << "still one live reference";
  EXPECT_EQ(alloc.ids_recycled(), 0u);

  alloc.release(tag);
  EXPECT_EQ(alloc.ingress_aggregates(), 0u) << "last reference drained";
  EXPECT_EQ(alloc.egress_aggregates(), 0u);
  EXPECT_EQ(alloc.ids_recycled(), 2u);  // one ingress + one egress id
}

TEST(TagAllocatorGc, RecycledIdsAreReissuedSmallestFirst) {
  TagAllocator alloc;
  Endpoint egress{SwitchId{99}, PortId{1}};
  // Intern ingress ids 0, 1, 2.
  std::vector<std::uint32_t> tags;
  for (std::uint64_t i = 0; i < 3; ++i) {
    tags.push_back(
        alloc.tag_for(SliceId{0}, 0, Endpoint{SwitchId{i}, PortId{1}}, egress));
    alloc.retain(tags.back());
  }
  // Drain ids 1 then 0 (recycle order must not matter: reuse is smallest-first).
  alloc.release(tags[1]);
  alloc.release(tags[0]);
  EXPECT_EQ(alloc.ingress_aggregates(), 1u);

  // A new endpoint takes ingress id 0, the next takes 1 — deterministic reuse.
  std::uint32_t fresh_a =
      alloc.tag_for(SliceId{0}, 0, Endpoint{SwitchId{50}, PortId{1}}, egress);
  std::uint32_t fresh_b =
      alloc.tag_for(SliceId{0}, 0, Endpoint{SwitchId{51}, PortId{1}}, egress);
  ASSERT_TRUE(decode_tag(fresh_a).has_value());
  EXPECT_EQ(decode_tag(fresh_a)->ingress_agg, 0u);
  EXPECT_EQ(decode_tag(fresh_b)->ingress_agg, 1u);
}

TEST(TagAllocatorGc, ChurnDoesNotExhaustIdSpace) {
  // More open/close cycles than the 10-bit egress space could hold without
  // GC: every cycle fully drains, so the allocator stays at one live id.
  TagAllocator alloc;
  Endpoint ingress{SwitchId{1}, PortId{1}};
  for (std::uint64_t i = 0; i < 3000; ++i) {
    std::uint32_t tag = alloc.tag_for(SliceId{0}, 0, ingress,
                                      Endpoint{SwitchId{1000 + i}, PortId{2}});
    alloc.retain(tag);
    alloc.release(tag);
    ASSERT_LE(alloc.egress_aggregates(), 1u) << "cycle " << i;
  }
  EXPECT_GE(alloc.ids_recycled(), 3000u);
}

}  // namespace
}  // namespace softmow
