// SoftCell-style multi-dimensional policy tags (slicing encapsulation).
//
// The paper's §4.3 encapsulation assigns one label per implemented path, so
// the core rule state grows linearly with the number of bearers. SoftCell
// (PAPERS.md) compresses core tables by tagging packets with the *policy*
// dimensions instead of the flow identity: every flow of the same tenant,
// policy clause and ingress/egress aggregate shares one tag — and therefore
// one set of transit rules. A tag is carried in the same 32-bit label field
// the swapping scheme uses, so switches, RecA translation and the verifier
// need no new match kinds.
//
// Bit layout of a tag value (disjoint from per-path labels, which keep the
// high bit clear — see nos::PathImplementer::allocate_label):
//
//   bit  31       tag marker (1 = policy tag, 0 = per-path label)
//   bits 26..30   slice id               (5 bits, 32 tenants)
//   bits 21..25   policy clause          (5 bits, 32 clauses per tenant)
//   bits 11..20   egress aggregate id    (10 bits)
//   bits  0..10   ingress aggregate id   (11 bits)
//
// Aggregate ids are dense indices handed out by the TagAllocator the first
// time an endpoint is seen, so equal inputs always produce equal tags
// (determinism across runs).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "core/ids.h"
#include "core/packet.h"

namespace softmow::dataplane {

/// Decoded view of a policy tag.
struct PolicyTag {
  SliceId slice;
  std::uint32_t clause = 0;
  std::uint32_t egress_agg = 0;
  std::uint32_t ingress_agg = 0;

  static constexpr std::uint32_t kMarkerBit = 0x8000'0000u;
  static constexpr std::uint32_t kMaxSlices = 32;     ///< 5 bits
  static constexpr std::uint32_t kMaxClauses = 32;    ///< 5 bits
  static constexpr std::uint32_t kMaxEgressAggs = 1024;   ///< 10 bits
  static constexpr std::uint32_t kMaxIngressAggs = 2048;  ///< 11 bits

  friend constexpr auto operator<=>(const PolicyTag&, const PolicyTag&) = default;

  [[nodiscard]] std::string str() const;
};

/// True iff `value` carries the tag marker bit.
[[nodiscard]] constexpr bool is_policy_tag(std::uint32_t value) {
  return (value & PolicyTag::kMarkerBit) != 0;
}
[[nodiscard]] constexpr bool is_policy_tag(const Label& label) {
  return is_policy_tag(label.value);
}

/// Packs the tag dimensions into a label value (marker bit set). Fields are
/// masked to their widths; callers validate ranges via TagAllocator.
[[nodiscard]] std::uint32_t encode_tag(const PolicyTag& tag);

/// Unpacks a label value; nullopt when the marker bit is clear.
[[nodiscard]] std::optional<PolicyTag> decode_tag(std::uint32_t value);

/// Hands out policy tags with deterministic dense aggregate ids. One
/// allocator is shared by every controller of a deployment (the slicing
/// subsystem owns it); allocation order is the deterministic bearer-setup
/// order, so tags are stable across runs.
///
/// Tag-space garbage collection: each live TagAggregate holds one reference
/// (retain/release, called by nos::PathImplementer) on the tag's ingress and
/// egress aggregate ids. When the last aggregate using an id drains, the
/// endpoint is forgotten and the id returns to a smallest-first free list,
/// so a week-long churn of bearer arrivals cannot exhaust the 10/11-bit id
/// spaces. Recycling is deterministic (std::set ordering), and a recycled id
/// can be re-issued to a different endpoint — so a tag is only good while an
/// aggregate holds it; a bearer brought back asks tag_for() afresh.
class TagAllocator {
 public:
  /// Tag for (slice, clause, ingress endpoint, egress endpoint). Endpoint
  /// aggregates are interned on first use (recycled ids first, then the next
  /// dense id). Returns a marker-bit label value.
  [[nodiscard]] std::uint32_t tag_for(SliceId slice, std::uint32_t clause, Endpoint ingress,
                                      Endpoint egress);

  /// One live TagAggregate started/stopped using `tag`'s aggregate ids.
  void retain(std::uint32_t tag);
  void release(std::uint32_t tag);

  [[nodiscard]] std::size_t ingress_aggregates() const { return ingress_.ids.size(); }
  [[nodiscard]] std::size_t egress_aggregates() const { return egress_.ids.size(); }
  /// References held by live TagAggregates on ingress / egress ids.
  [[nodiscard]] std::size_t ingress_references() const { return ingress_.references(); }
  [[nodiscard]] std::size_t egress_references() const { return egress_.references(); }
  /// Aggregate ids recycled so far (both directions) — the GC's work proof.
  [[nodiscard]] std::uint64_t ids_recycled() const { return recycled_; }

 private:
  /// One direction's id space (ingress or egress aggregates).
  struct Side {
    std::map<Endpoint, std::uint32_t> ids;        ///< endpoint -> aggregate id
    std::map<std::uint32_t, Endpoint> endpoints;  ///< reverse, for recycling
    std::map<std::uint32_t, std::size_t> live;    ///< id -> live aggregates
    std::set<std::uint32_t> free_ids;             ///< recycled, smallest first
    std::uint32_t next = 0;
    std::uint32_t cap;

    explicit Side(std::uint32_t cap_) : cap(cap_) {}
    std::uint32_t intern(Endpoint e);
    void retain(std::uint32_t id) { ++live[id]; }
    /// True when the id drained and was recycled.
    bool release(std::uint32_t id);
    [[nodiscard]] std::size_t references() const;
  };

  Side ingress_{PolicyTag::kMaxIngressAggs};
  Side egress_{PolicyTag::kMaxEgressAggs};
  std::uint64_t recycled_ = 0;
};

}  // namespace softmow::dataplane
