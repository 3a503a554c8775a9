#include "dataplane/policy_tag.h"

#include <sstream>

namespace softmow::dataplane {

namespace {
constexpr std::uint32_t kSliceShift = 26;
constexpr std::uint32_t kClauseShift = 21;
constexpr std::uint32_t kEgressShift = 11;
constexpr std::uint32_t kSliceMask = PolicyTag::kMaxSlices - 1;
constexpr std::uint32_t kClauseMask = PolicyTag::kMaxClauses - 1;
constexpr std::uint32_t kEgressMask = PolicyTag::kMaxEgressAggs - 1;
constexpr std::uint32_t kIngressMask = PolicyTag::kMaxIngressAggs - 1;
}  // namespace

std::string PolicyTag::str() const {
  std::ostringstream os;
  os << "tag{" << slice << " clause=" << clause << " in_agg=" << ingress_agg
     << " out_agg=" << egress_agg << "}";
  return os.str();
}

std::uint32_t encode_tag(const PolicyTag& tag) {
  std::uint32_t slice = static_cast<std::uint32_t>(tag.slice.valid() ? tag.slice.value : 0);
  return PolicyTag::kMarkerBit | ((slice & kSliceMask) << kSliceShift) |
         ((tag.clause & kClauseMask) << kClauseShift) |
         ((tag.egress_agg & kEgressMask) << kEgressShift) | (tag.ingress_agg & kIngressMask);
}

std::optional<PolicyTag> decode_tag(std::uint32_t value) {
  if (!is_policy_tag(value)) return std::nullopt;
  PolicyTag tag;
  tag.slice = SliceId{(value >> kSliceShift) & kSliceMask};
  tag.clause = (value >> kClauseShift) & kClauseMask;
  tag.egress_agg = (value >> kEgressShift) & kEgressMask;
  tag.ingress_agg = value & kIngressMask;
  return tag;
}

std::uint32_t TagAllocator::Side::intern(Endpoint e) {
  auto it = ids.find(e);
  if (it != ids.end()) return it->second;
  std::uint32_t id;
  if (!free_ids.empty()) {
    // Smallest recycled id first: the same arrival order always reuses the
    // same ids, keeping tags deterministic across runs.
    id = *free_ids.begin();
    free_ids.erase(free_ids.begin());
  } else {
    id = next++ % cap;
  }
  ids.emplace(e, id);
  endpoints[id] = e;
  return id;
}

bool TagAllocator::Side::release(std::uint32_t id) {
  auto it = live.find(id);
  if (it == live.end() || it->second == 0) return false;
  if (--it->second > 0) return false;
  live.erase(it);
  auto ep = endpoints.find(id);
  if (ep == endpoints.end()) return false;
  ids.erase(ep->second);
  endpoints.erase(ep);
  free_ids.insert(id);
  return true;
}

std::size_t TagAllocator::Side::references() const {
  std::size_t n = 0;
  for (const auto& [id, count] : live) n += count;
  return n;
}

std::uint32_t TagAllocator::tag_for(SliceId slice, std::uint32_t clause, Endpoint ingress,
                                    Endpoint egress) {
  PolicyTag tag;
  tag.slice = slice;
  tag.clause = clause;
  tag.ingress_agg = ingress_.intern(ingress);
  tag.egress_agg = egress_.intern(egress);
  return encode_tag(tag);
}

void TagAllocator::retain(std::uint32_t tag) {
  auto decoded = decode_tag(tag);
  if (!decoded) return;
  ingress_.retain(decoded->ingress_agg);
  egress_.retain(decoded->egress_agg);
}

void TagAllocator::release(std::uint32_t tag) {
  auto decoded = decode_tag(tag);
  if (!decoded) return;
  if (ingress_.release(decoded->ingress_agg)) ++recycled_;
  if (egress_.release(decoded->egress_agg)) ++recycled_;
}

}  // namespace softmow::dataplane
