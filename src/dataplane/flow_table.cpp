#include "dataplane/flow_table.h"

#include <algorithm>
#include <sstream>

namespace softmow::dataplane {

bool Match::matches(const Packet& pkt, PortId arrival_port, BsGroupId origin_group) const {
  if (in_port && *in_port != arrival_port) return false;
  if (label) {
    if (pkt.labels.empty() || pkt.labels.back().value != *label) return false;
  }
  if (ue && pkt.ue != *ue) return false;
  if (bs_group && origin_group != *bs_group) return false;
  if (dst_prefix && pkt.dst_prefix != *dst_prefix) return false;
  if (version && pkt.version != *version) return false;
  return true;
}

int Match::specificity() const {
  int n = 0;
  if (in_port) ++n;
  if (label) ++n;
  if (ue) ++n;
  if (bs_group) ++n;
  if (dst_prefix) ++n;
  if (version) ++n;
  return n;
}

std::string Match::str() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto sep = [&] { if (!first) os << ","; first = false; };
  if (in_port) { sep(); os << "in=" << *in_port; }
  if (label) { sep(); os << "label=" << *label; }
  if (ue) { sep(); os << "ue=" << *ue; }
  if (bs_group) { sep(); os << "grp=" << *bs_group; }
  if (dst_prefix) { sep(); os << "dst=" << *dst_prefix; }
  if (version) { sep(); os << "ver=" << *version; }
  os << "}";
  return os.str();
}

Action push_label(Label l) { return Action{ActionType::kPushLabel, l, {}, 0}; }
Action pop_label() { return Action{ActionType::kPopLabel, {}, {}, 0}; }
Action swap_label(Label l) { return Action{ActionType::kSwapLabel, l, {}, 0}; }
Action output(PortId port) { return Action{ActionType::kOutput, {}, port, 0}; }
Action to_controller() { return Action{ActionType::kToController, {}, {}, 0}; }
Action set_version(std::uint32_t version) { return Action{ActionType::kSetVersion, {}, {}, version}; }
Action drop() { return Action{ActionType::kDrop, {}, {}, 0}; }

std::string Action::str() const {
  std::ostringstream os;
  switch (type) {
    case ActionType::kPushLabel: os << "push(" << label << ")"; break;
    case ActionType::kPopLabel: os << "pop"; break;
    case ActionType::kSwapLabel: os << "swap(" << label << ")"; break;
    case ActionType::kOutput: os << "out(" << port << ")"; break;
    case ActionType::kToController: os << "to-ctrl"; break;
    case ActionType::kSetVersion: os << "set-ver(" << version << ")"; break;
    case ActionType::kDrop: os << "drop"; break;
  }
  return os.str();
}

std::string FlowRule::str() const {
  std::ostringstream os;
  os << "rule[cookie=" << cookie << ",prio=" << priority << "] " << match.str() << " -> ";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) os << ";";
    os << actions[i].str();
  }
  return os.str();
}

MatchKey MatchKey::of(const Match& m) {
  MatchKey k;
  if (m.in_port) {
    k.mask |= kInPort;
    k.in_port = m.in_port->value;
  }
  if (m.label) {
    k.mask |= kLabel;
    k.label = *m.label;
  }
  if (m.ue) {
    k.mask |= kUe;
    k.ue = m.ue->value;
  }
  if (m.bs_group) {
    k.mask |= kBsGroup;
    k.bs_group = m.bs_group->value;
  }
  if (m.dst_prefix) {
    k.mask |= kDstPrefix;
    k.dst_prefix = m.dst_prefix->value;
  }
  if (m.version) {
    k.mask |= kVersion;
    k.version = *m.version;
  }
  return k;
}

MatchKey MatchKey::of(const Packet& pkt, PortId arrival_port, BsGroupId origin_group) {
  MatchKey k;
  k.mask = kAllFields;
  k.in_port = arrival_port.value;
  if (pkt.labels.empty()) {
    k.mask &= ~kLabel;
  } else {
    k.label = pkt.labels.back().value;
  }
  k.ue = pkt.ue.value;
  k.bs_group = origin_group.value;
  k.dst_prefix = pkt.dst_prefix.value;
  k.version = pkt.version;
  return k;
}

MatchKey MatchKey::project(const MatchKey& key, std::uint32_t mask) {
  MatchKey k;
  k.mask = mask;
  if (mask & kInPort) k.in_port = key.in_port;
  if (mask & kLabel) k.label = key.label;
  if (mask & kUe) k.ue = key.ue;
  if (mask & kBsGroup) k.bs_group = key.bs_group;
  if (mask & kDstPrefix) k.dst_prefix = key.dst_prefix;
  if (mask & kVersion) k.version = key.version;
  return k;
}

std::uint64_t MatchKeyHash::operator()(const MatchKey& k) const {
  using core::detail::mix64;
  std::uint64_t h = mix64((std::uint64_t{k.mask} << 32) | k.version);
  h = mix64(h ^ k.in_port);
  h = mix64(h ^ k.label);
  h = mix64(h ^ k.ue);
  h = mix64(h ^ k.bs_group);
  return mix64(h ^ k.dst_prefix);
}

bool FlowTable::ranks_before(const FlowRule& a, const FlowRule& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  int sa = a.match.specificity(), sb = b.match.specificity();
  if (sa != sb) return sa > sb;
  return a.cookie < b.cookie;
}

std::uint32_t FlowTable::constrained_fields() const {
  std::uint32_t fields = 0;
  for (std::uint8_t mask : masks_) fields |= mask;
  return fields;
}

Result<void> FlowTable::install(FlowRule rule) {
  SHARD_CHECKED(guard_, kWrite);
  const MatchKey key = MatchKey::of(rule.match);
  if (const std::uint32_t* head = by_match_.find_value(key); head != nullptr) {
    for (std::uint32_t slot = *head; slot != kNoSlot; slot = next_in_chain(slot)) {
      const FlowRule& shadow = rules_[slot];
      if (shadow.priority != rule.priority || shadow.cookie == rule.cookie) continue;
      return {ErrorCode::kConflict,
              "install of " + rule.str() + " would ambiguously shadow cookie " +
                  std::to_string(shadow.cookie) + " (same priority and match)"};
    }
  }
  if (const std::uint32_t* old = by_cookie_.find_value(rule.cookie); old != nullptr)
    remove_slot(*old);  // replace-by-cookie
  const std::uint32_t slot = static_cast<std::uint32_t>(rules_.size());
  rules_.push_back(std::move(rule));
  next_.push_back(kNoSlot);
  by_cookie_.try_emplace(rules_.back().cookie, slot);
  link(slot, key);
  if (!order_stale_) order_.push_back(slot);
  order_dirty_ = true;
  return Ok();
}

void FlowTable::link(std::uint32_t slot, const MatchKey& key) {
  auto [it, fresh] = by_match_.try_emplace(key, slot);
  if (!fresh) {
    next_[it->second] &= ~kHead;
    next_[slot] = it->second;
    it->second = slot;
  }
  next_[slot] |= kHead;
  if (mask_count_[key.mask]++ == 0) masks_.push_back(static_cast<std::uint8_t>(key.mask));
}

std::uint32_t FlowTable::predecessor(std::uint32_t head, std::uint32_t slot) const {
  while (next_in_chain(head) != slot) head = next_in_chain(head);
  return head;
}

void FlowTable::set_next(std::uint32_t slot, std::uint32_t next) {
  next_[slot] = (next_[slot] & kHead) | next;
}

void FlowTable::unlink(std::uint32_t slot, const MatchKey& key) {
  const std::uint32_t next = next_in_chain(slot);
  if ((next_[slot] & kHead) == 0) {
    set_next(predecessor(by_match_.at(key), slot), next);
  } else if (next == kNoSlot) {
    by_match_.erase(key);
  } else {
    by_match_.at(key) = next;
    next_[next] |= kHead;
  }
  if (--mask_count_[key.mask] == 0)
    masks_.erase(std::find(masks_.begin(), masks_.end(), static_cast<std::uint8_t>(key.mask)));
}

void FlowTable::remove_slot(std::uint32_t slot) {
  const FlowRule& doomed = rules_[slot];
  by_cookie_.erase(doomed.cookie);
  unlink(slot, MatchKey::of(doomed.match));
  const std::uint32_t last = static_cast<std::uint32_t>(rules_.size() - 1);
  if (slot != last) {
    rules_[slot] = std::move(rules_[last]);
    const FlowRule& moved = rules_[slot];
    by_cookie_.at(moved.cookie) = slot;
    // Repoint whatever linked to the moved rule: its bucket or its chain
    // predecessor.
    next_[slot] = next_[last];
    std::uint32_t& head = by_match_.at(MatchKey::of(moved.match));
    if (next_[slot] & kHead) {
      head = slot;
    } else {
      set_next(predecessor(head, last), slot);
    }
  }
  rules_.pop_back();
  next_.pop_back();
  // Slot identities just changed under the order: the next view rebuilds it.
  order_stale_ = true;
}

Result<std::size_t> FlowTable::remove_by_cookie(std::uint64_t cookie) {
  SHARD_CHECKED(guard_, kWrite);
  const std::uint32_t* slot = by_cookie_.find_value(cookie);
  if (slot == nullptr)
    return {ErrorCode::kNotFound, "no rule with cookie " + std::to_string(cookie)};
  remove_slot(*slot);
  return std::size_t{1};
}

Result<std::size_t> FlowTable::remove_by_match(const Match& match) {
  SHARD_CHECKED(guard_, kWrite);
  // Equal matches share one bucket. Collect the cookies first: every removal
  // relinks chains and moves slots.
  std::vector<std::uint64_t> cookies;
  if (const std::uint32_t* head = by_match_.find_value(MatchKey::of(match)); head != nullptr) {
    for (std::uint32_t slot = *head; slot != kNoSlot; slot = next_in_chain(slot))
      cookies.push_back(rules_[slot].cookie);
  }
  if (cookies.empty()) return {ErrorCode::kNotFound, "no rule matching " + match.str()};
  for (std::uint64_t c : cookies) remove_slot(by_cookie_.at(c));
  return cookies.size();
}

void FlowTable::clear() {
  SHARD_CHECKED(guard_, kWrite);
  rules_.clear();
  by_cookie_.clear();
  by_match_.clear();
  next_.clear();
  for (std::uint8_t mask : masks_) mask_count_[mask] = 0;
  masks_.clear();
  order_.clear();
  order_stale_ = false;
  order_dirty_ = false;
}

void FlowTable::ensure_sorted() const {
  if (order_stale_) {
    order_.resize(rules_.size());
    for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
    order_stale_ = false;
    order_dirty_ = true;
  }
  if (!order_dirty_) return;
  std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return ranks_before(rules_[a], rules_[b]);
  });
  order_dirty_ = false;
}

const FlowRule* FlowTable::find_by_cookie(std::uint64_t cookie) const {
  const std::uint32_t* slot = by_cookie_.find_value(cookie);
  return slot == nullptr ? nullptr : &rules_[*slot];
}

FlowRule* FlowTable::lookup(const Packet& pkt, PortId arrival_port, BsGroupId origin_group) {
  SHARD_CHECKED(guard_, kWrite);  // lookups advance rule counters
  const FlowRule* best = nullptr;
  for_each_matching(MatchKey::of(pkt, arrival_port, origin_group), [&](const FlowRule& r) {
    if (best == nullptr || ranks_before(r, *best)) best = &r;
  });
  if (best == nullptr) return nullptr;
  FlowRule& r = rules_[static_cast<std::size_t>(best - rules_.data())];
  ++r.packet_count;
  r.byte_count += pkt.wire_bytes();
  return &r;
}

}  // namespace softmow::dataplane
