// OpenFlow-style match/action flow tables.
//
// SoftMoW needs only a narrow rule language (paper §4.3): access switches
// classify packets on fine-grained fields (UE, destination prefix) and push
// a label; transit switches match on the single top label (plus optionally
// the in-port) and forward; border switches pop/push labels. Rules carry a
// version number for the consistent-update scheme of §6.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/shard_guard.h"
#include "core/flat_map.h"
#include "core/ids.h"
#include "core/packet.h"
#include "core/result.h"

namespace softmow::dataplane {

struct Match {
  std::optional<PortId> in_port;
  std::optional<std::uint32_t> label;      ///< matches the packet's top label
  std::optional<UeId> ue;                  ///< fine-grained classification
  std::optional<BsGroupId> bs_group;       ///< classification by origin group
  std::optional<PrefixId> dst_prefix;
  std::optional<std::uint32_t> version;    ///< consistent updates (§6)

  [[nodiscard]] bool matches(const Packet& pkt, PortId arrival_port,
                             BsGroupId origin_group) const;

  /// Number of fields constrained; used to break priority ties so the most
  /// specific rule wins deterministically.
  [[nodiscard]] int specificity() const;

  friend bool operator==(const Match&, const Match&) = default;
  [[nodiscard]] std::string str() const;
};

enum class ActionType : std::uint8_t {
  kPushLabel,   ///< push `label` onto the stack
  kPopLabel,    ///< pop the top label (no-op match guard should prevent underflow)
  kSwapLabel,   ///< replace the top label with `label`
  kOutput,      ///< emit on `port`
  kToController,///< punt to the controller (Packet-In)
  kSetVersion,  ///< stamp the packet's consistency version
  kDrop,
};

struct Action {
  ActionType type;
  Label label{};      ///< for push/swap
  PortId port{};      ///< for output
  std::uint32_t version = 0;  ///< for set-version

  [[nodiscard]] std::string str() const;
};

Action push_label(Label l);
Action pop_label();
Action swap_label(Label l);
Action output(PortId port);
Action to_controller();
Action set_version(std::uint32_t version);
Action drop();

struct FlowRule {
  std::uint64_t cookie = 0;   ///< installer-chosen identifier
  int priority = 0;           ///< higher wins
  Match match;
  std::vector<Action> actions;

  // Counters maintained by the switch.
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;

  [[nodiscard]] std::string str() const;
};

/// A match reduced to the fields it constrains: `mask` holds one bit per
/// set field (kInPort .. kVersion), the value members hold the set fields'
/// raw values and 0 for the others, so two matches are equal iff their keys
/// are. The same shape describes a header (a packet, or a symbolic class
/// whose concrete fields are in `mask`): a rule can match it iff the rule's
/// key equals `project(header, rule mask)` with the rule mask inside
/// `header.mask`.
struct MatchKey {
  static constexpr std::uint32_t kInPort = 1u << 0;
  static constexpr std::uint32_t kLabel = 1u << 1;
  static constexpr std::uint32_t kUe = 1u << 2;
  static constexpr std::uint32_t kBsGroup = 1u << 3;
  static constexpr std::uint32_t kDstPrefix = 1u << 4;
  static constexpr std::uint32_t kVersion = 1u << 5;
  static constexpr std::uint32_t kAllFields = (1u << 6) - 1;

  std::uint32_t mask = 0;
  std::uint32_t version = 0;
  std::uint64_t in_port = 0;
  std::uint64_t label = 0;
  std::uint64_t ue = 0;
  std::uint64_t bs_group = 0;
  std::uint64_t dst_prefix = 0;

  [[nodiscard]] static MatchKey of(const Match& m);
  /// The key of a concrete packet arriving on `arrival_port`: every field
  /// set, except the label when the stack is empty.
  [[nodiscard]] static MatchKey of(const Packet& pkt, PortId arrival_port,
                                   BsGroupId origin_group);
  /// `key` restricted to the fields of `mask` (which must lie in key.mask).
  [[nodiscard]] static MatchKey project(const MatchKey& key, std::uint32_t mask);

  friend bool operator==(const MatchKey&, const MatchKey&) = default;
};

struct MatchKeyHash {
  std::uint64_t operator()(const MatchKey& k) const;
};

/// Priority-ordered rule table with exact-duplicate rejection.
///
/// Memory model (DESIGN §12): rules live in a dense slot vector (swap-pop
/// erase), indexed by cookie and by match through flat open-addressing
/// tables. The match index is a tuple space: `MatchKey` -> head slot of an
/// intrusive chain (`next_`, one u32 per slot, whose top bit marks the
/// chain head) holding every rule with that exact match, one per priority,
/// plus a count of rules per match mask (`mask_count_`) and the list of
/// masks present. Install probes the bucket once to check for a conflict
/// (the chain walk looks for an equal priority) and once to link at the
/// head; removal, and the relink of the swap-popped rule, probe it once
/// each. Readers that need "every rule a header can match" (`lookup`, the
/// static verifier's walk and shadow check) probe one bucket per present
/// mask instead of scanning the table. The priority order is a lazily
/// rebuilt index of u32 slots for the `rules()` view: installs during a
/// bearer-setup burst append without sorting, a removal only marks the
/// index stale (swap-pop moved a slot under it), and the first view after
/// a mutation rebuilds and sorts it once.
class FlowTable {
 public:
  /// Priority-ordered, read-only view over the table (no copy). Invalidated
  /// by any table mutation — iterate-then-mutate must collect keys first.
  class RuleView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = FlowRule;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowRule*;
      using reference = const FlowRule&;

      iterator() = default;
      reference operator*() const { return (*rules_)[(*order_)[i_]]; }
      pointer operator->() const { return &**this; }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator copy = *this;
        ++i_;
        return copy;
      }
      friend bool operator==(const iterator& a, const iterator& b) { return a.i_ == b.i_; }

     private:
      friend class RuleView;
      iterator(const std::vector<FlowRule>* rules, const std::vector<std::uint32_t>* order,
               std::size_t i)
          : rules_(rules), order_(order), i_(i) {}
      const std::vector<FlowRule>* rules_ = nullptr;
      const std::vector<std::uint32_t>* order_ = nullptr;
      std::size_t i_ = 0;
    };

    [[nodiscard]] std::size_t size() const { return order_->size(); }
    [[nodiscard]] bool empty() const { return order_->empty(); }
    [[nodiscard]] const FlowRule& operator[](std::size_t i) const {
      return (*rules_)[(*order_)[i]];
    }
    [[nodiscard]] const FlowRule& front() const { return (*this)[0]; }
    [[nodiscard]] iterator begin() const { return {rules_, order_, 0}; }
    [[nodiscard]] iterator end() const { return {rules_, order_, order_->size()}; }

   private:
    friend class FlowTable;
    RuleView(const std::vector<FlowRule>* rules, const std::vector<std::uint32_t>* order)
        : rules_(rules), order_(order) {}
    const std::vector<FlowRule>* rules_;
    const std::vector<std::uint32_t>* order_;
  };

  /// Installs a rule. Replaces an existing rule with the same cookie.
  /// Rejects (kConflict) a rule whose (priority, match) is identical to a
  /// rule installed under a *different* cookie: the tie would otherwise be
  /// broken by cookie order, leaving one of the two silently shadowed.
  Result<void> install(FlowRule rule);
  /// Removes the rule with this cookie (cookies are unique: install
  /// replaces); returns how many were removed. Fails (kNotFound) when no
  /// rule carries the cookie.
  Result<std::size_t> remove_by_cookie(std::uint64_t cookie);
  /// Removes rules whose match equals `match` exactly; returns how many.
  /// Fails (kNotFound) when nothing matched.
  Result<std::size_t> remove_by_match(const Match& match);
  void clear();

  /// Highest-priority matching rule (ties: higher specificity, then lower
  /// cookie). Returns nullptr on table miss. Increments rule counters.
  FlowRule* lookup(const Packet& pkt, PortId arrival_port,
                   BsGroupId origin_group = BsGroupId{});

  /// The lookup order: priority desc, specificity desc, cookie asc. Total
  /// (cookies are unique), so the best of any candidate set is the first
  /// rule of that set in `rules()`.
  [[nodiscard]] static bool ranks_before(const FlowRule& a, const FlowRule& b);

  /// Visits every rule whose match `header` satisfies: one bucket probe per
  /// present mask inside `header.mask`, following each bucket's chain.
  /// Visiting order is unspecified; rank the visited rules with
  /// `ranks_before`. With a rule's own key as the header this visits every
  /// rule that dominates it (itself included).
  template <class F>
  void for_each_matching(const MatchKey& header, F&& visit) const {
    for (std::uint8_t mask : masks_) {
      if ((mask & ~header.mask) != 0) continue;
      const std::uint32_t* head = by_match_.find_value(MatchKey::project(header, mask));
      if (head == nullptr) continue;
      for (std::uint32_t slot = *head; slot != kNoSlot; slot = next_in_chain(slot))
        visit(rules_[slot]);
    }
  }

  /// Union of the fields constrained by some installed rule (MatchKey bits).
  [[nodiscard]] std::uint32_t constrained_fields() const;

  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  /// Rules in (priority desc, specificity desc, cookie asc) order, as a
  /// zero-copy view. Valid until the next mutation.
  [[nodiscard]] RuleView rules() const {
    ensure_sorted();
    return RuleView{&rules_, &order_};
  }
  /// The rule installed under `cookie`, or nullptr (O(1)).
  [[nodiscard]] const FlowRule* find_by_cookie(std::uint64_t cookie) const;

  /// Shard-ownership tag; identity is set by the owning Switch, the owner
  /// by mgmt::bind_shards when the hierarchy is pinned to an engine. A rule
  /// install that skips the southbound mailbox handoff fires here.
  [[nodiscard]] analysis::ShardGuard& guard() { return guard_; }

 private:
  static constexpr std::uint32_t kHead = 0x80000000u;  ///< `next_` flag: heads its chain
  static constexpr std::uint32_t kNoSlot = 0x7fffffffu;

  /// The slot after `slot` in its match chain, or kNoSlot.
  [[nodiscard]] std::uint32_t next_in_chain(std::uint32_t slot) const {
    return next_[slot] & ~kHead;
  }
  /// The slot whose successor is `slot`, walking the chain from `head`.
  [[nodiscard]] std::uint32_t predecessor(std::uint32_t head, std::uint32_t slot) const;
  /// Sets the successor of `slot`, keeping its head flag.
  void set_next(std::uint32_t slot, std::uint32_t next);
  /// Links `slot` (already in rules_) at the head of its match chain.
  void link(std::uint32_t slot, const MatchKey& key);
  /// Unlinks `slot` from its match chain, dropping an emptied bucket.
  void unlink(std::uint32_t slot, const MatchKey& key);
  /// Swap-pop removal of dense slot, fixing both indexes for the moved rule.
  void remove_slot(std::uint32_t slot);
  void ensure_sorted() const;

  std::vector<FlowRule> rules_;  ///< dense slots, mutation order (unsorted)
  core::FlatMap<std::uint64_t, std::uint32_t> by_cookie_;    ///< cookie -> slot
  core::FlatMap<MatchKey, std::uint32_t, MatchKeyHash> by_match_;  ///< match -> chain head
  std::vector<std::uint32_t> next_;  ///< per slot: next rule with the same match | kHead
  std::uint32_t mask_count_[MatchKey::kAllFields + 1] = {};  ///< rules per match mask
  std::vector<std::uint8_t> masks_;  ///< masks with a non-zero count, in arrival order
  /// Lazily maintained priority order over slots (see class comment):
  /// stale = rebuild from every slot, dirty = holds every slot, unsorted.
  mutable std::vector<std::uint32_t> order_;
  mutable bool order_stale_ = false;
  mutable bool order_dirty_ = false;
  analysis::ShardGuard guard_{"flowtable", 0};
};

}  // namespace softmow::dataplane
