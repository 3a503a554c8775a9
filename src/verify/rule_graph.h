// Symbolic packet headers and rule evaluation — the building blocks of the
// static verifier's rule graph.
//
// SoftMoW's rule language (dataplane::Match) only tests equality against
// concrete values, so a symbolic field needs just three shapes: a concrete
// value, "anything", or "anything except a finite set" (the residue left
// behind when a wildcarded class flows past a rule that constrains the
// field). Label stacks are always concrete: classes start unlabeled and
// every push/swap writes a concrete label.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/flow_table.h"

namespace softmow::verify {

/// A symbolic 64-bit header field: concrete, or wildcard minus exclusions.
struct SymValue {
  bool any = true;
  std::uint64_t value = 0;
  std::vector<std::uint64_t> excluded;  ///< meaningful only when `any`

  [[nodiscard]] static SymValue wildcard() { return SymValue{}; }
  [[nodiscard]] static SymValue concrete(std::uint64_t v) {
    return SymValue{false, v, {}};
  }

  [[nodiscard]] bool is(std::uint64_t v) const { return !any && value == v; }
  [[nodiscard]] bool can_be(std::uint64_t v) const;
  /// Narrows the field to exactly `v` (a symbolic split took this branch).
  void bind(std::uint64_t v);
  /// Removes `v` from the wildcard (the split's fall-through branch).
  void exclude(std::uint64_t v);

  [[nodiscard]] std::string str() const;

  /// Equal iff str() is: a concrete value, or the same exclusions in the
  /// same order.
  friend bool operator==(const SymValue& a, const SymValue& b) {
    return a.any == b.any && (a.any ? a.excluded == b.excluded : a.value == b.value);
  }
};

/// The symbolic header of one traffic equivalence class. `bs_group` plays
/// double duty as the packet's origin group (constant along a walk, like
/// the origin_group parameter of Match::matches).
struct SymHeader {
  SymValue ue;
  SymValue bs_group;
  SymValue dst_prefix;
  SymValue version;
  std::vector<Label> labels;  ///< concrete; back() is the top of stack

  /// Field-wise equality: with the arrival endpoint, the loop-detection
  /// state of a class walk.
  friend bool operator==(const SymHeader&, const SymHeader&) = default;
};

/// How a rule relates to a symbolic header at a concrete arrival port.
enum class MatchVerdict : std::uint8_t {
  kNo,    ///< no packet of the class matches
  kMust,  ///< every packet of the class matches
  kMay,   ///< a sub-class matches (wildcard field meets a concrete test)
};

/// Fields a kMay verdict would need to bind, as a bitmask.
struct MatchNeeds {
  bool ue = false;
  bool bs_group = false;
  bool dst_prefix = false;
  bool version = false;
};

/// Evaluates `match` against the class at `arrival_port`. On kMay, `needs`
/// (when non-null) receives the wildcard fields the match hinges on.
[[nodiscard]] MatchVerdict evaluate_match(const dataplane::Match& match, const SymHeader& header,
                                          PortId arrival_port, MatchNeeds* needs = nullptr);

/// Narrows `header` so that `match` becomes kMust (binds the kMay fields).
void bind_to_match(SymHeader& header, const dataplane::Match& match);

/// Adds the fall-through exclusions for a kMay rule that was *not* taken.
void exclude_match(SymHeader& header, const dataplane::Match& match);

/// True iff every packet matching `inner` also matches `outer` at equal
/// arrival semantics — i.e. `outer` placed earlier in the table makes
/// `inner` unreachable (rule shadowing).
[[nodiscard]] bool dominates(const dataplane::Match& outer, const dataplane::Match& inner);

/// A rule-graph node key: (switch, cookie) packed for edge bookkeeping.
[[nodiscard]] inline std::uint64_t node_key(SwitchId sw, std::uint64_t cookie) {
  return (sw.value << 24) ^ cookie;
}

}  // namespace softmow::verify
