// Static data-plane verifier (VeriFlow-style, adapted to SoftMoW's rule
// language): analyzes the *installed* rules themselves — no probe packets,
// no counter side effects — and checks the §4.3/§6 correctness story:
//
//   1. loop freedom      — no equivalence class revisits a (switch, header)
//                          state, and no walk exceeds the hop guard;
//   2. no blackholes     — every classified class reaches an egress/RAN
//                          port or an explicit drop/punt: a table miss,
//                          a down/unwired out-port, or a dead link
//                          mid-path is a finding;
//   3. label discipline  — label-stack depth never exceeds the configured
//                          bound (1 under recursive swapping, §4.3) and
//                          push/pop are balanced: no packet leaves the
//                          network or reaches the RAN still carrying a
//                          label, and no rule pops an empty stack;
//   4. shadowed/orphans  — rules unreachable due to priority/specificity
//                          domination, rules whose (switch, cookie) maps to
//                          no live installed path, and active bearers with
//                          no installed path behind them;
//   5. version coherence — no equivalence class can observe a mix of pre-
//                          and post-reconfiguration versions mid-update
//                          (§6 consistent updates).
//
// The verifier builds a symbolic rule graph: nodes are (switch, rule),
// edges are "this rule's output port leads to a rule that can match the
// emitted packet header". Traffic is partitioned into equivalence classes,
// one per classification rule (fine-grained match, no label), and each
// class is walked symbolically through the graph. Wildcarded fields stay
// symbolic and split lazily when a downstream rule constrains them.
//
// Complementary to mgmt::audit_data_plane: the probe audit exercises the
// real forwarding code with concrete packets (advancing counters); the
// static verifier covers states no probe reaches and names the exact
// (switch, cookie) behind every violation.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/flat_map.h"
#include "core/ids.h"
#include "dataplane/network.h"

namespace softmow::reca {
class Controller;
}  // namespace softmow::reca

namespace softmow::verify {

enum class Invariant : std::uint8_t {
  kLoop,            ///< equivalence class revisits a forwarding state
  kBlackhole,       ///< table miss / dead port / dead link mid-path
  kLabelDepth,      ///< stack depth exceeded the configured bound (§4.3)
  kUnbalancedStack, ///< pop on empty stack, or delivery with labels left
  kShadowedRule,    ///< rule can never fire (dominated by a higher rule)
  kOrphanRule,      ///< installed rule maps to no live path (NIB drift)
  kPathlessBearer,  ///< active bearer with no installed path behind it
  kMixedVersion,    ///< class observes pre- and post-update rules (§6)
  kCrossSlice,      ///< walk of one tenant's UE carries another tenant's tag
  kTagMismatch,     ///< delivered under a tag that decodes to the wrong slice
};
const char* to_string(Invariant invariant);

struct Finding {
  Invariant invariant = Invariant::kBlackhole;
  /// Where the violation manifests, and the rule responsible for it.
  SwitchId sw;
  std::uint64_t cookie = 0;
  /// The equivalence class that exposed it: its classifier's location.
  /// Invalid/0 for per-rule findings (shadowed, orphan) and bearer findings.
  SwitchId origin_switch;
  std::uint64_t origin_cookie = 0;
  /// Isolation findings only: the *offending* tag's slice — together with
  /// (sw, cookie) the exact triple a tenant escalation names.
  SliceId slice;
  std::string detail;

  [[nodiscard]] std::string str() const;
};

struct VerifyOptions {
  /// Maximum label-stack depth tolerated on the wire. 1 = the paper's
  /// single-label invariant (§4.3); the stacking strawman needs `levels`.
  std::size_t max_label_depth = 1;
};

/// Control-plane state the rule graph is cross-checked against. Built by
/// mgmt (live path rules of every leaf controller) and apps (bearer-to-path
/// claims); both checks run only over what the caller supplies.
struct ControlState {
  /// (switch, cookie) of every rule belonging to an *active* installed
  /// path. When `have_live_rules`, any installed rule outside this set is
  /// an orphan (controller/data-plane drift).
  bool have_live_rules = false;
  core::FlatSet<std::pair<SwitchId, std::uint64_t>> live_rules;

  struct BearerClaim {
    UeId ue;
    BearerId bearer;
    bool active = false;          ///< bearer record says traffic may flow
    bool path_installed = false;  ///< an active path actually backs it
  };
  std::vector<BearerClaim> bearers;

  /// Tenant ownership of subscribers (supplied by the slicing subsystem).
  /// When `have_slices`, every policy tag a UE's traffic carries must decode
  /// to that UE's slice; UEs absent from the map are unsliced and exempt.
  bool have_slices = false;
  core::FlatMap<UeId, SliceId> ue_slices;
};

/// Collects live path rules from leaf controllers (non-leaf controllers
/// program logical G-switches; their rules materialize through their
/// children's translations and are skipped).
[[nodiscard]] ControlState collect_control_state(
    const std::vector<const reca::Controller*>& controllers);

/// Mirrors mgmt::AuditReport: aggregate counters plus precise findings.
struct VerifyReport {
  std::size_t switches_analyzed = 0;
  std::size_t rules_analyzed = 0;
  std::size_t classes_analyzed = 0;
  std::size_t classes_delivered = 0;  ///< reached egress/RAN with clean stack
  std::size_t graph_nodes = 0;        ///< (switch, rule) nodes
  std::size_t graph_edges = 0;        ///< rule-to-rule forwarding edges seen

  std::size_t loops = 0;
  std::size_t blackholes = 0;
  std::size_t label_violations = 0;
  std::size_t unbalanced_stacks = 0;
  std::size_t shadowed_rules = 0;
  std::size_t orphan_rules = 0;
  std::size_t pathless_bearers = 0;
  std::size_t mixed_versions = 0;
  std::size_t cross_slices = 0;
  std::size_t tag_mismatches = 0;

  /// Per-slice isolation violations (the slicing SLO: must be zero).
  [[nodiscard]] std::size_t isolation_violations() const {
    return cross_slices + tag_mismatches;
  }

  std::vector<Finding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::size_t count(Invariant invariant) const;
  [[nodiscard]] std::string summary() const;
};

/// The analyzer. Holds per-class walk caches so that after a localized
/// change (one path installed or torn down) only the equivalence classes
/// whose walks touch a dirtied switch are re-analyzed.
class StaticVerifier {
 public:
  explicit StaticVerifier(const dataplane::PhysicalNetwork* net, VerifyOptions options = {});

  /// Full analysis: rebuilds every class walk and per-switch check.
  VerifyReport verify(const ControlState* state = nullptr);

  /// Incremental analysis after `dirty` switches changed: re-walks classes
  /// originating on or traversing a dirty switch and re-runs per-switch
  /// checks there; everything else is served from cache. Falls back to a
  /// full pass when no prior full pass exists.
  VerifyReport reverify(const std::vector<SwitchId>& dirty, const ControlState* state = nullptr);

 private:
  struct ClassKey {
    SwitchId sw;
    std::uint64_t cookie = 0;
    bool operator<(const ClassKey& o) const {
      if (sw != o.sw) return sw < o.sw;
      return cookie < o.cookie;
    }
  };
  /// A policy tag the walk put on (or found on) the wire, and the rule that
  /// did it. State-independent, so it caches with the walk; the slice
  /// cross-check against ControlState happens at assemble time.
  struct TagObservation {
    SwitchId sw;
    std::uint64_t cookie = 0;
    std::uint32_t tag = 0;
  };
  struct WalkResult {
    std::set<SwitchId> touched;
    std::vector<Finding> findings;
    std::set<std::pair<std::uint64_t, std::uint64_t>> edges;  ///< graph edges (node keys)
    bool delivered = false;
    UeId origin_ue;                           ///< classifier's concrete UE, if any
    std::vector<TagObservation> tags;         ///< every tag pushed/swapped en route
    std::vector<TagObservation> delivered_tags;  ///< last tag at each delivery
  };

  /// Symbolic table lookups of one pass, by how they were served
  /// (`verify_table_lookups_total{path}`).
  struct TableLookups {
    std::uint64_t index = 0;  ///< probed the match index
    std::uint64_t scan = 0;   ///< whole ordered table: a wildcard met a constrained field
  };

  /// Classifier rules on `sw` (the equivalence-class seeds there).
  [[nodiscard]] std::vector<ClassKey> classes_on(SwitchId sw) const;
  WalkResult walk_class(SwitchId sw, const dataplane::FlowRule& rule,
                        TableLookups& lookups) const;
  static void record(const TableLookups& lookups);
  [[nodiscard]] std::vector<Finding> per_switch_findings(SwitchId sw,
                                                         const ControlState* state) const;
  VerifyReport assemble(const ControlState* state) const;

  const dataplane::PhysicalNetwork* net_;
  VerifyOptions options_;
  bool primed_ = false;
  std::map<ClassKey, WalkResult> walks_;
  std::map<SwitchId, std::vector<Finding>> switch_findings_;
};

/// One-shot convenience wrapper (full pass, fresh verifier).
[[nodiscard]] VerifyReport verify_data_plane(const dataplane::PhysicalNetwork& net,
                                             const ControlState* state = nullptr,
                                             VerifyOptions options = {});

}  // namespace softmow::verify
