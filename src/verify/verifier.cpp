#include "verify/verifier.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "dataplane/policy_tag.h"
#include "obs/metrics.h"
#include "reca/controller.h"
#include "verify/rule_graph.h"

namespace softmow::verify {

using dataplane::Action;
using dataplane::ActionType;
using dataplane::FlowRule;
using dataplane::FlowTable;
using dataplane::MatchKey;
using dataplane::PeerKind;
using dataplane::Port;

/// Cap on symbolic splits per equivalence class (wildcard refinement).
constexpr std::size_t kMaxBranchesPerClass = 64;

const char* to_string(Invariant invariant) {
  switch (invariant) {
    case Invariant::kLoop: return "loop";
    case Invariant::kBlackhole: return "blackhole";
    case Invariant::kLabelDepth: return "label-depth";
    case Invariant::kUnbalancedStack: return "unbalanced-stack";
    case Invariant::kShadowedRule: return "shadowed-rule";
    case Invariant::kOrphanRule: return "orphan-rule";
    case Invariant::kPathlessBearer: return "pathless-bearer";
    case Invariant::kMixedVersion: return "mixed-version";
    case Invariant::kCrossSlice: return "cross-slice";
    case Invariant::kTagMismatch: return "tag-mismatch";
  }
  return "?";
}

std::string Finding::str() const {
  std::ostringstream os;
  os << "[" << to_string(invariant) << "] " << sw.str() << " cookie=" << cookie;
  if (slice.valid()) os << " slice=" << slice.str();
  if (origin_switch.valid())
    os << " (class " << origin_switch.str() << "/" << origin_cookie << ")";
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

std::size_t VerifyReport::count(Invariant invariant) const {
  std::size_t n = 0;
  for (const Finding& f : findings) n += f.invariant == invariant ? 1 : 0;
  return n;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << "verify: " << switches_analyzed << " switches, " << rules_analyzed << " rules, "
     << classes_analyzed << " classes (" << classes_delivered << " delivered), "
     << graph_edges << " rule-graph edges; "
     << (clean() ? "CLEAN" : std::to_string(findings.size()) + " findings");
  if (!clean()) {
    os << " [loops=" << loops << " blackholes=" << blackholes
       << " label=" << label_violations << " stack=" << unbalanced_stacks
       << " shadowed=" << shadowed_rules << " orphans=" << orphan_rules
       << " bearers=" << pathless_bearers << " versions=" << mixed_versions
       << " cross-slice=" << cross_slices << " tag-mismatch=" << tag_mismatches << "]";
  }
  return os.str();
}

ControlState collect_control_state(const std::vector<const reca::Controller*>& controllers) {
  ControlState state;
  for (const reca::Controller* c : controllers) {
    if (c == nullptr || !c->is_leaf()) continue;  // ancestors program G-switches
    state.have_live_rules = true;
    const nos::PathImplementer& paths = const_cast<reca::Controller*>(c)->paths();
    for (PathId id : paths.paths())
      for (const auto& rule : paths.path(id)->rules) state.live_rules.insert(rule);
    // Shared tag-aggregate rules are as live as per-path ones.
    for (const auto& rule : paths.shared_rules()) state.live_rules.insert(rule);
  }
  return state;
}

StaticVerifier::StaticVerifier(const dataplane::PhysicalNetwork* net, VerifyOptions options)
    : net_(net), options_(options) {}

std::vector<StaticVerifier::ClassKey> StaticVerifier::classes_on(SwitchId sw) const {
  std::vector<ClassKey> out;
  const dataplane::Switch* s = net_->sw(sw);
  if (s == nullptr) return out;
  for (const FlowRule& rule : s->table().rules()) {
    if (rule.match.label.has_value()) continue;  // transit rule, not a classifier
    if (!rule.match.ue && !rule.match.dst_prefix && !rule.match.bs_group) continue;
    out.push_back(ClassKey{sw, rule.cookie});
  }
  return out;
}

namespace {

/// A forwarding state a branch has been in: where, and with what header.
struct WalkState {
  Endpoint at;
  SymHeader header;
  friend bool operator==(const WalkState&, const WalkState&) = default;
};

/// One in-flight symbolic branch of a class walk.
struct Branch {
  Endpoint at;
  SymHeader header;
  std::vector<WalkState> visited;
  std::size_t hops = 0;
  std::uint64_t last_cookie = 0;        ///< rule that forwarded us here
  std::uint64_t last_node = 0;          ///< its graph-node key (0 = entry)
  std::vector<std::uint32_t> versions;  ///< distinct non-zero versions seen
  std::uint32_t last_tag = 0;           ///< last policy tag put on the wire
};

void note_version(Branch& b, std::uint32_t v) {
  if (v == 0) return;
  if (std::find(b.versions.begin(), b.versions.end(), v) == b.versions.end())
    b.versions.push_back(v);
}

/// Fills `out` with the rules of `table` a class with `header` arriving on
/// `port` may match, in lookup order. A rule whose fields are all concrete
/// in the header matches iff its bucket is the header's projection, so the
/// index serves the lookup; when some installed rule constrains a field the
/// header leaves wildcard, a split may be due and the candidates are the
/// whole ordered table. Either way the caller's evaluate_match loop sees
/// every rule that is not a certain kNo, in the order the table ranks them.
/// Returns whether the index served the lookup.
bool gather_candidates(const FlowTable& table, const SymHeader& header, PortId port,
                       std::vector<const FlowRule*>& out) {
  out.clear();
  std::uint32_t wildcard = 0;
  if (header.ue.any) wildcard |= MatchKey::kUe;
  if (header.bs_group.any) wildcard |= MatchKey::kBsGroup;
  if (header.dst_prefix.any) wildcard |= MatchKey::kDstPrefix;
  if (header.version.any) wildcard |= MatchKey::kVersion;
  if ((table.constrained_fields() & wildcard) != 0) {
    for (const FlowRule& rule : table.rules()) out.push_back(&rule);
    return false;
  }
  MatchKey key;
  key.mask = MatchKey::kAllFields & ~wildcard;
  key.in_port = port.value;
  if (header.labels.empty()) {
    key.mask &= ~MatchKey::kLabel;
  } else {
    key.label = header.labels.back().value;
  }
  key.ue = header.ue.value;
  key.bs_group = header.bs_group.value;
  key.dst_prefix = header.dst_prefix.value;
  key.version = static_cast<std::uint32_t>(header.version.value);
  table.for_each_matching(key, [&](const FlowRule& rule) { out.push_back(&rule); });
  std::sort(out.begin(), out.end(), [](const FlowRule* a, const FlowRule* b) {
    return FlowTable::ranks_before(*a, *b);
  });
  return true;
}

}  // namespace

StaticVerifier::WalkResult StaticVerifier::walk_class(SwitchId origin, const FlowRule& seed,
                                                      TableLookups& lookups) const {
  WalkResult result;
  std::set<std::tuple<int, std::uint64_t, std::uint64_t>> reported;
  auto report = [&](Invariant inv, SwitchId sw, std::uint64_t cookie, std::string detail) {
    if (!reported.emplace(static_cast<int>(inv), sw.value, cookie).second) return;
    result.findings.push_back(
        Finding{inv, sw, cookie, origin, seed.cookie, SliceId{}, std::move(detail)});
  };
  if (seed.match.ue) result.origin_ue = *seed.match.ue;

  const dataplane::Switch* origin_switch = net_->sw(origin);
  if (origin_switch == nullptr) return result;

  // Entry endpoint: the classifier's pinned in-port, or the radio port of an
  // access switch (uplink packets always enter there).
  PortId entry = seed.match.in_port.value_or(
      net_->is_access_switch(origin) ? PortId{1} : PortId{});

  Branch first;
  first.at = Endpoint{origin, entry};
  if (seed.match.ue) first.header.ue.bind(seed.match.ue->value);
  if (seed.match.bs_group) first.header.bs_group.bind(seed.match.bs_group->value);
  if (seed.match.dst_prefix) first.header.dst_prefix.bind(seed.match.dst_prefix->value);
  // Packets enter the network unversioned unless the classifier insists.
  first.header.version.bind(seed.match.version.value_or(0));
  if (first.header.bs_group.any) {
    const Port* p = origin_switch->port(entry);
    if (p != nullptr && p->peer == PeerKind::kBsGroup) first.header.bs_group.bind(p->bs_group.value);
  }

  std::deque<Branch> branches;
  branches.push_back(std::move(first));
  std::size_t branches_spawned = 1;
  std::vector<const FlowRule*> candidates;

  while (!branches.empty()) {
    Branch b = std::move(branches.front());
    branches.pop_front();

    while (true) {
      const dataplane::Switch* s = net_->sw(b.at.sw);
      if (s == nullptr) {
        report(Invariant::kBlackhole, b.at.sw, b.last_cookie, "walk left the switch set");
        break;
      }
      result.touched.insert(b.at.sw);

      WalkState state{b.at, b.header};
      if (std::find(b.visited.begin(), b.visited.end(), state) != b.visited.end()) {
        report(Invariant::kLoop, b.at.sw, b.last_cookie, "forwarding state revisited");
        break;
      }
      b.visited.push_back(std::move(state));
      if (++b.hops > dataplane::PhysicalNetwork::kHopGuard) {
        report(Invariant::kLoop, b.at.sw, b.last_cookie, "hop guard exceeded");
        break;
      }

      // --- symbolic table lookup (no counter side effects) ------------------
      const FlowRule* fired = nullptr;
      ++(gather_candidates(s->table(), b.header, b.at.port, candidates) ? lookups.index
                                                                        : lookups.scan);
      for (const FlowRule* candidate : candidates) {
        const FlowRule& rule = *candidate;
        MatchVerdict verdict = evaluate_match(rule.match, b.header, b.at.port);
        if (verdict == MatchVerdict::kNo) continue;
        if (verdict == MatchVerdict::kMust) {
          fired = &rule;
          break;
        }
        // kMay: split the class. The bound sub-class takes this rule; the
        // residue continues scanning lower-ranked rules.
        if (branches_spawned < kMaxBranchesPerClass) {
          Branch bound = b;
          bind_to_match(bound.header, rule.match);
          branches.push_back(std::move(bound));
          ++branches_spawned;
        }
        exclude_match(b.header, rule.match);
      }
      if (fired == nullptr) {
        // Distinguish a §6 version mismatch (a rule for this exact flow
        // exists under another version) from a plain hole.
        const FlowRule* version_twin = nullptr;
        SymHeader versionless = b.header;
        versionless.version = SymValue::wildcard();
        for (const FlowRule& rule : s->table().rules()) {
          if (!rule.match.version) continue;
          if (evaluate_match(rule.match, b.header, b.at.port) != MatchVerdict::kNo) continue;
          if (evaluate_match(rule.match, versionless, b.at.port) != MatchVerdict::kNo) {
            version_twin = &rule;
            break;
          }
        }
        if (version_twin != nullptr) {
          report(Invariant::kMixedVersion, b.at.sw, version_twin->cookie,
                 "rule reachable only under version " +
                     std::to_string(version_twin->match.version.value_or(0)) +
                     ", class carries " + b.header.version.str());
        } else {
          report(Invariant::kBlackhole, b.at.sw, b.last_cookie,
                 "table miss (implicit punt) at " + b.at.port.str());
        }
        break;
      }

      std::uint64_t node = node_key(b.at.sw, fired->cookie);
      if (b.last_node != 0) result.edges.emplace(b.last_node, node);
      b.last_node = node;
      b.last_cookie = fired->cookie;

      if (fired->match.version) note_version(b, *fired->match.version);

      // --- apply actions, mirroring dataplane::Switch::process --------------
      enum class Kind { kForward, kPunt, kDrop, kStop } kind = Kind::kDrop;
      PortId out_port;
      bool action_error = false;
      for (const Action& a : fired->actions) {
        switch (a.type) {
          case ActionType::kPushLabel:
            b.header.labels.push_back(a.label);
            if (dataplane::is_policy_tag(a.label)) {
              result.tags.push_back(TagObservation{b.at.sw, fired->cookie, a.label.value});
              b.last_tag = a.label.value;
            }
            break;
          case ActionType::kPopLabel:
            if (b.header.labels.empty()) {
              report(Invariant::kUnbalancedStack, b.at.sw, fired->cookie,
                     "pop on empty label stack");
              action_error = true;
            } else {
              b.header.labels.pop_back();
            }
            break;
          case ActionType::kSwapLabel:
            if (b.header.labels.empty()) {
              report(Invariant::kUnbalancedStack, b.at.sw, fired->cookie,
                     "swap on empty label stack");
              action_error = true;
            } else {
              b.header.labels.back() = a.label;
              if (dataplane::is_policy_tag(a.label)) {
                result.tags.push_back(TagObservation{b.at.sw, fired->cookie, a.label.value});
                b.last_tag = a.label.value;
              }
            }
            break;
          case ActionType::kOutput:
            kind = Kind::kForward;
            out_port = a.port;
            break;
          case ActionType::kToController:
            kind = Kind::kPunt;
            break;
          case ActionType::kSetVersion:
            b.header.version.bind(a.version);
            note_version(b, a.version);
            break;
          case ActionType::kDrop:
            kind = Kind::kStop;  // explicit drop: intended terminal
            break;
        }
        if (action_error || kind == Kind::kStop) break;
      }
      if (b.versions.size() > 1) {
        report(Invariant::kMixedVersion, b.at.sw, fired->cookie,
               "class observes " + std::to_string(b.versions.size()) +
                   " distinct update versions (§6)");
      }
      if (action_error) break;                   // dynamic plane drops the packet
      if (kind == Kind::kStop || kind == Kind::kPunt) break;  // explicit drop/punt: fine
      if (kind == Kind::kDrop) break;            // rule with no output: explicit drop

      // --- forward: resolve the out-port, mirroring inject_at ---------------
      const Port* out = s->port(out_port);
      if (out == nullptr || !out->up) {
        report(Invariant::kBlackhole, b.at.sw, fired->cookie,
               "output on unknown/down port " + out_port.str());
        break;
      }
      if (b.header.labels.size() > options_.max_label_depth) {
        report(Invariant::kLabelDepth, b.at.sw, fired->cookie,
               "label depth " + std::to_string(b.header.labels.size()) + " exceeds " +
                   std::to_string(options_.max_label_depth) + " (§4.3)");
      }
      if (out->peer == PeerKind::kExternal || out->peer == PeerKind::kBsGroup) {
        if (!b.header.labels.empty()) {
          report(Invariant::kUnbalancedStack, b.at.sw, fired->cookie,
                 "delivered with " + std::to_string(b.header.labels.size()) +
                     " label(s) still on the stack");
        } else {
          result.delivered = true;
          if (b.last_tag != 0)
            result.delivered_tags.push_back(
                TagObservation{b.at.sw, fired->cookie, b.last_tag});
        }
        break;
      }
      if (out->peer == PeerKind::kMiddlebox) {
        // Bounce: the packet re-enters the same switch from the middlebox port.
        b.at = Endpoint{b.at.sw, out_port};
        continue;
      }
      if (out->peer == PeerKind::kSwitch) {
        auto next = net_->peer_of(Endpoint{b.at.sw, out_port});
        if (!next) {
          report(Invariant::kBlackhole, b.at.sw, fired->cookie,
                 "link at " + out_port.str() + " is down/unwired");
          break;
        }
        b.at = *next;
        continue;
      }
      report(Invariant::kBlackhole, b.at.sw, fired->cookie, "output on unwired port");
      break;
    }
  }
  return result;
}

std::vector<Finding> StaticVerifier::per_switch_findings(SwitchId sw,
                                                         const ControlState* state) const {
  std::vector<Finding> out;
  const dataplane::Switch* s = net_->sw(sw);
  if (s == nullptr) return out;
  const FlowTable& table = s->table();
  const FlowTable::RuleView rules = table.rules();

  // A rule is dead iff a rule ranked before it (priority desc, specificity
  // desc, cookie asc) match-dominates it. Its dominators are exactly the
  // rules its own match key satisfies; the earliest-ranked one is named.
  for (const FlowRule& rule : rules) {
    const FlowRule* first = nullptr;
    table.for_each_matching(MatchKey::of(rule.match), [&](const FlowRule& other) {
      if (!FlowTable::ranks_before(other, rule)) return;  // itself, or later
      if (first == nullptr || FlowTable::ranks_before(other, *first)) first = &other;
    });
    if (first == nullptr) continue;
    out.push_back(Finding{Invariant::kShadowedRule, sw, rule.cookie, SwitchId{}, 0, SliceId{},
                          "unreachable: dominated by cookie " + std::to_string(first->cookie) +
                              " at priority " + std::to_string(first->priority)});
  }

  if (state != nullptr && state->have_live_rules) {
    for (const FlowRule& rule : rules) {
      if (state->live_rules.count({sw, rule.cookie}) != 0) continue;
      out.push_back(Finding{Invariant::kOrphanRule, sw, rule.cookie, SwitchId{}, 0, SliceId{},
                            "installed rule backs no live path (controller drift)"});
    }
  }
  return out;
}

VerifyReport StaticVerifier::assemble(const ControlState* state) const {
  VerifyReport report;
  std::set<std::pair<std::uint64_t, std::uint64_t>> edges;

  for (SwitchId sw : net_->all_switches()) {
    ++report.switches_analyzed;
    const dataplane::Switch* s = net_->sw(sw);
    report.rules_analyzed += s == nullptr ? 0 : s->table().size();
  }
  report.graph_nodes = report.rules_analyzed;

  for (const auto& [key, walk] : walks_) {
    ++report.classes_analyzed;
    if (walk.delivered) ++report.classes_delivered;
    edges.insert(walk.edges.begin(), walk.edges.end());
    report.findings.insert(report.findings.end(), walk.findings.begin(), walk.findings.end());
  }
  report.graph_edges = edges.size();

  for (const auto& [sw, findings] : switch_findings_)
    report.findings.insert(report.findings.end(), findings.begin(), findings.end());

  if (state != nullptr) {
    for (const ControlState::BearerClaim& claim : state->bearers) {
      if (!claim.active || claim.path_installed) continue;
      report.findings.push_back(Finding{Invariant::kPathlessBearer, SwitchId{}, 0, SwitchId{}, 0,
                                        SliceId{},
                                        "bearer " + claim.bearer.str() + " of " + claim.ue.str() +
                                            " is active but no installed path backs it"});
    }
  }

  // --- per-slice isolation (multi-tenant slicing) ----------------------------
  // Walk-cached tag observations are pure functions of the rule tables; the
  // tenant cross-check runs here so cached walks stay valid when only the
  // control state changes.
  if (state != nullptr && state->have_slices) {
    std::set<std::tuple<int, std::uint64_t, std::uint64_t>> reported;
    for (const auto& [key, walk] : walks_) {
      if (!walk.origin_ue.valid()) continue;
      auto owner = state->ue_slices.find(walk.origin_ue);
      if (owner == state->ue_slices.end()) continue;  // unsliced traffic
      SliceId slice = owner->second;
      for (const TagObservation& obs : walk.tags) {
        auto tag = dataplane::decode_tag(obs.tag);
        if (!tag || tag->slice == slice) continue;
        if (!reported.emplace(0, obs.sw.value, obs.cookie).second) continue;
        report.findings.push_back(
            Finding{Invariant::kCrossSlice, obs.sw, obs.cookie, key.sw, key.cookie, tag->slice,
                    "traffic of " + walk.origin_ue.str() + " (" + slice.str() +
                        ") carries " + tag->slice.str() + "'s tag"});
      }
      for (const TagObservation& obs : walk.delivered_tags) {
        auto tag = dataplane::decode_tag(obs.tag);
        if (!tag || tag->slice == slice) continue;
        if (!reported.emplace(1, obs.sw.value, obs.cookie).second) continue;
        report.findings.push_back(
            Finding{Invariant::kTagMismatch, obs.sw, obs.cookie, key.sw, key.cookie, tag->slice,
                    "delivered under " + tag->slice.str() + "'s tag; origin slice is " +
                        slice.str()});
      }
    }
  }

  report.loops = report.count(Invariant::kLoop);
  report.blackholes = report.count(Invariant::kBlackhole);
  report.label_violations = report.count(Invariant::kLabelDepth);
  report.unbalanced_stacks = report.count(Invariant::kUnbalancedStack);
  report.shadowed_rules = report.count(Invariant::kShadowedRule);
  report.orphan_rules = report.count(Invariant::kOrphanRule);
  report.pathless_bearers = report.count(Invariant::kPathlessBearer);
  report.mixed_versions = report.count(Invariant::kMixedVersion);
  report.cross_slices = report.count(Invariant::kCrossSlice);
  report.tag_mismatches = report.count(Invariant::kTagMismatch);

  obs::MetricsRegistry& reg = obs::default_registry();
  reg.counter("verify_runs_total")->inc();
  reg.counter("verify_findings_total")->inc(report.findings.size());
  reg.gauge("verify_classes")->set(static_cast<double>(report.classes_analyzed));
  reg.gauge("verify_clean")->set(report.clean() ? 1 : 0);
  for (Invariant inv :
       {Invariant::kLoop, Invariant::kBlackhole, Invariant::kLabelDepth,
        Invariant::kUnbalancedStack, Invariant::kShadowedRule, Invariant::kOrphanRule,
        Invariant::kPathlessBearer, Invariant::kMixedVersion, Invariant::kCrossSlice,
        Invariant::kTagMismatch}) {
    reg.gauge("verify_findings", {{"invariant", to_string(inv)}})
        ->set(static_cast<double>(report.count(inv)));
  }
  return report;
}

void StaticVerifier::record(const TableLookups& lookups) {
  obs::MetricsRegistry& reg = obs::default_registry();
  reg.counter("verify_table_lookups_total", {{"path", "index"}})->inc(lookups.index);
  reg.counter("verify_table_lookups_total", {{"path", "scan"}})->inc(lookups.scan);
}

VerifyReport StaticVerifier::verify(const ControlState* state) {
  TableLookups lookups;
  walks_.clear();
  switch_findings_.clear();
  for (SwitchId sw : net_->all_switches()) {
    const dataplane::Switch* s = net_->sw(sw);
    if (s == nullptr) continue;
    for (const ClassKey& key : classes_on(sw))
      walks_[key] = walk_class(sw, *s->table().find_by_cookie(key.cookie), lookups);
    auto findings = per_switch_findings(sw, state);
    if (!findings.empty()) switch_findings_[sw] = std::move(findings);
  }
  primed_ = true;
  record(lookups);
  return assemble(state);
}

VerifyReport StaticVerifier::reverify(const std::vector<SwitchId>& dirty,
                                      const ControlState* state) {
  if (!primed_) return verify(state);
  std::set<SwitchId> dirty_set(dirty.begin(), dirty.end());

  // Invalidate walks that originate on, or ever traversed, a dirty switch.
  // A rule change on a switch a walk never touched cannot divert it: the
  // walk's trajectory is a function of the tables it visited.
  std::vector<ClassKey> stale;
  for (const auto& [key, walk] : walks_) {
    if (dirty_set.count(key.sw) != 0) {
      stale.push_back(key);
      continue;
    }
    for (SwitchId sw : walk.touched) {
      if (dirty_set.count(sw) != 0) {
        stale.push_back(key);
        break;
      }
    }
  }
  for (const ClassKey& key : stale) walks_.erase(key);

  // Re-walk surviving seeds: classes on dirty switches (their rule set may
  // have grown or shrunk) plus the invalidated ones whose seed still exists.
  std::set<ClassKey> to_walk(stale.begin(), stale.end());
  for (SwitchId sw : dirty_set)
    for (const ClassKey& key : classes_on(sw)) to_walk.insert(key);

  TableLookups lookups;
  for (const ClassKey& key : to_walk) {
    const dataplane::Switch* s = net_->sw(key.sw);
    if (s == nullptr) continue;
    const FlowRule* seed = s->table().find_by_cookie(key.cookie);
    if (seed != nullptr && !seed->match.label) walks_[key] = walk_class(key.sw, *seed, lookups);
  }
  record(lookups);

  // Orphan findings depend on the caller-supplied live set, which may have
  // changed anywhere; recompute per-switch checks on every switch when a
  // control state is given, else only on dirty switches.
  std::vector<SwitchId> recheck;
  if (state != nullptr && state->have_live_rules) {
    recheck = net_->all_switches();
  } else {
    recheck.assign(dirty_set.begin(), dirty_set.end());
  }
  for (SwitchId sw : recheck) {
    auto findings = per_switch_findings(sw, state);
    if (findings.empty()) {
      switch_findings_.erase(sw);
    } else {
      switch_findings_[sw] = std::move(findings);
    }
  }
  return assemble(state);
}

VerifyReport verify_data_plane(const dataplane::PhysicalNetwork& net, const ControlState* state,
                               VerifyOptions options) {
  StaticVerifier verifier(&net, options);
  return verifier.verify(state);
}

}  // namespace softmow::verify
