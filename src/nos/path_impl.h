// Path implementation service (paper §4.3).
//
// Aggregates a flow onto a label-switched path: the first switch classifies
// (fine-grained match) and pushes the controller's label; transit switches
// forward on (label, in-port); the final switch pops the label before the
// packet leaves the region (egress port, G-BS port, or internal target).
//
// The same code runs at every level of the hierarchy: at a leaf the
// FlowMods program physical switches; at an ancestor they program child
// G-switches, whose RecA agents translate them via recursive label swapping.
//
// Northbound API (§4.3): PathSetup(match fields, path) / deactivatePath.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analysis/shard_guard.h"
#include "core/ids.h"
#include "core/packet.h"
#include "core/result.h"
#include "dataplane/flow_table.h"
#include "dataplane/policy_tag.h"
#include "nos/device_bus.h"
#include "nos/routing.h"
#include "obs/metrics.h"

namespace softmow::nos {

struct PathSetupOptions {
  /// Bandwidth reserved along the path (kbps): deducted from every crossed
  /// link's available bandwidth in the NIB and propagated to translating
  /// children via the FlowMod, so admission composes down the hierarchy and
  /// vFabric bandwidth stays truthful (§3.2).
  double reserve_kbps = 0;
  /// Consistent-update version stamped by the classifier (§6). 0 = unversioned.
  std::uint32_t version = 0;
  /// Rule priority for installed rules.
  int priority = 100;

  // --- recursive label swapping (§4.3) --------------------------------------
  // Used by RecA when translating a parent's virtual rule onto this
  // controller's topology: the parent's ("outer") label is popped where the
  // flow enters the region and pushed back where it leaves, so each packet
  // carries at most one label on any physical link.
  /// Pop the incoming outer label at the first switch (its value is the
  /// classifier's label match).
  bool outer_pop = false;
  /// Push this outer label at the last switch, after popping the local one.
  std::optional<Label> outer_push;
  /// Label-*stacking* baseline (§4.3 strawman): push these outer labels (in
  /// order, bottom first) at the first switch *under* the local label
  /// instead of swapping. Mutually exclusive with outer_pop/outer_push.
  std::vector<Label> push_under;
  /// Stacking baseline: after popping the local label at the exit, also pop
  /// this many outer labels beneath it (translates parent rules that pop).
  int extra_pops_at_exit = 0;

  // --- SoftCell-style policy-tag aggregation (slicing encapsulation) --------
  /// When set, the path classifies onto this shared policy tag instead of a
  /// freshly allocated per-path label: all paths carrying the same tag value
  /// share one set of transit/exit rules (a *tag aggregate*), and only the
  /// first-hop classifier is per-path — core rule state grows with the
  /// number of (slice, clause, ingress, egress) combinations, not with the
  /// number of bearers. Ignored for single-switch routes (no transit state
  /// to share).
  std::optional<Label> shared_tag;
};

struct InstalledPath {
  PathId id;
  Label label;
  dataplane::Match classifier;
  ComputedRoute route;
  PathSetupOptions options;
  /// (switch, cookie) per installed rule, for teardown.
  std::vector<std::pair<SwitchId, std::uint64_t>> rules;
  /// Link endpoints holding a bandwidth reservation for this path.
  std::vector<Endpoint> reserved_links;
  /// Middleboxes whose utilization this path raised (by capacity fraction).
  std::vector<std::pair<MiddleboxId, double>> reserved_middleboxes;
};

/// True iff every link and port a route relies on is still present and up in
/// `nib` (§6: after failures, "the controller finds affected local paths and
/// implements alternative shortest paths").
[[nodiscard]] bool route_intact(const Nib& nib, const ComputedRoute& route);

/// Shared transit/exit rules of one policy tag, refcounted across the paths
/// classifying onto it. The classifier of each attached path is per-path;
/// everything from the second hop on is installed once per aggregate under
/// deterministic shared cookies, so reinstall (resync, repair) is an
/// idempotent same-cookie replace at the flow table.
struct TagAggregate {
  Label tag;
  ComputedRoute route;
  PathSetupOptions options;
  /// (switch, cookie) per shared rule (hops 1..n-1), for teardown/resync.
  std::vector<std::pair<SwitchId, std::uint64_t>> rules;
  std::size_t refs = 0;
};

/// Deterministic cookie for shared rule `hop` of tag value `tag`: bit 63
/// marks shared-aggregate cookies so they never collide with the monotone
/// per-path cookie sequence.
[[nodiscard]] constexpr std::uint64_t shared_tag_cookie(std::uint32_t tag, std::size_t hop) {
  return (1ull << 63) | (static_cast<std::uint64_t>(tag) << 16) |
         (static_cast<std::uint64_t>(hop) & 0xffff);
}

class PathImplementer {
 public:
  /// `controller_tag` partitions the label space between controllers so a
  /// label read in a trace identifies its owner; `level` is stamped into
  /// labels for the single-label-invariant audit. `nib` (optional) enables
  /// bandwidth/middlebox admission bookkeeping.
  PathImplementer(DeviceBus* bus, std::uint32_t controller_tag, std::uint8_t level,
                  Nib* nib = nullptr);

  /// Implements `route` for flows matching `classifier`. Returns the path ID.
  Result<PathId> setup(const ComputedRoute& route, dataplane::Match classifier,
                       PathSetupOptions options = {});

  /// Removes every rule of the path, releases its resources and forgets it:
  /// the book holds only live paths.
  Result<void> deactivate(PathId id);
  /// Re-implements path `id` along `route` under the same PathId (§6
  /// failure repair: "implements alternative shortest paths"): tears it
  /// down, then installs the new route like a fresh setup — new label for an
  /// untagged path, new cookies, one path_setups_total. Every owner holding
  /// the id (bearer records, RecA cookie maps) stays valid. On failure the
  /// path is gone, as after deactivate().
  Result<void> reroute(PathId id, const ComputedRoute& route);

  /// Re-pushes the rules of every path crossing `sw`, rebuilt from
  /// the stored route with their original cookies — re-installing a rule
  /// under its own cookie is idempotent at the flow table, so this repairs a
  /// wiped or partially-programmed switch (crash restart, retry exhaustion)
  /// without disturbing its neighbours. Returns the number of rules pushed.
  std::size_t resync_switch(SwitchId sw);

  /// Checkpoint of every installed path plus the allocator positions —
  /// what a hot standby must carry to keep programming the data plane
  /// coherently after promotion (same labels, same cookies, no reuse).
  struct Snapshot {
    std::uint64_t next_label = 1;
    std::uint64_t next_cookie = 1;
    std::uint64_t next_path = 1;
    std::map<PathId, InstalledPath> paths;
    std::map<std::uint32_t, TagAggregate> aggregates;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(Snapshot snap);

  [[nodiscard]] const InstalledPath* path(PathId id) const;
  [[nodiscard]] std::vector<PathId> paths() const;

  /// Live tag aggregates (policy-tag encapsulation), keyed by tag value.
  [[nodiscard]] const std::map<std::uint32_t, TagAggregate>& aggregates() const {
    return aggregates_;
  }
  /// (switch, cookie) of every shared aggregate rule currently installed —
  /// folded into the verifier's live-rule set alongside per-path rules.
  [[nodiscard]] std::vector<std::pair<SwitchId, std::uint64_t>> shared_rules() const;

  /// Tag-space GC hook (not owned; null = no allocator bookkeeping): each
  /// live TagAggregate retains its tag's aggregate ids and gc_aggregate
  /// releases them.
  void set_tag_allocator(dataplane::TagAllocator* allocator) { tag_allocator_ = allocator; }

  /// Shard-ownership tag; identity is set by the owning controller, the
  /// owner by Controller::bind_shards.
  [[nodiscard]] analysis::ShardGuard& guard() { return guard_; }

 private:
  using RuleList = std::vector<std::pair<SwitchId, std::uint64_t>>;
  /// What the per-hop builder reads of one rule owner: a path, or a tag
  /// aggregate (`shared`: deterministic shared_tag_cookie cookies, no
  /// bandwidth riding the FlowMods, no label-push accounting).
  struct HopRules {
    const dataplane::Match& classifier;
    Label label;
    const ComputedRoute& route;
    const PathSetupOptions& options;
    bool shared;
  };
  [[nodiscard]] static HopRules hop_rules(const InstalledPath& p);
  [[nodiscard]] static HopRules hop_rules(const TagAggregate& agg);

  Label allocate_label();
  std::uint64_t allocate_cookie() { return next_cookie_++; }
  /// Builds the rule for hop `i` (§4.3 classify / transit / pop structure).
  [[nodiscard]] static dataplane::FlowRule build_rule(const HopRules& r, std::size_t i,
                                                      std::uint64_t cookie);
  /// The kAdd FlowMod programming hop `i` under `cookie` (counted in
  /// flowmods_sent_total). Shared by first install, resync, and aggregate
  /// rebuild.
  southbound::FlowMod hop_mod(const HopRules& r, std::size_t i, std::uint64_t cookie);

  // --- path lifecycle ------------------------------------------------------
  /// Program: sends the rules of hops [first, last), one delivery unit per
  /// run of same-switch hops, appending each (switch, cookie) to `rules`.
  /// On a failed send, removes what this call installed.
  Result<void> program(const HopRules& r, std::size_t first, std::size_t last, RuleList& rules);
  /// Remove: one kRemoveByCookie per rule from `from` on, one delivery unit
  /// per switch run; truncates `rules` to `from`.
  void remove(RuleList& rules, std::size_t from = 0);
  /// Stores `route` on a path about to be (re)installed and picks its label:
  /// the shared tag, or a fresh label (single-switch routes never tag).
  void place(InstalledPath& p, const ComputedRoute& route);
  /// Attach: joins the tag aggregate (adopting its route), acquires the
  /// path's resources and programs its own rules — all hops, or just the
  /// classifier of a tagged path — undoing all of it on failure.
  Result<void> attach(InstalledPath& p);
  /// Detach: removes the path's own rules, releases its resources and drops
  /// its reference on the tag aggregate. The path stays in the book.
  void detach(InstalledPath& p);
  Result<void> acquire_resources(InstalledPath& p);
  void release_resources(InstalledPath& p);

  // --- tag-aggregate plumbing ----------------------------------------------
  /// Finds or creates the aggregate for `tag`; rebuilds its shared rules in
  /// place when its stored route broke (failure repair: the first path of an
  /// aggregate to be repaired brings the fresh route along).
  Result<void> ensure_aggregate(Label tag, const ComputedRoute& route,
                                const PathSetupOptions& options);
  /// Drops the aggregate (shared rules included) once no path references it.
  void gc_aggregate(std::uint32_t tag_value);

  DeviceBus* bus_;
  Nib* nib_;
  dataplane::TagAllocator* tag_allocator_ = nullptr;
  std::uint32_t controller_tag_;
  std::uint8_t level_;
  std::uint64_t next_label_ = 1;
  std::uint64_t next_cookie_ = 1;
  std::uint64_t next_path_ = 1;
  std::map<PathId, InstalledPath> paths_;
  std::map<std::uint32_t, TagAggregate> aggregates_;
  // Per-level registry handles (shared across same-level controllers).
  obs::Counter* setups_metric_;       ///< path_setups_total{level}
  obs::Counter* flowmods_metric_;     ///< flowmods_sent_total{level}
  obs::Counter* label_push_metric_;   ///< label_pushes_total{level}
  analysis::ShardGuard guard_{"paths", 0};
};

}  // namespace softmow::nos
