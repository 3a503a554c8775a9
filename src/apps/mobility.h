// Mobility management application (paper §5.1 UE bearer management, §5.2 UE
// mobility). One instance attaches to every controller in the hierarchy:
//
//   * at a leaf it owns the UE table and path table, sets up bearers
//     locally when the routing service can satisfy them, and otherwise
//     delegates the request up through RecA;
//   * at an ancestor it serves delegated bearer requests over its larger
//     logical region, and orchestrates inter-region handovers between the
//     G-BSes exposed by its children (resource allocation at the target,
//     transfer path for in-flight packets, new paths, release at the
//     source);
//   * every controller logs the handovers it sees, producing the handover
//     graph consumed by region optimization (§5.3.1).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/flat_map.h"
#include "core/ids.h"
#include "core/log.h"
#include "core/result.h"
#include "core/weighted_adjacency.h"
#include "dataplane/network.h"
#include "nos/routing.h"
#include "reca/controller.h"

namespace softmow::apps {

// Eastbound message types.
inline constexpr const char* kBearerRequestMsg = "bearer-request";
inline constexpr const char* kBearerDeactivateMsg = "bearer-deactivate";
inline constexpr const char* kHandoverRequestMsg = "handover-request";
inline constexpr const char* kHoAllocateMsg = "ho-allocate";
inline constexpr const char* kHoReleaseMsg = "ho-release";
inline constexpr const char* kFetchHandoverGraphMsg = "fetch-handover-graph";

/// A bearer request, §5.1: (UE ID, BS ID, SRC IP, DST IP, REQ) — source
/// addressing is implied by the UE here; REQ carries QoS constraints.
struct BearerRequest {
  UeId ue;
  BsId bs;
  PrefixId dst_prefix;
  PathConstraints qos;
  nos::ServicePolicy policy;
  Metric objective = Metric::kHops;
  /// Owning tenant under multi-tenant slicing (invalid = unsliced). Carried
  /// through delegation so ancestors tag with the originating slice.
  SliceId slice;
  /// Policy clause within the slice (dimension of the SoftCell tag).
  std::uint32_t policy_clause = 0;
};

struct BearerRecord {
  BearerId id;
  BearerRequest request;
  bool active = true;
  bool handled_locally = true;     ///< false: an ancestor implemented the path
  PathId local_path;               ///< valid when handled locally
  int handled_level = 1;           ///< hierarchy level that satisfied it
  /// Globally unique handle to the ancestor-installed path (0 = none); used
  /// to request deactivation from below.
  std::uint64_t ancestor_key = 0;
};

struct UeRecord {
  UeId ue;
  BsId bs;
  BsGroupId group;
  bool idle = false;
  /// Dense flat store (DESIGN §12): bearer ids are allocated monotonically,
  /// so iteration order is allocation order (perturbed deterministically by
  /// teardown swap-pops).
  core::FlatMap<BearerId, BearerRecord> bearers;
};

// Delegation bodies (std::any payloads of AppMessages).
struct BearerDelegation {
  BearerRequest request;
  GBsId source_gbs;
};
struct BearerOutcome {
  bool ok = false;
  int handled_level = 0;
  std::uint64_t ancestor_key = 0;
  std::string error;
};
struct BearerDeactivate {
  UeId ue;
  std::uint64_t ancestor_key = 0;
};
struct HandoverDelegation {
  UeId ue;
  GBsId source_gbs;
  BsId source_bs;
  GBsId target_gbs;
  BsId target_bs;
  std::vector<BearerRequest> active_bearers;
  /// Ancestor keys of paths serving those bearers before the handover, so
  /// the serving ancestor(s) can tear them down.
  std::vector<std::uint64_t> old_ancestor_keys;
};
struct HandoverOutcome {
  bool ok = false;
  int handled_level = 0;
  std::string error;
};
struct HoAllocate {
  UeId ue;
  GBsId target_gbs;
  BsId target_bs;
  std::vector<BearerRequest> bearers;
  std::vector<std::uint64_t> ancestor_keys;  ///< one per bearer (0 = failed)
  int by_level = 0;                          ///< level of the serving ancestor
};
struct HoRelease {
  UeId ue;
  GBsId source_gbs;
};
struct HandoverGraphBody {
  WeightedAdjacency<GBsId> graph;
};

struct MobilityStats {
  std::uint64_t ue_arrivals = 0;
  std::uint64_t bearer_arrivals = 0;
  std::uint64_t bearers_local = 0;
  std::uint64_t bearers_delegated = 0;
  std::uint64_t bearers_failed = 0;
  std::uint64_t handover_requests = 0;       ///< seen at this controller
  std::uint64_t intra_group_handovers = 0;   ///< fast path: same BS group (§2.1)
  std::uint64_t intra_region_handovers = 0;  ///< handled without the parent
  std::uint64_t inter_region_handled = 0;    ///< this controller was the ancestor
  std::uint64_t handovers_delegated = 0;
  std::uint64_t handover_failures = 0;
};

class MobilityApp {
 public:
  /// Attaches to `controller`. `net` is needed only at leaves, to resolve
  /// base stations to BS groups (the radio side is not in the NIB).
  MobilityApp(reca::Controller* controller, const dataplane::PhysicalNetwork* net);

  /// Re-attaches to a replacement controller instance after failover (§6):
  /// the UE table, bearers and handover log survive — they are the "reliable
  /// storage" state — while eastbound handlers (and the reactive Packet-In
  /// hook, if it was on) re-register on the promoted instance.
  void rebind(reca::Controller* controller);

  // --- UE lifecycle (leaf-level entry points, §5.1) --------------------------
  Result<void> ue_attach(UeId ue, BsId bs);
  Result<void> ue_detach(UeId ue);
  /// Marks the UE idle: all its bearers' paths are deactivated (§5.1) and
  /// the records stay, inactive, until the UE is active again.
  Result<void> ue_idle(UeId ue);
  /// Marks the UE active and re-requests each of its inactive bearers from
  /// its current BS (restore_bearers): every bearer comes back on a fresh
  /// path under its old bearer id, or is dropped when it can no longer be
  /// served.
  Result<void> ue_active(UeId ue);

  /// Sets up a bearer; delegates to the parent when the local region cannot
  /// satisfy the QoS / policy (§5.1). kConflict, before any route is
  /// computed, when the UE already holds an active bearer to the prefix.
  Result<BearerId> request_bearer(const BearerRequest& request);
  Result<void> deactivate_bearer(UeId ue, BearerId bearer);

  /// Reactive mode (§5.1: the UE's request reaches the leaf controller "as
  /// a Packet-In message"): installs a Packet-In handler on the controller
  /// that treats a table-missed uplink packet from an attached UE as a
  /// default-QoS bearer request for its (UE, destination prefix) flow.
  void enable_reactive_bearers();
  [[nodiscard]] std::uint64_t reactive_bearers() const { return reactive_bearers_; }

  /// Hands the UE over to `target_bs` (§5.2): intra-region when this leaf
  /// controls the target group, otherwise delegated to the ancestors.
  Result<void> handover(UeId ue, BsId target_bs);

  [[nodiscard]] const UeRecord* ue(UeId id) const;
  /// UE records in attach order (dense flat store; deterministic).
  [[nodiscard]] const core::FlatMap<UeId, UeRecord>& ues() const { return ues_; }
  [[nodiscard]] std::size_t ue_count() const { return ues_.size(); }
  [[nodiscard]] const MobilityStats& stats() const { return stats_; }

  /// True iff this (ancestor) app holds `key` and the path behind it is
  /// still in the path book — the control-plane side of a delegated
  /// bearer's claim.
  [[nodiscard]] bool holds_ancestor_path(std::uint64_t key) const {
    auto it = ancestor_paths_.find(key);
    return it != ancestor_paths_.end() && controller_->paths().path(it->second) != nullptr;
  }

  /// The handover log of this controller mapped into its *exposed* ID space
  /// (border G-BSes 1:1, everything local collapsed onto the internal
  /// aggregate) — what a parent's region optimization consumes (§5.3.1).
  [[nodiscard]] WeightedAdjacency<GBsId> exposed_handover_graph() const;
  /// The raw handover log in this controller's own view.
  [[nodiscard]] const WeightedAdjacency<GBsId>& handover_log() const { return handover_log_; }
  /// Recursively fetches and merges the handover graphs of the whole subtree
  /// into this controller's own view (§5.3.1 "fetches all handover graphs").
  [[nodiscard]] WeightedAdjacency<GBsId> collect_handover_graph();
  /// Maps a graph in this controller's view onto its exposed ID space.
  [[nodiscard]] WeightedAdjacency<GBsId> map_to_exposed(
      const WeightedAdjacency<GBsId>& graph) const;

  // --- region reconfiguration support (§5.3.2) --------------------------------
  /// Extracts UE records of `group` (source side of a control transfer).
  /// Locally-implemented bearer paths are torn down here — the source leaf
  /// still masters the region's switches at this phase — and their bearers
  /// travel inactive, for the target side to restore.
  std::vector<UeRecord> extract_group_state(BsGroupId group);
  /// Absorbs transferred UE records (target side).
  void absorb_group_state(std::vector<UeRecord> records);
  /// Restores the inactive bearers of every UE of `group` that is not idle
  /// from this (target) leaf; idle UEs get theirs back on ue_active. Must
  /// run after the reconfiguration's logical-plane update so routes toward
  /// the adopted access switch exist.
  void rehome_transferred_bearers(BsGroupId group);

 private:
  using OnReply = std::function<void(const southbound::AppMessage&)>;
  /// The sender of a request awaiting our reply: a child G-switch, or the
  /// parent when `child` is invalid.
  struct Requester {
    SwitchId child;
    std::uint64_t request_id = 0;
  };

  void register_handlers();

  // --- the recursive bearer core (§5.1/§5.2), shared by every level ---------
  /// Routes `request` from `source` (a leaf's access port or an ancestor's
  /// G-BS attach port) and installs the classified path, reserving GBR
  /// bandwidth and sharing the slice's policy tag.
  Result<PathId> install_bearer_path(Endpoint source, const BearerRequest& request);
  /// Tears down an active bearer's path: locally, or by ancestor key upward.
  void release_bearer(UeId ue, BearerRecord& bearer);
  /// Delegates a bearer from our G-BS `source_gbs` to the parent, naming the
  /// G-BS in the parent's ID space.
  void climb(const BearerRequest& request, GBsId source_gbs, OnReply on_reply);
  /// The recursive step (§5.1): serves a bearer from our G-BS `source_gbs`
  /// here, or climbs when only an ancestor can; replies with a
  /// BearerOutcome either way.
  void serve_or_climb(const BearerRequest& request, GBsId source_gbs, OnReply on_reply);
  /// Asks the ancestors to tear down the path behind `key`.
  void deactivate_upward(UeId ue, std::uint64_t key, OnReply on_reply = nullptr);
  /// Replies to `from`.
  void answer(Requester from, southbound::AppMessage reply);
  /// A callback relaying a reply received from elsewhere to `from`.
  OnReply relay_to(Requester from);
  /// Forwards a request to the parent, or down toward G-BS `toward`, and
  /// relays the reply to `from`.
  void forward(Requester from, southbound::AppMessage msg,
               std::optional<GBsId> toward = std::nullopt);

  /// Ancestor-side: serve a delegated bearer request in this region.
  Result<BearerOutcome> serve_bearer(const BearerRequest& request, GBsId source_gbs);
  /// Ancestor-side: serve a delegated handover (§5.2 example procedure).
  Result<HandoverOutcome> serve_handover(const HandoverDelegation& delegation);
  /// Tears down an ancestor path by key; returns false if the key is not ours.
  bool deactivate_ancestor_key(std::uint64_t key);
  /// Deactivates one of this controller's paths.
  void drop_path(PathId id);
  /// The one way a bearer comes back: unless the UE is idle, re-requests
  /// every inactive bearer of `rec` from the UE's current BS, each under its
  /// superseded record's bearer id. A re-request that fails (or collides
  /// with an active bearer to the same prefix) leaves no record behind; its
  /// failure is logged at `level`.
  void restore_bearers(UeRecord& rec, LogLevel level, const char* when);
  /// request_bearer storing the bearer under `id` (a fresh one if invalid).
  Result<BearerId> request_bearer(const BearerRequest& request, BearerId id);
  /// Stores `bearer` under its id, or a fresh one if that is invalid.
  BearerId add_bearer(UeRecord& rec, BearerRecord bearer);
  [[nodiscard]] std::optional<Endpoint> gbs_attach(GBsId gbs) const;

  reca::Controller* controller_;
  const dataplane::PhysicalNetwork* net_;
  core::FlatMap<UeId, UeRecord> ues_;
  std::uint64_t next_bearer_ = 1;
  bool reactive_ = false;  ///< reactive bearers enabled (survives rebind)
  std::uint64_t reactive_bearers_ = 0;
  MobilityStats stats_;
  WeightedAdjacency<GBsId> handover_log_;
  /// Paths this (ancestor) controller installed for delegated bearers,
  /// addressable from below by globally unique key.
  core::FlatMap<std::uint64_t, PathId> ancestor_paths_;
  std::uint64_t next_ancestor_key_ = 1;
};

}  // namespace softmow::apps
