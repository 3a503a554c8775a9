// Multi-tenant network slicing (SoftCell-style virtual operators on the
// SoftMoW hierarchy). N slices share one physical WAN; each slice owns its
// own subscriber population (an HssApp/PcrfApp pair of its own), bearer mix,
// QoS policy and a per-slice view of where the hierarchy served its bearers,
// with admission control against a per-slice share of the bearer budget.
//
// Encapsulation is switchable: `kLabels` keeps the paper's §4.3 per-path
// recursive label swapping; `kTags` wires a SoftCell-style multi-dimensional
// policy-tag allocator into every controller so bearers of the same
// (slice, policy clause, ingress aggregate, egress aggregate) share one
// label-switched aggregate — transit rule tables shrink with slice count
// instead of growing with bearer count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/shard_guard.h"
#include "apps/subscriber.h"
#include "core/flat_map.h"
#include "core/ids.h"
#include "core/result.h"
#include "dataplane/policy_tag.h"
#include "obs/metrics.h"
#include "topo/scenario.h"

namespace softmow::slice {

enum class EncapMode : std::uint8_t {
  kLabels,  ///< §4.3 per-path recursive label swapping (the paper's scheme)
  kTags,    ///< SoftCell policy tags: per-aggregate shared transit rules
};
[[nodiscard]] const char* to_string(EncapMode mode);

/// Tenant template: who subscribes and what their bearers ask for.
struct SliceSpec {
  std::string name;
  double share = 0.25;  ///< fraction of the manager's bearer budget
  apps::SubscriberClass tier = apps::SubscriberClass::kBasic;
  /// Bearer application mix, rotated deterministically per request when the
  /// caller does not pin a class.
  std::vector<apps::ApplicationClass> bearer_mix = {apps::ApplicationClass::kDefault};
};

/// Read-only per-slice accounting.
struct SliceStats {
  std::string name;
  std::size_t subscribers = 0;
  std::uint64_t bearers_admitted = 0;
  std::uint64_t bearers_rejected = 0;  ///< admission-control kExhausted
  std::uint64_t bearers_failed = 0;    ///< admitted but path setup failed
  double reserved_kbps = 0;
  double budget_kbps = 0;
  /// Recursive view: how many of this slice's bearers each hierarchy level
  /// ended up serving (leaf = 1).
  std::map<int, std::uint64_t> bearers_by_level;
};

/// The policy clause a (tier, app) pair maps to — one dimension of the
/// SoftCell tag, dense in [0, 16).
[[nodiscard]] std::uint32_t clause_for(apps::SubscriberClass tier, apps::ApplicationClass app);

class SliceManager {
 public:
  struct Options {
    EncapMode encap = EncapMode::kTags;
    /// Total bearer bandwidth pool (kbps) split across slices by share.
    double bearer_budget_kbps = 4.0e6;
    std::uint64_t seed = 1;
  };

  /// Binds to a bootstrapped scenario. Under `kTags` this wires one shared
  /// TagAllocator into every controller of the hierarchy (ancestors included,
  /// so delegated bearers aggregate the same way); a leaf swapped in later
  /// inherits it from the instance it replaces. It also installs the
  /// ue->slice annotator into the management plane, so every verify pass
  /// enforces the per-tenant isolation invariants (kCrossSlice,
  /// kTagMismatch). The destructor removes both again.
  SliceManager(topo::Scenario& scenario, Options opts);
  ~SliceManager();
  SliceManager(const SliceManager&) = delete;
  SliceManager& operator=(const SliceManager&) = delete;

  /// Registers a tenant. Slice ids are dense from 0 in registration order
  /// (they become the tag's slice bits, capped at PolicyTag::kMaxSlices).
  Result<SliceId> add_slice(SliceSpec spec);

  /// Deterministically provisions and attaches `count` subscribers for the
  /// slice: UE ids are drawn from a per-slice namespace, profiles land in
  /// the slice's own HSS, and attachment points rotate through the
  /// scenario's BS groups under the manager's seed. Returns how many
  /// attached (groups whose leaf rejects the attach are skipped).
  Result<std::size_t> provision(SliceId id, std::size_t count);

  /// Admission-controlled bearer setup: authorizes against the slice's HSS,
  /// derives QoS/service policy from the slice's PCRF, charges the bearer's
  /// demand against the slice's budget share (typed kExhausted rejection
  /// when the share is spent), stamps the request with (slice, clause) and
  /// routes it through the leaf mobility app owning the UE's group.
  Result<BearerId> open_bearer(SliceId id, UeId ue, PrefixId dst,
                               apps::ApplicationClass app);
  /// As above, rotating through the slice's bearer_mix.
  Result<BearerId> open_bearer(SliceId id, UeId ue, PrefixId dst);

  /// Tears the bearer down and releases its budget reservation.
  Result<void> close_bearer(SliceId id, UeId ue, BearerId bearer);

  // --- cross-slice views ------------------------------------------------------
  [[nodiscard]] const core::FlatMap<UeId, SliceId>& ue_slices() const { return ue_slices_; }
  [[nodiscard]] std::vector<SliceId> slices() const;
  [[nodiscard]] const SliceSpec& spec(SliceId id) const;
  [[nodiscard]] SliceStats stats(SliceId id) const;
  [[nodiscard]] const std::vector<UeId>& subscribers(SliceId id) const;
  [[nodiscard]] apps::HssApp& hss(SliceId id);
  [[nodiscard]] apps::PcrfApp& pcrf(SliceId id);
  [[nodiscard]] EncapMode encap() const { return opts_.encap; }
  [[nodiscard]] dataplane::TagAllocator* tag_allocator() {
    return opts_.encap == EncapMode::kTags ? &tags_ : nullptr;
  }

  /// Shard-ownership tag over the per-tenant budget/bearer bookkeeping
  /// (open_kbps, reserved_kbps). Unowned by default: bearer churn driven
  /// synchronously between engine runs is exempt; pin it to a shard before
  /// driving churn from engine events.
  [[nodiscard]] analysis::ShardGuard& guard() { return guard_; }

 private:
  struct Tenant {
    SliceId id;
    SliceSpec spec;
    apps::HssApp hss;
    apps::PcrfApp pcrf;
    std::vector<UeId> subscribers;
    core::FlatMap<UeId, BsId> attach_bs;  ///< where each subscriber attached
    core::FlatMap<UeId, BsGroupId> attach_group;
    /// Open bearers and the demand charged for each.
    core::FlatMap<std::pair<UeId, BearerId>, double> open_kbps;
    double reserved_kbps = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failed = 0;
    std::size_t mix_cursor = 0;
    std::map<int, std::uint64_t> by_level;
    obs::Counter* admitted_metric = nullptr;
    obs::Counter* rejected_metric = nullptr;
    obs::Gauge* reserved_metric = nullptr;
  };

  [[nodiscard]] Tenant* tenant(SliceId id);
  [[nodiscard]] const Tenant* tenant(SliceId id) const;
  [[nodiscard]] double budget_of(const Tenant& t) const {
    return opts_.bearer_budget_kbps * t.spec.share;
  }

  topo::Scenario* scenario_;
  Options opts_;
  dataplane::TagAllocator tags_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  core::FlatMap<UeId, SliceId> ue_slices_;
  analysis::ShardGuard guard_{"slice_budgets", 0};
  /// ignored_errors_total{site=slice.close_bearer}: bearers the owning leaf
  /// could not deactivate when their slice closed them.
  obs::Counter* ignored_close_metric_;
};

/// The per-bearer bandwidth demand (kbps) a traffic class reserves when the
/// PCRF policy does not pin `min_bandwidth_kbps` itself.
[[nodiscard]] double default_demand_kbps(apps::ApplicationClass app);

}  // namespace softmow::slice
