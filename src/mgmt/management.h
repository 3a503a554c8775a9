// The management plane (paper §3.3, §5.3.2): bootstraps the recursive
// control plane over a physical network, configures radio/middlebox
// inventory into leaf NIBs, computes which BS groups are region-border
// groups, orchestrates bottom-up discovery, and executes the reconfiguration
// protocol that transfers control of a border G-BS between leaf regions
// (equal-role dual control, UE state transfer, master switchover, bottom-up
// re-abstraction).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "core/weighted_adjacency.h"
#include "dataplane/network.h"
#include "mgmt/failover.h"
#include "reca/controller.h"
#include "southbound/switch_agent.h"
#include "verify/verifier.h"

namespace softmow::mgmt {

struct RegionSpec {
  std::string name;
  std::vector<SwitchId> switches;  ///< core switches of this leaf region
  std::vector<BsGroupId> groups;   ///< BS groups homed in this region
};

struct HierarchySpec {
  std::vector<RegionSpec> leaves;
  /// Optional middle level: each entry lists the leaf indices under one
  /// level-2 controller. Empty => the root directly parents the leaves
  /// (2-level hierarchy, the paper's evaluation setting).
  std::vector<std::vector<std::size_t>> mid_regions;
  reca::LabelMode label_mode = reca::LabelMode::kSwapping;
  /// BS-group handover adjacency: drives border-group computation (§5.2).
  WeightedAdjacency<BsGroupId> group_adjacency;
};

/// Leaf-level G-BS id for a BS group: the identity is preserved across
/// levels and across reconfigurations.
[[nodiscard]] constexpr GBsId gbs_id_for_group(BsGroupId g) { return GBsId{g.value}; }
[[nodiscard]] constexpr BsGroupId group_for_gbs_id(GBsId g) { return BsGroupId{g.value}; }

/// Where a leaf controller instance is homed. Placement is a *modeling*
/// input to planned migration (§5.3 re-homing): the site label names the
/// hosting location and `control_rtt` is the modeled round-trip between
/// that site and the leaf's region — shard layout and hierarchy shape are
/// functions of the topology and never of placement.
struct LeafPlacement {
  std::string site = "core";
  sim::Duration control_rtt = sim::Duration::millis(30);

  friend bool operator==(const LeafPlacement&, const LeafPlacement&) = default;
};

class ManagementPlane {
 public:
  explicit ManagementPlane(dataplane::PhysicalNetwork* net);

  /// Builds the whole hierarchy: leaf controllers adopt their switches, leaf
  /// NIBs are configured with G-BS / middlebox inventory, discovery runs
  /// bottom-up level by level (sequential across levels, §4.1), borders are
  /// computed, and parents adopt children.
  void bootstrap(const HierarchySpec& spec);

  [[nodiscard]] reca::Controller& root() { return *root_; }
  [[nodiscard]] reca::Controller& leaf(std::size_t i) { return *leaves_.at(i); }
  [[nodiscard]] std::size_t leaf_count() const { return leaves_.size(); }
  [[nodiscard]] std::vector<reca::Controller*> leaves();
  [[nodiscard]] std::vector<reca::Controller*> mids();
  [[nodiscard]] std::vector<reca::Controller*> all_controllers();
  [[nodiscard]] reca::Controller* leaf_of_group(BsGroupId g);
  [[nodiscard]] southbound::Hub& hub() { return *hub_; }
  [[nodiscard]] dataplane::PhysicalNetwork& net() { return *net_; }

  /// Re-runs abstraction refresh + link discovery bottom-up (periodic
  /// maintenance, and after reconfiguration).
  void refresh_topology();

  /// §6 controller failure: replaces leaf `i` with `standby`'s promotion.
  /// The parent's stale channel to the dead instance is severed first (its
  /// undelivered messages count as dropped), the promoted controller
  /// re-attaches under the same G-switch identity, and borders/abstractions
  /// refresh bottom-up. Hardening toggles (self-healing, reliable delivery)
  /// carry over. The caller re-binds applications and shards afterwards.
  /// Returns the new leaf.
  reca::Controller& fail_over_leaf(
      std::size_t i, HotStandby& standby, sim::TimePoint at = sim::TimePoint::zero(),
      std::optional<sim::Duration> modeled_duration = std::nullopt);

  /// Planned migration flip (the §5.3.2 master-switchover step applied to a
  /// whole leaf): replaces leaf `i` with `target`, a pre-warmed instance
  /// answering to the same ControllerId that already holds equal-role
  /// sessions on the leaf's devices (built by `migrate::MigrationManager`).
  /// The source releases every device, the target seizes kMaster on each,
  /// the parent's channel into the source is severed and re-adopts the
  /// target's G-switch, borders/abstractions refresh bottom-up, and flow
  /// tables re-pin through the sanctioned handoff path. Returns the retired
  /// source so the caller can drain it; the data plane is untouched (zero
  /// rule churn). Placement bookkeeping records where the leaf now lives.
  std::unique_ptr<reca::Controller> migrate_leaf(std::size_t i,
                                                 std::unique_ptr<reca::Controller> target,
                                                 const LeafPlacement& placement,
                                                 sim::TimePoint at = sim::TimePoint::zero());

  /// Current placement of leaf `i` ("core" until a migration moves it).
  [[nodiscard]] const LeafPlacement& leaf_placement(std::size_t i) const;

  /// The single sanctioned shard-ownership transfer for leaf `i`'s flow
  /// tables: re-pins every device table to `to` under an
  /// `analysis::HandoffScope`, so `-DSOFTMOW_SHARD_CHECK=ON` blames any
  /// ownership flip that bypasses it. Both `bind_shards` and the
  /// failover/migration replacement paths funnel through here.
  void handoff_leaf_tables(std::size_t i, sim::ShardId to);

  // --- sharded execution -------------------------------------------------------
  /// Event shards the bootstrapped hierarchy naturally wants: one per leaf
  /// region, plus one shared by the middle level (when present), plus one
  /// for the root — shard count is a function of the topology alone, so
  /// per-shard observability repeats exactly run to run.
  [[nodiscard]] std::size_t natural_shard_count() const;
  /// Binds every controller's channels and the hub's frame transit onto
  /// `engine`: leaf i runs on shard i (folded modulo the engine's leaf
  /// budget when the engine was built with fewer shards), mids share the
  /// next shard, the root takes the last. `parent_link_delay` is the
  /// one-way parent<->child control-channel propagation time; it must be
  /// >= the engine's lookahead for clamp-free conservative execution.
  /// Bind after bootstrap; rebind after adopting new devices.
  void bind_shards(sim::ShardedSimulator& engine, sim::Duration parent_link_delay);
  /// Detaches everything from the engine (channels fall back to synchronous
  /// delivery). Safe to call when not bound.
  void unbind_shards();

  /// Recomputes border G-BS sets at every controller from the current
  /// group->leaf assignment and the group adjacency.
  void recompute_borders();

  /// Called during reassign_gbs between the equal-role phase and the master
  /// switchover, so mobility applications can move UE/path state (§5.3.2).
  using UeTransferHook =
      std::function<void(BsGroupId group, reca::Controller& from, reca::Controller& to)>;
  void set_ue_transfer_hook(UeTransferHook hook) { ue_transfer_hook_ = std::move(hook); }

  /// Called at the end of reassign_gbs, after the bottom-up logical-plane
  /// update, so transferred bearers can be re-established from the target
  /// leaf over the refreshed topology.
  void set_ue_rehome_hook(UeTransferHook hook) { ue_rehome_hook_ = std::move(hook); }

  /// §5.3.2 reconfiguration: transfers control of border G-BS `gbs` (one BS
  /// group) from the leaf under `source_gswitch` to a leaf under
  /// `target_gswitch`, both children of `initiator`. The physical wiring is
  /// untouched: the group's access uplink becomes a cross-region link that
  /// the initiator rediscovers.
  Result<void> reassign_gbs(reca::Controller& initiator, GBsId gbs, SwitchId source_gswitch,
                            SwitchId target_gswitch);

  [[nodiscard]] const WeightedAdjacency<BsGroupId>& group_adjacency() const {
    return spec_.group_adjacency;
  }
  [[nodiscard]] reca::LabelMode label_mode() const { return spec_.label_mode; }

  // --- static data-plane verification ----------------------------------------
  /// Verifier options matching this hierarchy: label depth 1 under recursive
  /// swapping (§4.3), hierarchy depth under the stacking strawman.
  [[nodiscard]] verify::VerifyOptions verify_options() const;
  /// Full static pass over every switch's installed rules, cross-checked
  /// against the live paths of every leaf controller.
  verify::VerifyReport verify_data_plane();
  /// Incremental pass after rules changed on `dirty` switches; falls back to
  /// a full pass on first use.
  verify::VerifyReport reverify_data_plane(const std::vector<SwitchId>& dirty);
  /// Hook run over the collected control state before each verify pass;
  /// the slicing subsystem installs one that fills `ControlState.ue_slices`
  /// so the verifier can enforce per-tenant isolation invariants.
  void set_slice_annotator(std::function<void(verify::ControlState&)> annotator) {
    slice_annotator_ = std::move(annotator);
  }
  /// Leaf index currently controlling `g`.
  [[nodiscard]] std::size_t leaf_index_of_group(BsGroupId g) const {
    return group_to_leaf_.at(g);
  }
  /// Mid-region index of a leaf (identity when there is no middle level).
  [[nodiscard]] std::size_t mid_index_of_leaf(std::size_t leaf) const {
    return leaf_to_mid_.at(leaf);
  }

 private:
  void configure_leaf_inventory(std::size_t leaf_index);
  southbound::GBsAnnounce make_group_announce(BsGroupId g) const;
  /// The leaf (in the subtree of `scope`) best suited to receive `g`:
  /// the controller of the neighbor group with the largest handover weight.
  reca::Controller* best_target_leaf(reca::Controller& scope, BsGroupId g);
  [[nodiscard]] bool controller_in_subtree(reca::Controller& root, reca::Controller& c) const;

  dataplane::PhysicalNetwork* net_;
  std::unique_ptr<southbound::Hub> hub_;
  HierarchySpec spec_;
  std::vector<std::unique_ptr<reca::Controller>> leaves_;
  std::vector<std::unique_ptr<reca::Controller>> mids_;
  std::unique_ptr<reca::Controller> root_;
  std::map<BsGroupId, std::size_t> group_to_leaf_;
  std::map<std::size_t, std::size_t> leaf_to_mid_;
  std::vector<LeafPlacement> placements_;  ///< per-leaf, sized at bootstrap
  UeTransferHook ue_transfer_hook_;
  UeTransferHook ue_rehome_hook_;
  std::uint64_t next_controller_ = 1;
  std::unique_ptr<verify::StaticVerifier> verifier_;  ///< walk caches for reverify
  std::function<void(verify::ControlState&)> slice_annotator_;
};

}  // namespace softmow::mgmt
