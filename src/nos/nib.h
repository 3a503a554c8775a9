// Network Information Base (paper §4): each controller's view of *its own*
// topology — physical for leaves, logical (G-switches, G-BSes,
// G-middleboxes) for non-leaf controllers. The NOS "has visibility of its
// own local network topology, does not maintain UE state, is not aware of
// any ancestor or descendant controllers."
//
// Memory model (DESIGN §12): entity stores are flat open-addressing tables
// (core::FlatMap) with dense, deterministically-ordered entry vectors; the
// link store is a dense vector with endpoint / pair indexes so the
// per-bearer admission path (reserve/release_link_bandwidth) is O(1)
// instead of a scan. List accessors return std::span views over mutable
// sorted caches keyed on the NIB version — a view is valid until the next
// mutation and must be copied if it has to survive one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/shard_guard.h"
#include "core/flat_map.h"
#include "core/graph.h"
#include "core/ids.h"
#include "core/result.h"
#include "southbound/messages.h"

namespace softmow::nos {

struct SwitchRecord {
  SwitchId id;
  bool is_gswitch = false;
  bool is_access = false;  ///< leaf-only: per-BS-group classification switch
  std::map<PortId, southbound::PortDesc> ports;  ///< sorted: discovery iterates
  /// For G-switches: best-path metrics per border-port pair (§3.2).
  std::vector<southbound::VFabricEntry> vfabric;

  [[nodiscard]] const southbound::PortDesc* port(PortId p) const;
};

/// A link between two switches in this controller's view. For a leaf these
/// are physical; for an ancestor they are the inter-G-switch links it alone
/// discovered (§4.1).
struct LinkRecord {
  Endpoint a;
  Endpoint b;
  EdgeMetrics metrics;  ///< bandwidth_kbps is *available* bandwidth
  bool up = true;
  /// Bandwidth this NIB has reserved on the link; rediscovery re-derives the
  /// available bandwidth as measured capacity minus this.
  double reserved_kbps = 0;
  /// Nib::bandwidth_epoch() of the last reservation change on this link.
  std::uint64_t bandwidth_epoch = 0;
};

/// An interdomain route learned at an egress point (§4.2): reaching `prefix`
/// via egress port `egress` costs `hops` / `latency_us` *outside* the
/// cellular WAN.
struct ExternalRoute {
  Endpoint egress;
  PrefixId prefix;
  double hops = 0;
  double latency_us = 0;

  friend bool operator==(const ExternalRoute&, const ExternalRoute&) = default;
};

class Nib {
 public:
  // --- switches -------------------------------------------------------------
  void upsert_switch(SwitchRecord rec);
  /// Drops a switch and every link incident to it (kNotFound when unknown).
  Result<void> remove_switch(SwitchId id);
  [[nodiscard]] const SwitchRecord* sw(SwitchId id) const;
  [[nodiscard]] SwitchRecord* sw_mutable(SwitchId id);
  /// Replaces a G-switch's vFabric (on a VFabricUpdate from the child).
  Result<void> set_vfabric(SwitchId id, std::vector<southbound::VFabricEntry> entries);
  /// Switch IDs in ascending order. View into a version-keyed cache: valid
  /// until the next NIB mutation.
  [[nodiscard]] std::span<const SwitchId> switches() const;
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::size_t total_ports() const;

  // --- links ----------------------------------------------------------------
  /// Records a discovered link (idempotent; endpoints normalized). On a
  /// known link the measured bandwidth is reduced by the link's reservations
  /// (floored at 0): rediscovery must not hand reserved bandwidth back.
  /// Rediscovering a link that is up with equal latency, hops and available
  /// bandwidth changes nothing and does not bump version().
  void upsert_link(Endpoint a, Endpoint b, EdgeMetrics metrics);
  /// Forgets a discovered link (kNotFound when the pair is not recorded).
  Result<void> remove_link(Endpoint a, Endpoint b);
  /// Removes every link incident to `sw`.
  void remove_links_of(SwitchId sw);
  /// Removes every link incident to the exact endpoint `e`.
  void remove_links_at(Endpoint e);
  Result<void> set_link_up(Endpoint a, Endpoint b, bool up);
  /// Marks every link touching `e` up/down (port-status handling, §6).
  void set_links_at_up(Endpoint e, bool up);
  /// Bandwidth admission bookkeeping: link metrics carry *available*
  /// bandwidth; reservations reduce it, releases restore it. Fails without
  /// side effects when the link is unknown or too thin (§3.2). O(1) via the
  /// endpoint index — this is the per-bearer hot path. A bandwidth change,
  /// not a topology change: it stamps the link with a new bandwidth_epoch()
  /// and leaves version() and the subscribers alone.
  Result<void> reserve_link_bandwidth(Endpoint at, double kbps);
  Result<void> release_link_bandwidth(Endpoint at, double kbps);

  /// Middlebox load accounting: shifts utilization by `capacity_fraction`
  /// (positive = busier). Clamped to [0, 1].
  Result<void> adjust_middlebox_utilization(MiddleboxId id, double capacity_fraction);
  [[nodiscard]] const std::vector<LinkRecord>& links() const { return links_; }
  /// The link record touching endpoint `e`, if any (first in discovery order).
  [[nodiscard]] const LinkRecord* link_at(Endpoint e) const;
  /// True if some discovered link uses this endpoint (=> internal port).
  [[nodiscard]] bool endpoint_linked(Endpoint e) const { return link_at(e) != nullptr; }

  // --- G-BSes (radio attachment points in this view) --------------------------
  void upsert_gbs(southbound::GBsAnnounce info);
  Result<void> remove_gbs(GBsId id);
  [[nodiscard]] const southbound::GBsAnnounce* gbs(GBsId id) const;
  /// G-BS IDs in ascending order; view valid until the next mutation.
  [[nodiscard]] std::span<const GBsId> gbs_list() const;

  // --- middleboxes -----------------------------------------------------------
  void upsert_middlebox(southbound::GMiddleboxAnnounce info);
  [[nodiscard]] const southbound::GMiddleboxAnnounce* middlebox(MiddleboxId id) const;
  /// Middlebox IDs in ascending order; view valid until the next mutation.
  [[nodiscard]] std::span<const MiddleboxId> middleboxes() const;
  [[nodiscard]] std::vector<MiddleboxId> middleboxes_of_type(dataplane::MiddleboxType t) const;

  // --- interdomain routes (§4.2) ----------------------------------------------
  // Route changes do not bump the topology version: the port graph and the
  // abstraction are independent of them, and a nation-wide deployment
  // carries ~1e4 prefixes x egress points.
  void upsert_external_route(ExternalRoute r);
  /// Routes for `prefix` in announcement order, as a view over the stored
  /// vector (no copy). Invalidated by the next route upsert for the prefix.
  [[nodiscard]] std::span<const ExternalRoute> external_routes(PrefixId prefix) const;
  [[nodiscard]] std::size_t external_route_count() const;
  /// Flattened copy of every route (checkpointing, §6).
  [[nodiscard]] std::vector<ExternalRoute> all_external_routes() const;

  // --- change notification ------------------------------------------------------
  // Two kinds of change. A topology change (any mutation but a bandwidth
  // reservation) bumps version() and runs the subscribers: consumers rebuild
  // (RecA re-abstraction, §5.3.2). A bandwidth change bumps only
  // bandwidth_epoch() and stamps the link: consumers patch the stamped links
  // (LinkRecord::bandwidth_epoch newer than the epoch they last saw).
  /// Monotonic topology version. Subscribers run after each bump.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  void subscribe(std::function<void()> on_change);
  /// Monotonic bandwidth epoch, bumped on every reserve/release.
  [[nodiscard]] std::uint64_t bandwidth_epoch() const { return bandwidth_epoch_; }

  /// Shard-ownership tag. Every mutator funnels through bump() or
  /// stamp_bandwidth() (or checks directly, like the non-bumping
  /// external-route upsert), so any off-shard NIB write is caught. Identity
  /// and owner are set by the owning controller.
  [[nodiscard]] analysis::ShardGuard& guard() { return guard_; }

 private:
  void bump();
  /// Records a reservation change on `l`: the bandwidth-change counterpart
  /// of bump().
  void stamp_bandwidth(LinkRecord& l);
  /// Reindexes links after a structural erase (replays discovery order, so
  /// "first link at endpoint" semantics survive removals).
  void rebuild_link_indexes();
  void index_link(std::uint32_t slot);

  /// Sorted-ID cache behind the span accessors: rebuilt lazily when the NIB
  /// version moved past the cached one.
  template <class IdT>
  struct IdCache {
    std::vector<IdT> ids;
    std::uint64_t version = std::uint64_t(-1);
  };
  template <class IdT, class MapT>
  static std::span<const IdT> cached_ids(IdCache<IdT>& cache, const MapT& map,
                                         std::uint64_t version);

  core::FlatMap<SwitchId, SwitchRecord> switches_;
  std::vector<LinkRecord> links_;  ///< dense, discovery order (erase keeps order)
  /// First link slot per endpoint (reserve/release/link_at hot path).
  core::FlatMap<Endpoint, std::uint32_t> link_at_;
  /// Exact normalized (a, b) pair -> link slot (upsert/remove/set_up).
  core::FlatMap<std::pair<Endpoint, Endpoint>, std::uint32_t> link_by_pair_;
  core::FlatMap<GBsId, southbound::GBsAnnounce> gbs_;
  core::FlatMap<MiddleboxId, southbound::GMiddleboxAnnounce> middleboxes_;
  core::FlatMap<PrefixId, std::vector<ExternalRoute>> external_routes_;
  std::uint64_t version_ = 0;
  std::uint64_t bandwidth_epoch_ = 0;
  std::vector<std::function<void()>> subscribers_;
  bool notifying_ = false;
  mutable IdCache<SwitchId> switch_ids_;
  mutable IdCache<GBsId> gbs_ids_;
  mutable IdCache<MiddleboxId> middlebox_ids_;
  analysis::ShardGuard guard_{"nib", 0};
};

}  // namespace softmow::nos
