// RecA topology abstraction (paper §3.1–§3.2, §4.1.3).
//
// Computes, from a controller's NIB, the logical entities exposed to its
// parent:
//   * one G-switch whose ports are the region's *border* ports — egress
//     points, cross-region link candidates, G-BS attachment points and one
//     port per G-middlebox — annotated with a virtual fabric giving
//     (latency, hop count, available bandwidth) per border-port pair;
//   * one G-BS per *border* BS group / G-BS (exposed 1:1 to allow the
//     fine-grained region optimization of §5.3) plus a single aggregate
//     G-BS for all internal ones;
//   * one G-middlebox per middlebox type.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "nos/nib.h"
#include "nos/routing.h"
#include "obs/metrics.h"
#include "southbound/messages.h"

namespace softmow::reca {

/// The G-switch a controller exposes carries its controller's identity in
/// the high bits, so IDs never collide with physical switches.
[[nodiscard]] constexpr SwitchId gswitch_id_for(ControllerId c) {
  return SwitchId{(1ull << 40) | c.value};
}
[[nodiscard]] constexpr bool is_gswitch_id(SwitchId s) { return (s.value >> 40) != 0; }

/// Synthetic ID of a controller's single aggregate internal G-BS.
[[nodiscard]] constexpr GBsId internal_gbs_id_for(ControllerId c) {
  return GBsId{(1ull << 40) | c.value};
}

class TopologyAbstraction {
 public:
  TopologyAbstraction(ControllerId self, int level, const nos::Nib* nib,
                      const nos::RoutingService* routing);

  [[nodiscard]] SwitchId gswitch_id() const { return gswitch_id_; }

  /// Declares which of this controller's G-BSes sit at its region boundary;
  /// border G-BSes are exposed 1:1, the rest are aggregated (§5.2). Set by
  /// the management plane from the global adjacency, and updated after
  /// region reconfiguration.
  void set_border_gbs(std::set<GBsId> border);
  [[nodiscard]] const std::set<GBsId>& border_gbs() const { return border_gbs_; }

  /// Flags a topology change: the next refresh() recomputes everything.
  void mark_dirty() { dirty_ = true; }
  /// True when refresh() has work: a topology change, or a NIB bandwidth
  /// change since the abstraction was last brought up to date.
  [[nodiscard]] bool dirty() const {
    return dirty_ || nib_->bandwidth_epoch() != seen_bandwidth_epoch_;
  }

  /// Rebuilds the abstraction from the current NIB (§4.1.3). Exposed port
  /// numbers are stable across recomputes for unchanged local endpoints.
  void recompute();
  /// Brings the abstraction up to date: recompute() after a topology change;
  /// after bandwidth changes only, recomputes the bottleneck of just the
  /// vFabric entries whose path crosses a stamped link. Both give the same
  /// features().vfabric: bandwidth never changes the hop-optimal trees
  /// (Graph::shortest_tree), and a bottleneck is an exact min.
  void refresh();
  /// Moves whenever features().vfabric may have changed: on every
  /// recompute() and on every bandwidth refresh that changed an entry.
  [[nodiscard]] std::uint64_t vfabric_generation() const { return vfabric_generation_; }

  /// The G-switch description: ports + vFabric (answer to FeaturesRequest).
  [[nodiscard]] const southbound::FeaturesReply& features() const { return features_; }
  [[nodiscard]] const std::vector<southbound::GBsAnnounce>& exposed_gbs() const {
    return exposed_gbs_;
  }
  [[nodiscard]] const std::vector<southbound::GMiddleboxAnnounce>& exposed_gmbs() const {
    return exposed_gmbs_;
  }

  /// Exposed G-switch port -> local (switch, port).
  [[nodiscard]] std::optional<Endpoint> to_local(PortId exposed) const;
  /// Local (switch, port) -> exposed G-switch port.
  [[nodiscard]] std::optional<PortId> to_exposed(Endpoint local) const;
  /// All local attachment endpoints behind an exposed port. For the internal
  /// aggregate G-BS port this is every internal G-BS attach point (§4.3:
  /// classification rules are "installed into constituent access switches,
  /// each attached to a component G-BS"); for other ports it is the single
  /// mapped endpoint.
  [[nodiscard]] std::vector<Endpoint> constituents(PortId exposed) const;
  /// Maps one of this controller's G-BS IDs to the ID its parent sees:
  /// border G-BSes keep their identity, internal ones collapse onto the
  /// aggregate.
  [[nodiscard]] GBsId exposed_gbs_id(GBsId local) const {
    return border_gbs_.contains(local) ? local : internal_gbs_id_for(self_);
  }

  /// Table 1 row: what this controller discovered vs what it exposes.
  struct Stats {
    std::size_t switches = 0;       ///< NIB switches (core; access excluded)
    std::size_t ports = 0;          ///< core-switch ports discovered
    std::size_t links = 0;          ///< NIB links discovered
    std::size_t exposed_ports = 0;  ///< G-switch ports
    std::size_t total_ports = 0;    ///< every port, incl. access switches
  };
  [[nodiscard]] Stats stats() const;

 private:
  PortId exposed_port_for(Endpoint local);
  /// Records every vFabric entry's tree path in the per-entry path storage
  /// and indexes the entries by link. Deferred from recompute() to the
  /// first bandwidth refresh after it, so a full recompute costs what it
  /// did without incremental upkeep. It reruns recompute()'s trees, which
  /// is exact: only a topology change could alter them, and that makes the
  /// abstraction dirty instead.
  void build_paths();
  /// The bandwidth-only refresh.
  void refresh_bandwidth();

  ControllerId self_;
  int level_;
  SwitchId gswitch_id_;
  const nos::Nib* nib_;
  const nos::RoutingService* routing_;
  std::set<GBsId> border_gbs_;
  bool dirty_ = true;

  southbound::FeaturesReply features_;
  std::vector<southbound::GBsAnnounce> exposed_gbs_;
  std::vector<southbound::GMiddleboxAnnounce> exposed_gmbs_;
  std::unordered_map<PortId, Endpoint> port_to_local_;
  std::unordered_map<Endpoint, PortId> local_to_port_;
  std::unordered_map<PortId, std::vector<Endpoint>> port_constituents_;
  std::uint64_t next_port_ = 1;

  // Incremental bandwidth upkeep (§3.2). Entry i of features_.vfabric
  // crosses the NIB link slots path_slots_[path_begin_[i] .. path_begin_[i + 1]);
  // its other edges (intra-switch, G-switch vFabric) bottleneck at
  // fixed_bandwidth_[i].
  std::vector<Endpoint> exposed_locals_;  ///< recompute()'s exposures, in order
  bool paths_built_ = false;
  PathTree tree_;  ///< build_paths() scratch
  std::vector<std::uint32_t> path_slots_;
  std::vector<std::uint32_t> path_begin_;
  std::vector<double> fixed_bandwidth_;
  /// Entries crossing link slot s: link_entries_[link_begin_[s] .. link_begin_[s + 1]).
  std::vector<std::uint32_t> link_begin_;
  std::vector<std::uint32_t> link_entries_;
  std::vector<std::uint64_t> entry_stamp_;  ///< per entry: last refresh that visited it
  std::uint64_t refresh_stamp_ = 0;
  std::uint64_t seen_bandwidth_epoch_ = 0;  ///< NIB bandwidth epoch last folded in
  std::uint64_t vfabric_generation_ = 0;

  obs::Counter* full_refresh_metric_ = nullptr;
  obs::Counter* bandwidth_refresh_metric_ = nullptr;
  obs::Counter* entries_recomputed_metric_ = nullptr;
};

}  // namespace softmow::reca
