// Synthetic LTE workload generator.
//
// Substitute for the paper's proprietary 1 TB bearer-level trace (§7.1: one
// week, a large metro area, >1000 base stations, ~1M devices). It produces:
//   * base stations clustered around metro cores on the WAN plane,
//   * a BS-level handover graph (geographic gravity model),
//   * BS groups via the paper's inference algorithm, attached to the WAN,
//   * per-minute event bins over the experiment window — bearer arrivals,
//     UE arrivals and group-to-group handovers — with a diurnal profile
//     calibrated to the magnitudes of Fig. 11 (per-leaf bearer arrivals up
//     to ~1e5/min, UE arrivals 1000–3000/min, handovers 1000–4000/min with
//     four regions).
//
// Generation is two steps. synthesize_lte_trace draws everything from the
// RNG without touching a network; materialize adds the synthesized groups
// and stations to one. A synthesis is immutable once built, so builds with
// the same inputs can share it (topo::build_scenario keeps the last one).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/ids.h"
#include "core/rng.h"
#include "core/weighted_adjacency.h"
#include "dataplane/network.h"
#include "topo/wan_generator.h"

namespace softmow::topo {

struct LteTraceParams {
  std::size_t base_stations = 1000;   ///< §7.1 "more than 1000 base stations"
  std::size_t metro_clusters = 12;
  double extent = 100.0;              ///< must match the WAN plane
  std::size_t duration_minutes = 48 * 60; ///< Fig. 12 window
  // Network-wide per-minute peak rates (see header comment for calibration).
  double peak_bearers_per_min = 280'000;
  double peak_ue_arrivals_per_min = 8'000;
  double peak_handovers_per_min = 10'000;
  double offpeak_fraction = 0.35;     ///< trough-to-peak ratio of the diurnal curve
  std::size_t handover_neighbors = 6; ///< BS-level adjacency degree
  std::uint64_t seed = 11;

  friend bool operator==(const LteTraceParams&, const LteTraceParams&) = default;
};

/// One minute of aggregate activity. Group-indexed by position in
/// LteTrace::groups.
struct TraceBin {
  std::vector<std::uint32_t> bearer_arrivals;
  std::vector<std::uint32_t> ue_arrivals;
  /// (group index a, group index b, handover count) with a < b.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> handovers;

  [[nodiscard]] std::uint64_t total_bearers() const;
  [[nodiscard]] std::uint64_t total_ue_arrivals() const;
  [[nodiscard]] std::uint64_t total_handovers() const;
};

/// The bins of one trace, read-only. Every copy of a trace shares one
/// storage (~70 MB at paper scale), which nothing mutates after synthesis.
class TraceBins {
 public:
  TraceBins() = default;
  explicit TraceBins(std::vector<TraceBin> bins)
      : bins_(std::make_shared<const std::vector<TraceBin>>(std::move(bins))) {}

  [[nodiscard]] std::size_t size() const { return bins_ ? bins_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const TraceBin& operator[](std::size_t minute) const { return (*bins_)[minute]; }
  [[nodiscard]] const TraceBin* begin() const { return bins_ ? bins_->data() : nullptr; }
  [[nodiscard]] const TraceBin* end() const { return begin() + size(); }

 private:
  std::shared_ptr<const std::vector<TraceBin>> bins_;
};

struct LteTrace {
  std::vector<BsId> stations;
  std::vector<BsGroupId> groups;          ///< defines the bin index space
  std::map<BsGroupId, std::uint32_t> group_index;
  WeightedAdjacency<BsId> bs_handover_graph;
  WeightedAdjacency<BsGroupId> group_adjacency;  ///< aggregated from BS level
  TraceBins bins;                         ///< one per minute
  /// Aggregate control-plane events per group over the whole trace — the
  /// load input of region optimization's LB/UB constraints (§5.3.1).
  std::map<BsGroupId, double> group_load;

  /// Diurnal shape value in [offpeak, 1] for a given minute.
  [[nodiscard]] static double diurnal(double minute_of_day, double offpeak_fraction);
};

/// A WAN switch a BS group can attach to.
struct AttachSite {
  SwitchId sw;
  dataplane::GeoPoint location;

  friend bool operator==(const AttachSite&, const AttachSite&) = default;
};

/// The attach sites of `wan.switches`, in order — the only part of the
/// network that synthesis reads.
[[nodiscard]] std::vector<AttachSite> attach_sites(const dataplane::PhysicalNetwork& net,
                                                   const WanTopology& wan);

/// One synthesized trace: the finished LteTrace plus the recipe that adds
/// its groups and stations to a network. IDs are the ones a network without
/// BS groups or base stations hands out.
struct LteTraceSynthesis {
  struct Group {
    SwitchId attach;  ///< nearest WAN switch to the centroid
    dataplane::GeoPoint centroid;
    std::vector<dataplane::GeoPoint> members;  ///< add order, ids as in trace.stations
  };
  std::vector<Group> groups;  ///< parallel to trace.groups
  LteTrace trace;
};

/// Draws the stations, the handover graph, the groups and the event bins.
/// `sites` must be non-empty. Deterministic under (sites, params).
[[nodiscard]] LteTraceSynthesis synthesize_lte_trace(const std::vector<AttachSite>& sites,
                                                     const LteTraceParams& params);

/// Adds the synthesized groups and stations to `net` in synthesis order and
/// returns the trace, sharing the synthesis' bins. Throws std::logic_error
/// when `net` hands out other IDs than the synthesis recorded (it already
/// holds BS groups or base stations).
[[nodiscard]] LteTrace materialize(dataplane::PhysicalNetwork& net,
                                   const LteTraceSynthesis& synthesis);

/// Generates stations + groups into `net` (attached to the nearest WAN
/// switches) and synthesizes the event bins: a fresh synthesis, never
/// shared, materialized into `net`.
[[nodiscard]] LteTrace generate_lte_trace(dataplane::PhysicalNetwork& net,
                                          const WanTopology& wan,
                                          const LteTraceParams& params);

}  // namespace softmow::topo
