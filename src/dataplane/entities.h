// Non-switch data-plane entities: links, base stations, BS groups,
// middleboxes, and egress points (paper §2.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ids.h"
#include "sim/time.h"

namespace softmow::dataplane {

struct Link {
  LinkId id;
  Endpoint a;
  Endpoint b;
  sim::Duration latency = sim::Duration::millis(5);  ///< §7.1 default
  double bandwidth_kbps = 1e6;                       ///< 1 Gbps, §7.1 default
  double reserved_kbps = 0;                          ///< bandwidth claimed by paths
  bool up = true;

  [[nodiscard]] double available_kbps() const {
    return reserved_kbps >= bandwidth_kbps ? 0.0 : bandwidth_kbps - reserved_kbps;
  }
  /// The far endpoint when entering from `from`; `from` must be a or b.
  [[nodiscard]] Endpoint other(Endpoint from) const { return from == a ? b : a; }
};

/// Geographic position (arbitrary planar units; only distances matter).
struct GeoPoint {
  double x = 0;
  double y = 0;

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};
double distance(GeoPoint p, GeoPoint q);

struct BaseStation {
  BsId id;
  BsGroupId group;
  GeoPoint location;
  double radio_radius = 1.0;  ///< coverage radius; G-BS coverage is the union
};

/// Intra-group interconnection topology (§2.1).
enum class BsGroupTopology : std::uint8_t { kRing, kMesh, kSpokeHub };
const char* to_string(BsGroupTopology t);

struct BsGroup {
  BsGroupId id;
  BsGroupTopology topology = BsGroupTopology::kRing;
  std::vector<BsId> members;          ///< at most 6 per the §7.1 inference
  SwitchId access_switch;             ///< classification switch for this group
  Endpoint core_attach;               ///< core-switch port the access switch hangs off
  GeoPoint centroid;
};

/// Middlebox function types (§2.1 lists application-, operator- and
/// security-specific examples).
enum class MiddleboxType : std::uint8_t {
  kFirewall,
  kIds,
  kLightweightDpi,
  kVideoTranscoder,
  kNoiseCancellation,
  kChargingBilling,
  kNat,
  kRateLimiter,
};
const char* to_string(MiddleboxType t);
inline constexpr int kMiddleboxTypeCount = 8;

struct Middlebox {
  MiddleboxId id;
  MiddleboxType type = MiddleboxType::kFirewall;
  double capacity_kbps = 1e6;
  double utilization = 0.0;  ///< fraction of capacity in use, [0, 1]
  Endpoint attach;           ///< switch port it hangs off ("on a stick")
  std::uint64_t packets_processed = 0;
};

/// An Internet egress point: a peering session hanging off a switch port
/// (§2.1 "egress points ... at peering points").
struct EgressPoint {
  EgressId id;
  Endpoint attach;
  GeoPoint location;
  std::string peer_name;  ///< e.g. "isp-3", for reporting
};

}  // namespace softmow::dataplane
