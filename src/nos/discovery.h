// Recursive topology discovery (paper §4.1).
//
// Each controller discovers its switches (FeaturesRequest/Reply) and then
// its inter-(G-)switch links by flooding link-discovery frames out of every
// switch-facing port. A frame carries a stack of
// (Controller ID, G-switch ID, port) entries: it descends the hierarchy on
// the origination side (each level pushes an entry), crosses one physical
// link, and climbs back up on the receiving side (each level pops an entry)
// until it reaches the controller whose ID is on top — the unique controller
// that owns the link. Controllers at the same level discover in parallel;
// levels are sequential only during bootstrap.
#pragma once

#include <cstdint>
#include <set>

#include "core/ids.h"
#include "nos/device_bus.h"
#include "nos/nib.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace softmow::dataplane {
class PhysicalNetwork;
}  // namespace softmow::dataplane

namespace softmow::nos {

struct DiscoveryStats {
  std::uint64_t features_requests = 0;
  std::uint64_t features_replies = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_forwarded_up = 0;  ///< filled in by RecA
  std::uint64_t frames_dropped = 0;
  std::uint64_t links_discovered = 0;

  /// Messages this controller processed during discovery — the quantity the
  /// Fig. 10 queuing-delay model charges for.
  [[nodiscard]] std::uint64_t messages_processed() const {
    return features_requests + features_replies + frames_sent + frames_received;
  }
};

/// What to do with a discovery frame after local processing.
enum class DiscoveryVerdict {
  kConsumed,  ///< top of stack was ours: link recorded
  kForward,   ///< not ours, stack non-empty: RecA must forward to the parent
  kDrop,      ///< stack exhausted: no inter-switch link on this path
};

class DiscoveryModule {
 public:
  /// `level` tags this controller's registry series
  /// (discovery_rounds_total{level=...} etc.); 0 = outside the hierarchy.
  DiscoveryModule(ControllerId self, Nib* nib, DeviceBus* bus, int level = 0);

  /// A device announced itself (Hello): request its features.
  void on_hello(SwitchId sw);

  /// Features arrived: record the switch (ports, vFabric) in the NIB.
  void on_features_reply(const southbound::FeaturesReply& reply);

  /// True once every switch that said Hello has been described.
  [[nodiscard]] bool features_complete() const { return pending_features_.empty(); }

  /// Originates one link-discovery frame per switch-facing port of every
  /// NIB switch (§4.1.2 "link discovery messages are sent out from each
  /// port"). Idempotent: re-running refreshes link state. The whole round is
  /// one "discovery.round" span; each frame carries the round's context so
  /// relays at other levels attach to it.
  void run_link_discovery();

  /// Processes a received discovery frame; pops the stack (mutating
  /// `payload`) and classifies it. `at` is where the frame arrived in this
  /// controller's local ID space.
  DiscoveryVerdict on_discovery_packet_in(Endpoint at, southbound::DiscoveryPayload& payload);

  [[nodiscard]] const DiscoveryStats& stats() const { return stats_; }
  [[nodiscard]] DiscoveryStats& stats_mutable() { return stats_; }

 private:
  ControllerId self_;
  Nib* nib_;
  DeviceBus* bus_;
  int level_;
  std::uint64_t next_xid_ = 1;
  std::set<SwitchId> pending_features_;
  DiscoveryStats stats_;
  // Per-level registry handles (shared across same-level controllers).
  obs::Counter* rounds_metric_;          ///< discovery_rounds_total{level}
  obs::Counter* frames_sent_metric_;     ///< discovery_frames_total{level,kind=sent}
  obs::Counter* frames_received_metric_; ///< discovery_frames_total{level,kind=received}
  obs::Counter* links_metric_;           ///< discovery_links_total{level}
};

/// Control-plane messages a flat single controller processes to discover the
/// whole physical topology with standard LLDP (the Fig. 10 baseline):
/// features exchange per switch, one probe per switch-facing port, one report
/// per link direction.
[[nodiscard]] std::uint64_t flat_discovery_message_count(const dataplane::PhysicalNetwork& net);

}  // namespace softmow::nos
