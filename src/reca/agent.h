// The RecA agent (paper §3.3): the child-side endpoint of the channel to
// the parent controller. It makes the child's logical devices "act as
// physical ones": it answers FeaturesRequests for the G-switch, translates
// the parent's virtual FlowMods onto the child's own topology via recursive
// label swapping (§4.3), relays discovery frames up and down the hierarchy
// (§4.1.2), and carries operator-application messages in both directions
// (the eastbound API).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "nos/device_bus.h"
#include "nos/discovery.h"
#include "nos/nib.h"
#include "nos/path_impl.h"
#include "nos/routing.h"
#include "reca/abstraction.h"
#include "southbound/channel.h"

namespace softmow::reca {

/// How a parent's labels are realized in this region (§4.3): swapping is
/// SoftMoW's contribution; stacking is the strawman baseline.
enum class LabelMode : std::uint8_t { kSwapping, kStacking };

struct AgentStats {
  std::uint64_t flowmods_translated = 0;
  std::uint64_t flowmods_removed = 0;
  std::uint64_t flowmod_failures = 0;
  std::uint64_t discovery_down = 0;
  std::uint64_t discovery_up = 0;
  std::uint64_t discovery_unmapped = 0;
  std::uint64_t app_up = 0;
  std::uint64_t app_down = 0;
};

class RecAAgent {
 public:
  struct Services {
    ControllerId self;
    int level = 1;
    nos::Nib* nib = nullptr;
    nos::RoutingService* routing = nullptr;
    nos::PathImplementer* paths = nullptr;
    nos::DeviceBus* bus = nullptr;  ///< sends toward this controller's own devices
    TopologyAbstraction* abstraction = nullptr;
  };

  explicit RecAAgent(Services services, LabelMode mode = LabelMode::kSwapping);

  /// Connects to the parent: binds the device side of `ch`, sends Hello for
  /// the G-switch, and announces G-BSes / G-middleboxes.
  void connect_to_parent(southbound::Channel* ch);
  [[nodiscard]] bool has_parent() const { return parent_ != nullptr; }
  [[nodiscard]] LabelMode label_mode() const { return mode_; }

  /// Recomputes the abstraction if dirty and (re-)announces changes to the
  /// parent: withdrawn/new G-BSes, G-middleboxes, and a vFabric update.
  void announce();

  /// §3.2: "if the available bandwidth exposed for a port pair ... changes
  /// more than a predetermined threshold, the child controller will
  /// recompute new bandwidths, update the vFabric and notify the parent."
  /// Compares against the last announced vFabric and pushes an update when
  /// any pair drifted by more than `vfabric_threshold()` (fraction).
  void maybe_announce_vfabric();
  void set_vfabric_threshold(double fraction) {
    vfabric_threshold_ = fraction;
    in_sync_generation_ = kNever;  // the last in-sync verdict used the old threshold
  }
  [[nodiscard]] double vfabric_threshold() const { return vfabric_threshold_; }
  [[nodiscard]] std::uint64_t vfabric_updates_sent() const { return vfabric_updates_sent_; }

  /// Parent -> child messages (bound as the channel's device handler).
  void handle_from_parent(const southbound::Message& msg);

  // --- upward relays, called from the controller's dispatch -----------------
  /// Forwards a discovery frame whose stack top was not ours (§4.1.2 return
  /// path): translates the local arrival endpoint to the exposed G-switch
  /// port and reports a PacketIn to the parent.
  void forward_discovery_up(Endpoint local_at, southbound::DiscoveryPayload payload);

  /// Delegates an operator-application request to the parent (§3.3). The
  /// response (matched by request id) is passed to `on_response`.
  std::uint64_t delegate(southbound::AppMessage msg,
                         std::function<void(const southbound::AppMessage&)> on_response);
  /// Fire-and-forget upward message (e.g. interdomain route export §4.2).
  void send_up(southbound::AppMessage msg);
  /// Replies to a request previously received from the parent.
  void respond_up(std::uint64_t request_id, southbound::AppMessage response);

  // --- eastbound API (§3.3) --------------------------------------------------
  /// Registers an operator application for requests of `type` arriving from
  /// the parent.
  void register_app_handler(std::string type,
                            std::function<void(const southbound::AppMessage&)> handler);

  [[nodiscard]] const AgentStats& stats() const { return stats_; }

  /// Parent FlowMod cookie -> the local paths translating it, in cookie
  /// order. A checkpoint carries it, so a restored instance still answers
  /// the parent's removals and re-sent adds by cookie.
  using ParentCookies = std::map<std::uint64_t, std::vector<PathId>>;
  [[nodiscard]] const ParentCookies& parent_cookies() const { return parent_cookie_to_paths_; }
  void restore_parent_cookies(const ParentCookies& cookies) { parent_cookie_to_paths_ = cookies; }

 private:
  void translate_flow_mod(const southbound::FlowMod& mod);
  void handle_discovery_down(const southbound::PacketOut& out);

  Services s_;
  LabelMode mode_;
  southbound::Channel* parent_ = nullptr;
  AgentStats stats_;
  std::uint64_t next_request_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(const southbound::AppMessage&)>>
      pending_;
  std::map<std::string, std::function<void(const southbound::AppMessage&)>> app_handlers_;
  /// parent FlowMod cookie -> locally implemented path(s). A classification
  /// rule at the internal-aggregate G-BS port fans out into one local path
  /// per constituent access switch (§4.3).
  ParentCookies parent_cookie_to_paths_;
  /// G-BS ids announced to the parent (for withdrawal diffs).
  std::set<GBsId> announced_gbs_;
  /// The vFabric as of the last announcement, compared with
  /// features().vfabric by position (§3.2 threshold).
  /// recompute() lists the entries in the order of its exposures, which it
  /// draws from the NIB's sorted switch, port, G-BS and middlebox-type
  /// lists, and exposed port numbers are stable, so an unchanged pair set
  /// keeps its positions while no exposed port changes role (a role change
  /// is a topology change, which announce() re-sends in full). Comparing
  /// index by index, with a size or pair mismatch counted as drift, then
  /// announces exactly when a lookup by port pair would.
  std::vector<southbound::VFabricEntry> announced_;
  /// Abstraction vFabric generation last found within the threshold of
  /// announced_ (or announced): while it has not moved, the drift compare
  /// would find nothing.
  static constexpr std::uint64_t kNever = ~0ull;
  std::uint64_t in_sync_generation_ = kNever;
  double vfabric_threshold_ = 0.1;
  std::uint64_t vfabric_updates_sent_ = 0;
};

}  // namespace softmow::reca
