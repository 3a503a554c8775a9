// A SoftMoW controller (paper §3.3, Figure 2): NOS core services (NIB,
// topology discovery, routing, path implementation) composed with the RecA
// application. Operator applications (mobility, region optimization,
// interdomain routing) attach on top via the northbound/eastbound APIs.
//
// The same class serves every level of the hierarchy:
//   * a leaf controller adopts physical switches (through SwitchAgents);
//   * a non-leaf controller adopts child controllers, whose RecA agents
//     expose one G-switch each;
//   * any non-root controller connects to its parent via its own RecA.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "dataplane/policy_tag.h"
#include "nos/device_bus.h"
#include "nos/discovery.h"
#include "nos/nib.h"
#include "nos/path_impl.h"
#include "nos/routing.h"
#include "reca/abstraction.h"
#include "reca/agent.h"
#include "southbound/channel.h"
#include "southbound/switch_agent.h"

namespace softmow::reca {

class Controller : public nos::DeviceBus {
 public:
  Controller(ControllerId id, int level, std::string name = {},
             LabelMode label_mode = LabelMode::kSwapping);

  [[nodiscard]] ControllerId id() const { return id_; }
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_leaf() const { return level_ == 1; }

  // --- services --------------------------------------------------------------
  nos::Nib& nib() { return nib_; }
  [[nodiscard]] const nos::Nib& nib() const { return nib_; }
  nos::RoutingService& routing() { return routing_; }
  nos::PathImplementer& paths() { return paths_; }
  nos::DiscoveryModule& discovery() { return discovery_; }
  TopologyAbstraction& abstraction() { return abstraction_; }
  RecAAgent& reca() { return reca_; }

  // --- device adoption --------------------------------------------------------
  /// Leaf only: takes (master) control of a physical switch through the hub.
  void adopt_physical_switch(southbound::Hub& hub, SwitchId sw,
                             dataplane::ControllerRole role = dataplane::ControllerRole::kMaster);
  /// Releases a physical switch (used during region reconfiguration).
  void release_physical_switch(southbound::Hub& hub, SwitchId sw);
  /// Leaf only: pre-warms a parked standby session on `sw` without touching
  /// the incumbent's active one (planned migration §5.3.2 — this instance
  /// answers to the same ControllerId as the source it will replace). The
  /// handshake resolves — Hello/FeaturesReply populate this controller's NIB
  /// switch records — but no data-plane events arrive until the hub promotes
  /// the standby at the flip barrier.
  void adopt_physical_switch_standby(southbound::Hub& hub, SwitchId sw);
  /// Non-leaf: adopts `child` as a logical device (its G-switch).
  void adopt_child(Controller& child);
  [[nodiscard]] std::vector<SwitchId> devices() const;
  /// Maps a child G-switch back to the child controller adopted earlier.
  [[nodiscard]] Controller* child_by_gswitch(SwitchId gswitch) const;
  [[nodiscard]] std::vector<Controller*> children() const;

  // --- DeviceBus ----------------------------------------------------------------
  Result<void> send(SwitchId sw, const southbound::Message& msg) override;
  /// One delivery unit down the device channel — a single engine handoff
  /// (and a single batch count) for the whole vector.
  Result<void> send_batch(SwitchId sw, std::span<const southbound::Message> batch) override;

  // --- fault hardening ---------------------------------------------------------
  /// Timeout/backoff of reliable batch delivery: the base timeout, times
  /// the backoff per retry up to the cap, for at most kRetryMaxAttempts.
  static constexpr int kRetryMaxAttempts = 4;
  static constexpr sim::Duration kRetryBaseTimeout = sim::Duration::millis(50);
  static constexpr double kRetryBackoff = 2.0;
  static constexpr sim::Duration kRetryMaxTimeout = sim::Duration::millis(400);
  /// Turns batch sends into reliable exchanges: each batch is extended with
  /// a BarrierRequest carrying a controller-namespaced xid, and the whole
  /// unit is retransmitted with bounded exponential backoff until the
  /// BarrierReply arrives or attempts are exhausted. Retransmission is safe
  /// because FlowMods are cookie-keyed — a re-installed rule replaces itself.
  /// Under a bound engine, timers are shard events; in synchronous pump mode
  /// each attempt's round trip completes inside the send.
  void set_reliable_delivery(bool on);
  [[nodiscard]] bool reliable_delivery() const { return reliable_; }

  /// §6 automatic recovery: when enabled, a PortStatus reporting a dead link
  /// immediately triggers repair_paths() — broken paths re-route without an
  /// operator in the loop. Off by default (tests and experiments that stage
  /// repairs explicitly keep their timing).
  void set_self_healing(bool on) { self_heal_ = on; }
  [[nodiscard]] bool self_healing() const { return self_heal_; }

  /// The live channel to an adopted device, if any (fault injection and
  /// failover plumbing).
  [[nodiscard]] southbound::Channel* device_channel(SwitchId sw) const;
  /// Applies one impairment profile to every adopted device channel, each
  /// with a seed forked per device so runs stay deterministic.
  void set_device_impairment(const southbound::Impairment& profile, std::uint64_t seed);
  void clear_device_impairment();

  // --- shard affinity (sim::ShardedSimulator) ---------------------------------
  /// Binds every adopted device channel onto `engine`: this controller's
  /// side runs on `self_shard`; each device side runs on
  /// `shard_of_device(sw)` (self for physical switches, the child's shard
  /// for child G-switches). Cross-shard channels model `cross_shard_delay`
  /// of propagation each way; same-shard channels deliver without delay.
  void bind_shards(sim::ShardedSimulator* engine, sim::ShardId self_shard,
                   sim::Duration cross_shard_delay,
                   const std::function<sim::ShardId(SwitchId)>& shard_of_device = {});
  /// Detaches every owned channel from the engine (back to synchronous
  /// delivery).
  void unbind_shards();
  /// The event shard this controller executes on (meaningful after
  /// bind_shards; 0 otherwise).
  [[nodiscard]] sim::ShardId shard() const { return shard_; }

  // --- northbound API (§4) -----------------------------------------------------
  /// (path, match fields) = Routing(request, service policy) — §4.2.
  Result<nos::ComputedRoute> compute_route(const nos::RoutingRequest& request) {
    return routing_.route(request);
  }
  /// PathSetup(match fields, path) — §4.3. Reservation-carrying setups may
  /// trigger a threshold-based vFabric update to the parent (§3.2).
  Result<PathId> path_setup(const nos::ComputedRoute& route, dataplane::Match match,
                            nos::PathSetupOptions options = {}) {
    auto result = paths_.setup(route, std::move(match), options);
    if (options.reserve_kbps > 0) reca_.maybe_announce_vfabric();
    return result;
  }
  Result<void> deactivate_path(PathId id) {
    const nos::InstalledPath* installed = paths_.path(id);
    bool reserved = installed != nullptr && installed->options.reserve_kbps > 0;
    auto result = paths_.deactivate(id);
    if (reserved) reca_.maybe_announce_vfabric();
    return result;
  }

  /// Runs one round of link discovery over the current NIB (§4.1.2).
  void run_link_discovery() { discovery_.run_link_discovery(); }
  /// §6 failure recovery: finds paths broken by link/port failures and
  /// re-implements each over an alternative route under the same PathId
  /// (nos::PathImplementer::reroute); a path with no alternative is erased.
  /// Returns (repaired, irreparable).
  std::pair<std::size_t, std::size_t> repair_paths();
  /// Recomputes the abstraction and announces changes to the parent.
  void refresh_abstraction();

  // --- application attachment ----------------------------------------------------
  /// Handler for data-packet PacketIns (table misses / explicit punts).
  using PacketInHandler = std::function<void(SwitchId sw, PortId in_port, const Packet&)>;
  void set_packet_in_handler(PacketInHandler h) { packet_in_handler_ = std::move(h); }

  /// Registers an operator application for AppMessages of `type` arriving
  /// from children. The handler receives the child G-switch and the message.
  using ChildAppHandler =
      std::function<void(SwitchId child_gswitch, const southbound::AppMessage&)>;
  void register_child_app_handler(std::string type, ChildAppHandler h);

  /// Sends an application request down to a child; `on_response` fires when
  /// the child responds (matched by request id).
  std::uint64_t send_app_request(SwitchId child_gswitch, southbound::AppMessage msg,
                                 std::function<void(const southbound::AppMessage&)> on_response);
  /// Responds to a request previously received from a child.
  void send_app_response(SwitchId child_gswitch, std::uint64_t request_id,
                         southbound::AppMessage response);

  /// Messages processed by this controller (Fig. 10 queuing-delay input).
  /// Also aggregated per level in the metrics registry as
  /// controller_messages_total{level=...}.
  [[nodiscard]] std::uint64_t messages_handled() const { return messages_handled_; }

  // --- slicing (policy-tag encapsulation) --------------------------------------
  /// Wires the deployment-wide policy-tag allocator (owned by the slicing
  /// subsystem). When set, slice-aware applications classify bearers onto
  /// shared SoftCell-style tags instead of per-path labels; when null
  /// (default) the §4.3 per-path label scheme is used unchanged.
  void set_tag_allocator(dataplane::TagAllocator* allocator) {
    tag_allocator_ = allocator;
    paths_.set_tag_allocator(allocator);  // tag-space GC: retain/release
  }
  [[nodiscard]] dataplane::TagAllocator* tag_allocator() const { return tag_allocator_; }

 private:
  /// A new owned channel whose controller side feeds handle_device_message;
  /// every adoption (physical master, parked standby, child) connects one.
  southbound::Channel* new_device_channel();
  void handle_device_message(southbound::Channel* ch, const southbound::Message& msg);

  /// One barrier-acknowledged delivery unit awaiting its BarrierReply.
  struct PendingAck {
    SwitchId sw;
    std::vector<southbound::Message> batch;  ///< includes the trailing barrier
    int attempts = 1;
    sim::Duration timeout;
  };
  Result<void> send_reliable(SwitchId sw, southbound::Channel* ch,
                             std::vector<southbound::Message> msgs);
  void arm_retry_timer(std::uint64_t xid);

  ControllerId id_;
  int level_;
  std::string name_;

  nos::Nib nib_;
  nos::RoutingService routing_;
  nos::PathImplementer paths_;
  nos::DiscoveryModule discovery_;
  TopologyAbstraction abstraction_;
  RecAAgent reca_;

  std::vector<std::unique_ptr<southbound::Channel>> owned_channels_;
  std::map<SwitchId, southbound::Channel*> device_channels_;
  std::map<SwitchId, Controller*> child_by_gswitch_;

  PacketInHandler packet_in_handler_;
  std::map<std::string, ChildAppHandler> child_app_handlers_;
  std::uint64_t next_request_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(const southbound::AppMessage&)>>
      pending_child_requests_;
  std::uint64_t messages_handled_ = 0;
  sim::ShardId shard_ = 0;
  sim::ShardedSimulator* engine_ = nullptr;  ///< set while shard-bound (retry timers)

  bool reliable_ = false;
  std::uint64_t barrier_seq_ = 1;  ///< low word of the namespaced barrier xid
  std::map<std::uint64_t, PendingAck> pending_acks_;
  bool self_heal_ = false;
  std::set<SwitchId> pending_resync_;  ///< reconnected devices awaiting FeaturesReply
  dataplane::TagAllocator* tag_allocator_ = nullptr;  ///< not owned; null = labels

  obs::Counter* messages_metric_;         ///< controller_messages_total{level}
  obs::Counter* retries_metric_;          ///< southbound_retries_total{level}
  obs::Counter* retry_exhausted_metric_;  ///< southbound_retry_exhausted_total{level}
  obs::Counter* repairs_metric_;          ///< path_repairs_total{level}
  obs::Counter* resyncs_metric_;          ///< path_resyncs_total{level}
  /// ignored_errors_total{site}: app requests and responses sent to a child
  /// no longer attached, vFabric updates for an unknown G-switch.
  obs::Counter* ignored_app_request_metric_;
  obs::Counter* ignored_app_response_metric_;
  obs::Counter* ignored_vfabric_metric_;
};

}  // namespace softmow::reca
