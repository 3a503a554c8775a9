// Device-side southbound endpoint for a *physical* switch: translates
// southbound messages into data-plane operations and punts data-plane events
// back to the switch's controllers according to their roles.
//
// The Hub is the per-experiment registry tying agents together: when a frame
// or packet leaves one switch over a physical link, the Hub routes the
// resulting event to the receiving switch's agent and hence its controllers.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dataplane/network.h"
#include "southbound/channel.h"
#include "southbound/messages.h"

namespace softmow::southbound {

class SwitchAgent;

/// Registry of switch agents over one physical network.
class Hub {
 public:
  explicit Hub(dataplane::PhysicalNetwork* net) : net_(net) {
    // Surface link up/down transitions to both endpoints' controllers as
    // PortStatus events (§6 switch and link failure recovery).
    net_->set_link_observer([this](const dataplane::Link& link, bool up) {
      notify_port_status(link.a, up);
      notify_port_status(link.b, up);
    });
  }

  /// Creates (or returns) the agent for `sw`. Not for shard events (may
  /// insert into shared state); shard-event code paths use find_agent().
  SwitchAgent* agent(SwitchId sw);
  /// Lookup without creating — safe from any shard event, where every
  /// adopted switch's agent already exists.
  [[nodiscard]] SwitchAgent* find_agent(SwitchId sw) const;
  [[nodiscard]] dataplane::PhysicalNetwork* net() { return net_; }

  /// Routes physical frame transit over the sharded engine: a discovery
  /// frame leaving a switch is delivered to the peer switch's owning shard
  /// after the link latency, instead of synchronously in the sender's
  /// stack. `owners` maps every adopted switch to its region's shard.
  void bind_shards(sim::ShardedSimulator* engine,
                   std::unordered_map<SwitchId, sim::ShardId> owners);
  void unbind_shards();
  [[nodiscard]] sim::ShardedSimulator* engine() { return engine_; }
  /// Shard owning `sw` (shard 0 when unmapped).
  [[nodiscard]] sim::ShardId owner_of(SwitchId sw) const;

  /// Punts every PacketIn captured in a delivery report to the controllers
  /// of the switch that generated it.
  void deliver_packet_ins(const dataplane::DeliveryReport& report);

 private:
  void notify_port_status(Endpoint at, bool up);

  dataplane::PhysicalNetwork* net_;
  std::unordered_map<SwitchId, std::unique_ptr<SwitchAgent>> agents_;
  sim::ShardedSimulator* engine_ = nullptr;
  std::unordered_map<SwitchId, sim::ShardId> owners_;
};

class SwitchAgent {
 public:
  SwitchAgent(Hub* hub, SwitchId sw);

  [[nodiscard]] SwitchId switch_id() const { return sw_; }

  /// Connects a controller over `channel` with the given role. Binds the
  /// device side of the channel and sends Hello to the controller.
  void connect(ControllerId controller, Channel* channel,
               dataplane::ControllerRole role = dataplane::ControllerRole::kMaster);
  void disconnect(ControllerId controller);

  /// Parks a pre-warmed session for `controller` without disturbing its
  /// active one (planned migration, §5.3: the target instance answers to
  /// the *same* ControllerId as the source it replaces). The channel is
  /// bound and handshaken — Hello flows, FeaturesRequest/Reply resolve on
  /// it — but the parked session receives no data-plane events until
  /// promote_standby() swaps it in.
  void connect_standby(ControllerId controller, Channel* channel);
  /// Atomically swaps the parked session in as the active one and grants
  /// `role` — the per-device half of the migration flip. Returns false
  /// (and changes nothing) when no standby is parked.
  bool promote_standby(ControllerId controller, dataplane::ControllerRole role);
  /// Drops a parked session without touching the active one (migration
  /// abort/rollback).
  void drop_standby(ControllerId controller);
  [[nodiscard]] bool has_standby(ControllerId controller) const {
    return standby_channels_.contains(controller);
  }

  /// Entry point for controller -> device messages.
  void handle(const Message& msg);

  /// A frame (discovery payload) physically arrived at `at` on this switch:
  /// forward it to the master/equal controllers as a PacketIn (§4.1.2
  /// "when a switch receives a discovery message, it forwards the message to
  /// the controller").
  void receive_frame(Endpoint at, const DiscoveryPayload& payload);

  /// Punts a data-plane PacketIn event (table miss / explicit punt).
  void punt(const dataplane::PacketInEvent& ev);

  /// Reports a port transition to the controllers (§6).
  void send_port_status(const PortStatus& status) { send_to_controllers(status); }

  /// Fault injection: the switch dies. Its flow tables are wiped (volatile
  /// TCAM) and every message to or from it is dropped
  /// (`southbound_dropped_total{reason=switch_down}`) until restart().
  void crash();
  /// The switch boots again with empty tables and re-announces itself with
  /// a fresh Hello on every connected channel — the controller answers with
  /// a FeaturesRequest and resyncs the rules it owns here.
  void restart();
  [[nodiscard]] bool alive() const { return alive_; }

 private:
  [[nodiscard]] dataplane::Switch* sw_ptr();
  void send_to_controllers(const Message& msg);
  [[nodiscard]] std::vector<PortDesc> port_descs() const;

  Hub* hub_;
  SwitchId sw_;
  bool alive_ = true;
  std::map<ControllerId, Channel*> channels_;
  /// Pre-warmed migration-target sessions, keyed like channels_.
  std::map<ControllerId, Channel*> standby_channels_;
};

}  // namespace softmow::southbound
