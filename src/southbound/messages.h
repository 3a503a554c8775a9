// The southbound protocol: an OpenFlow-like message set extended with
// SoftMoW's virtual-fabric feature (paper §3.3 "OpenFlow API extended to
// support our virtual fabric feature").
//
// The same message set is spoken on two kinds of channels:
//   * leaf controller <-> physical switch (via SwitchAgent), and
//   * parent controller <-> child RecA agent, where the child's G-switch,
//     G-BSes and G-middleboxes "act as physical ones" (§3.3).
#pragma once

#include <any>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/graph.h"
#include "core/ids.h"
#include "core/packet.h"
#include "dataplane/entities.h"
#include "dataplane/flow_table.h"
#include "dataplane/sswitch.h"
#include "obs/trace.h"

namespace softmow::southbound {

/// Initial handshake from the device side, announcing what the channel
/// controls. A physical switch announces itself; a RecA agent announces its
/// G-switch plus G-BS and G-middlebox summaries.
struct Hello {
  SwitchId sw;          ///< the (G-)switch reachable on this channel
};

struct FeaturesRequest {
  Xid xid;
  SwitchId sw;
};

struct PortDesc {
  PortId port;
  bool up = true;
  dataplane::PeerKind peer = dataplane::PeerKind::kNone;
  EgressId egress;        ///< valid when peer == kExternal
  BsGroupId bs_group;     ///< valid when peer == kBsGroup (physical only)
  GBsId gbs;              ///< valid when the port attaches a G-BS (logical)
  MiddleboxId middlebox;  ///< valid when peer == kMiddlebox
};

/// One vFabric entry: metrics of the best internal path between two border
/// ports of a G-switch (§3.2).
struct VFabricEntry {
  PortId from;
  PortId to;
  EdgeMetrics metrics;
};

struct FeaturesReply {
  Xid xid;
  SwitchId sw;
  bool is_gswitch = false;
  std::vector<PortDesc> ports;
  std::vector<VFabricEntry> vfabric;  ///< empty for physical switches
};

/// G-BS description, pushed by RecA on connect and on abstraction changes.
struct GBsAnnounce {
  GBsId gbs;
  SwitchId attached_switch;  ///< the (G-)switch it connects to
  PortId attached_port;
  bool is_border = true;     ///< border G-BSes are exposed 1:1 (§5.2)
  double coverage_radius = 0;
  dataplane::GeoPoint centroid;
  std::vector<BsGroupId> constituent_groups;  ///< physical groups underneath
  bool withdrawn = false;    ///< true: remove this G-BS

  friend bool operator==(const GBsAnnounce&, const GBsAnnounce&) = default;
};

/// G-middlebox description: one per middlebox type (§3.1).
struct GMiddleboxAnnounce {
  MiddleboxId gmb;
  dataplane::MiddleboxType type;
  double total_capacity_kbps = 0;  ///< sum over constituent instances
  double utilization = 0;          ///< capacity-weighted mean
  SwitchId attached_switch;
  PortId attached_port;            ///< the (G-)switch port it hangs off
  bool withdrawn = false;

  friend bool operator==(const GMiddleboxAnnounce&, const GMiddleboxAnnounce&) = default;
};

struct FlowMod {
  enum class Op : std::uint8_t { kAdd, kRemoveByCookie, kRemoveByMatch };
  Op op = Op::kAdd;
  SwitchId sw;
  dataplane::FlowRule rule;  ///< for kAdd / kRemoveByMatch (match only)
  std::uint64_t cookie = 0;  ///< for kRemoveByCookie
  /// Bandwidth the flow reserves along its path (kbps); a RecA agent
  /// translating this rule reserves the same amount on its internal paths,
  /// so admission composes down the hierarchy (§3.2).
  double reserve_kbps = 0;
};

/// Entry pushed on the recursive link-discovery stack (§4.1.2): the format
/// is (Controller ID, G-switch ID, G-switch port).
struct DiscoveryStackEntry {
  ControllerId controller;
  SwitchId sw;
  PortId port;

  friend bool operator==(const DiscoveryStackEntry&, const DiscoveryStackEntry&) = default;
};

/// Physical-link properties filled in by the leaf controller on the
/// origination path (§4.1.2 "meta data field").
struct LinkMeta {
  double latency_us = 0;
  double loss_rate = 0;
  double bandwidth_kbps = 0;
  bool filled = false;
};

/// The recursive link-discovery message.
struct DiscoveryPayload {
  std::vector<DiscoveryStackEntry> stack;  ///< back() is the top
  LinkMeta meta;
  /// Trace position of the discovery round that originated this frame; rides
  /// the frame through every relay so the whole descent/ascent lands in one
  /// span tree (channels only restore ambient context per hop).
  obs::TraceContext ctx;
};

/// Controller -> device: emit a frame or packet out of a port.
struct PacketOut {
  SwitchId sw;
  PortId port;
  std::variant<Packet, DiscoveryPayload> body;
};

/// Device -> controller: a punted packet or a received discovery frame.
struct PacketIn {
  SwitchId sw;          ///< switch that punts (already translated at each level)
  PortId in_port;
  std::variant<Packet, DiscoveryPayload> body;
  bool table_miss = false;
};

struct PortStatus {
  enum class Reason : std::uint8_t { kAdd, kDelete, kModify };
  Reason reason = Reason::kModify;
  SwitchId sw;
  PortDesc desc;
};

struct RoleRequest {
  Xid xid;
  SwitchId sw;
  ControllerId controller;
  dataplane::ControllerRole role;
};

struct RoleReply {
  Xid xid;
  SwitchId sw;
  bool ok = true;
};

struct BarrierRequest { Xid xid; };
struct BarrierReply { Xid xid; };
struct EchoRequest { Xid xid; };
struct EchoReply { Xid xid; };

/// Operator-application message relayed by RecA (§3.3): a child application
/// that cannot satisfy a request hands it to RecA, which forwards it up as a
/// Packet-In-like event; responses flow back down. `type` selects the
/// registered application; `body` is application-defined.
struct AppMessage {
  std::string type;
  std::uint64_t request_id = 0;  ///< correlates responses to requests
  bool is_response = false;
  std::any body;
  /// Trace position of the operation this request/response belongs to (e.g.
  /// the bearer setup being delegated up the hierarchy, §5.1).
  obs::TraceContext ctx;
};

/// vFabric update: a child re-announces changed port-pair metrics when the
/// available bandwidth moves more than the configured threshold (§3.2).
struct VFabricUpdate {
  SwitchId sw;
  std::vector<VFabricEntry> entries;
};

using Message =
    std::variant<Hello, FeaturesRequest, FeaturesReply, GBsAnnounce, GMiddleboxAnnounce,
                 FlowMod, PacketOut, PacketIn, PortStatus, RoleRequest, RoleReply,
                 BarrierRequest, BarrierReply, EchoRequest, EchoReply, AppMessage,
                 VFabricUpdate>;

/// Short human-readable tag, for logging.
const char* message_name(const Message& m);

}  // namespace softmow::southbound
