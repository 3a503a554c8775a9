// Bidirectional control channel between a controller and a device (physical
// switch agent or child RecA agent).
//
// Every send is one *delivery unit*: a vector of messages (a single message
// is a unit of one) that is counted, impaired and delivered as a whole, along
// one path. Unbound (the default, and always during bootstrap), the unit is
// queued-and-flattened: a handler that sends further messages never recurses
// into nested delivery; messages drain FIFO per channel, synchronously
// inside send. Bound to a running sim::ShardedSimulator (bind_shards), the
// unit is instead posted as ONE delivery event into the receiving side's
// shard with the channel's propagation delay — same-shard hops stay
// immediate-order events, cross-shard hops ride the engine's mailboxes — so
// control traffic between regions is timed and ordered deterministically.
//
// Control-plane message volume — the "east-west" load the region
// optimization of §5.3 minimizes — is reported per direction through the
// obs metrics registry, which counts messages and delivery units separately
// (`southbound_messages_total` / `southbound_batches_total`).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sharded.h"
#include "southbound/messages.h"

namespace softmow::southbound {

/// Receives messages arriving at one side of a channel.
using Handler = std::function<void(const Message&)>;

/// Seeded southbound impairment profile (fault injection). Probabilities
/// apply per *delivery unit* — a unit is lost, duplicated or delayed as a
/// whole, matching the one-event delivery contract. Drop and duplicate work
/// in both delivery modes; delay adds in-flight latency (and hence reorders
/// against unimpaired units) only under a bound engine — the synchronous
/// pump has no timeline to delay against.
struct Impairment {
  double drop = 0;       ///< P(delivery unit silently lost in flight)
  double duplicate = 0;  ///< P(delivery unit delivered twice)
  double delay = 0;      ///< P(delivery unit held back by `jitter`)
  sim::Duration jitter;  ///< extra in-flight latency for delayed units
  [[nodiscard]] bool any() const { return drop > 0 || duplicate > 0 || delay > 0; }
};

class Channel {
 public:
  /// Routes one channel's deliveries onto a sharded engine: each side's
  /// handler runs on its owning shard, `delay` ahead of the sender's clock
  /// (the modeled controller-switch / parent-child propagation time). Only
  /// consulted while the engine is running and the sender is executing a
  /// shard event; otherwise sends fall back to the synchronous pump.
  struct ShardBinding {
    sim::ShardedSimulator* engine = nullptr;
    sim::ShardId controller_shard = 0;
    sim::ShardId device_shard = 0;
    sim::Duration to_device_delay;      ///< controller -> device propagation
    sim::Duration to_controller_delay;  ///< device -> controller propagation
  };

  Channel();

  /// Installs the controller-side handler (receives device -> controller).
  void bind_controller(Handler h) { lane(Direction::kToController).receiver = std::move(h); }
  /// Installs the device-side handler (receives controller -> device).
  void bind_device(Handler h) { lane(Direction::kToDevice).receiver = std::move(h); }

  [[nodiscard]] bool controller_bound() const {
    return static_cast<bool>(lane(Direction::kToController).receiver);
  }
  [[nodiscard]] bool device_bound() const {
    return static_cast<bool>(lane(Direction::kToDevice).receiver);
  }

  void bind_shards(const ShardBinding& binding) { binding_ = binding; }
  void unbind_shards() { binding_ = ShardBinding{}; }
  [[nodiscard]] bool shard_bound() const { return binding_.engine != nullptr; }

  /// Controller -> device, one delivery unit. The sender's ambient trace
  /// context is captured with the unit and restored around the receiving
  /// handler, so delivery through the flattened queue (or the engine event)
  /// preserves causality.
  void send_to_device(std::vector<Message> unit) { send(Direction::kToDevice, std::move(unit)); }
  /// Device -> controller, one delivery unit.
  void send_to_controller(std::vector<Message> unit) {
    send(Direction::kToController, std::move(unit));
  }

  /// Drops all undelivered messages (used by failure-injection tests).
  void disconnect();
  [[nodiscard]] bool connected() const { return connected_; }

  /// Applies `profile` to everything sent from now on. Each direction rolls
  /// an independent stream derived from `seed` (each side of a channel sends
  /// from exactly one shard, so each stream has a single consumer) — a fixed
  /// scenario impairs the same delivery units on every run.
  void impair(const Impairment& profile, std::uint64_t seed);
  void clear_impairment() { impair_ = Impairment{}; }
  [[nodiscard]] bool impaired() const { return impair_.any(); }

 private:
  enum class Direction : std::uint8_t { kToDevice, kToController };

  /// What the impairment profile decided for one delivery unit.
  struct Fate {
    bool dropped = false;
    bool duplicated = false;
    sim::Duration extra;  ///< additional in-flight latency (engine mode)
  };

  /// One direction of the channel. Each side sends from exactly one shard,
  /// so a lane has a single writer.
  struct Lane {
    Handler receiver;                  ///< the receiving side's handler
    Rng impair{0};                     ///< impairment stream
    obs::Counter* messages = nullptr;  ///< southbound_messages_total{direction}
    obs::Counter* batches = nullptr;   ///< southbound_batches_total{direction}
  };

  /// The one delivery path: counts, impairs, then posts the unit onto the
  /// bound engine or queues it for the synchronous pump.
  void send(Direction dir, std::vector<Message> unit);
  void pump();
  /// Runs the receiving handler for one message.
  void deliver_direct(const Message& m, Direction dir);
  /// Rolls the impairment dice for one delivery unit of `messages` messages.
  Fate roll_impairment(Direction dir, std::uint64_t messages);
  Lane& lane(Direction dir) { return lanes_[static_cast<std::size_t>(dir)]; }
  const Lane& lane(Direction dir) const { return lanes_[static_cast<std::size_t>(dir)]; }

  std::array<Lane, 2> lanes_;  ///< indexed by Direction
  struct Pending {
    Message msg;
    Direction dir;
    obs::TraceContext ctx;  ///< sender's ambient context at send time
  };
  std::deque<Pending> pending_;
  bool pumping_ = false;
  bool connected_ = true;
  ShardBinding binding_;
  Impairment impair_;
};

}  // namespace softmow::southbound
