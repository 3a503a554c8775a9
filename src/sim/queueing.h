// The §7.3 controller queueing model behind every timing experiment
// (notably the Fig. 10 discovery-convergence comparison, which depends on
// controller queuing delay, the effect the paper identifies as dominant).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace softmow::sim {

/// The §7.3 controller model shared by every experiment that queues control
/// messages (Fig. 9 root hops, Fig. 10 discovery, region re-optimization,
/// scaling, fault recovery, live-migration flips): a software controller
/// handles ~1k msgs/s, and a controller-switch round trip takes tens of ms.
inline constexpr Duration kControllerServiceTime = Duration::millis(1);
inline constexpr Duration kControlRtt = Duration::millis(30);

/// Single-server FIFO queue with deterministic service times — the model of
/// a controller's message-processing pipeline. The paper (§7.3) attributes
/// the discovery-convergence gap to queuing delay proportional to the number
/// of ports and links a controller must process; this station reproduces
/// exactly that: completion = max(arrival, last_completion) + service.
class QueueingStation {
 public:
  /// `station` labels this station's series in the metrics registry
  /// (sim_queue_wait_us / sim_queue_messages_total); stations created with
  /// the same label merge their observations. `level` tags traced
  /// submissions with the owning controller's hierarchy level.
  explicit QueueingStation(Duration service_time, const std::string& station = "default",
                           int level = 0);

  /// Registers a message arriving at `arrival`; returns its completion time.
  TimePoint submit(TimePoint arrival);
  /// Same, with an explicit per-message service time.
  TimePoint submit(TimePoint arrival, Duration service);
  /// Same, and records "queue.wait" (kQueue, when the message waited) and
  /// "queue.service" (kProcess) spans under `parent` in default_tracer(), so
  /// critical-path analysis can split this station's latency contribution
  /// into queueing vs. processing.
  TimePoint submit(TimePoint arrival, Duration service, const obs::TraceContext& parent);
  /// A burst of `n` messages all arriving at `at`: `n` back-to-back
  /// submit(at) calls. Returns the last completion time (`at` when n == 0).
  TimePoint submit_burst(TimePoint at, std::uint64_t n);

  [[nodiscard]] Duration service_time() const { return service_time_; }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  /// Total time messages spent waiting (not being served).
  [[nodiscard]] Duration total_wait() const { return total_wait_; }

  void reset();

 private:
  Duration service_time_;
  std::string station_;
  int level_;
  TimePoint busy_until_ = TimePoint::zero();
  std::uint64_t processed_ = 0;
  Duration total_wait_;
  obs::Histogram* wait_hist_;     ///< sim_queue_wait_us{station=...}
  obs::Counter* messages_counter_;  ///< sim_queue_messages_total{station=...}
};

}  // namespace softmow::sim
