// ShardChecker: one active race/determinism audit session over the sharded
// engine. While alive it installs the shard_guard.h hooks, collects
// ownership violations and late-delivery findings, audits the
// conservative-window invariant, and exports analysis_* metrics.
//
// Two layers of the ISSUE's checker live here:
//
//   * Ownership findings arrive from ShardGuard::check() the instant a
//     foreign-shard access happens (see shard_guard.h for the predicate).
//   * The happens-before window audit replays the engine's own bookkeeping:
//     record_window() logs each conservative window [start, horizon);
//     record_delivery() checks every mailbox drain against the destination
//     shard's executed clock — a message delivered with
//     `when < dst shard's now` means an event already executed with an
//     earlier-timestamped cross-shard message still undelivered, i.e. the
//     conservative-window invariant broke. This is the oracle a future
//     Time Warp speculation mode is validated against (ROADMAP).
//
// The record_* entry points are public and callable directly, so the
// report/audit logic is unit-testable (and the window audit usable) even in
// builds where SOFTMOW_SHARD_CHECK is off and the engine hooks compile away.
//
// One session may be active per process (the hook sink is a single global);
// constructing a second while one is alive is a logic error and asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/report.h"
#include "analysis/shard_guard.h"
#include "obs/metrics.h"

namespace softmow::analysis {

class ShardChecker {
 public:
  struct Options {
    /// Retain at most this many findings (the audit counters keep counting).
    std::size_t max_findings = 1024;
  };

  ShardChecker();
  explicit ShardChecker(Options opts);
  ~ShardChecker();
  ShardChecker(const ShardChecker&) = delete;
  ShardChecker& operator=(const ShardChecker&) = delete;

  /// Whether engine-side instrumentation is compiled in. When false, a
  /// session still audits anything fed through record_*() but sees no
  /// guard/engine traffic.
  [[nodiscard]] static bool instrumented() { return kShardCheckCompiled; }

  /// Snapshot of findings so far, sorted deterministically.
  [[nodiscard]] AnalysisReport report() const;
  [[nodiscard]] bool clean() const;

  // --- recording entry points (hook targets; public for direct audits) ----
  void record_violation(const AccessViolation& violation);
  void record_handoff(std::size_t from, std::size_t to);
  void record_window(std::uint64_t index, std::int64_t start_ns, std::int64_t horizon_ns);
  void record_delivery(std::size_t dst, std::int64_t when_ns, std::size_t src,
                       std::uint64_t src_seq, std::int64_t dst_now_ns);

 private:
  Options opts_;
  CheckerHooks hooks_;
  std::uint64_t accesses_checked_at_start_ = 0;

  AnalysisReport report_;

  obs::Counter* findings_foreign_write_;
  obs::Counter* findings_foreign_read_;
  obs::Counter* findings_late_delivery_;
  obs::Counter* handoffs_;
  obs::Counter* windows_;
  obs::Counter* deliveries_;
};

}  // namespace softmow::analysis
