// Findings object for the execution-model checker, mirroring the
// verify::VerifyReport idiom: a deterministic, sorted findings vector plus
// per-kind counts, so bench output and CI diffs are stable and a clean run
// is a one-call assertion.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/shard_guard.h"

namespace softmow::analysis {

enum class FindingKind : std::uint8_t {
  kForeignWrite,   ///< event mutated a structure owned by another shard
  kForeignRead,    ///< event read a structure owned by another shard
  kLateDelivery,   ///< cross-shard message delivered into a shard's past
};
const char* to_string(FindingKind kind);

/// One execution-model violation with exact blame: the guarded structure,
/// its owning shard, and the offending (shard, event seq, sim-time) — or,
/// for kLateDelivery, the (src shard, send seq) of the late message.
struct Finding {
  FindingKind kind = FindingKind::kForeignWrite;
  /// Guarded structure ("nib", "flowtable", "mailbox", ...) and instance id.
  std::string structure;
  std::uint64_t instance = 0;
  /// Owning shard (kForeign*) / destination shard (kLateDelivery).
  std::size_t owner = kNoShard;
  /// Offending shard: the event's shard (kForeign*) / the message's source
  /// shard (kLateDelivery).
  std::size_t accessor = kNoShard;
  /// Sim-time of the offending event / the late message's delivery time, ns.
  std::int64_t when_ns = 0;
  /// Event seq within the offending shard / the message's send seq.
  std::uint64_t event_seq = 0;
  std::string detail;

  [[nodiscard]] std::string str() const;
};

struct AnalysisReport {
  std::map<FindingKind, std::size_t> counts;
  std::vector<Finding> findings;

  /// Audit volume, for "checked N and found nothing" confidence.
  std::uint64_t accesses_checked = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t windows_audited = 0;
  std::uint64_t deliveries_checked = 0;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::size_t count(FindingKind kind) const {
    auto it = counts.find(kind);
    return it == counts.end() ? 0 : it->second;
  }
  [[nodiscard]] std::string summary() const;

  void add(Finding finding);
  /// Deterministic order: (when_ns, accessor, structure, instance, seq), so
  /// the listing does not depend on the order shards ran within a window.
  void sort_findings();
};

}  // namespace softmow::analysis
