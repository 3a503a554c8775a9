#include "analysis/shard_check.h"

#include <cassert>
#include <sstream>

namespace softmow::analysis {

namespace {
bool g_session_active = false;
}  // namespace

ShardChecker::ShardChecker() : ShardChecker(Options{}) {}

ShardChecker::ShardChecker(Options opts) : opts_(opts) {
  assert(!g_session_active && "one ShardChecker session per process");
  g_session_active = true;
  obs::MetricsRegistry& reg = obs::default_registry();
  findings_foreign_write_ =
      reg.counter("analysis_findings_total", {{"kind", "foreign-write"}});
  findings_foreign_read_ = reg.counter("analysis_findings_total", {{"kind", "foreign-read"}});
  findings_late_delivery_ =
      reg.counter("analysis_findings_total", {{"kind", "late-delivery"}});
  handoffs_ = reg.counter("analysis_handoffs_total");
  windows_ = reg.counter("analysis_windows_audited_total");
  deliveries_ = reg.counter("analysis_deliveries_checked_total");
  accesses_checked_at_start_ = accesses_checked();

  hooks_.self = this;
  hooks_.on_violation = [](void* self, const AccessViolation& v) {
    static_cast<ShardChecker*>(self)->record_violation(v);
  };
  hooks_.on_handoff = [](void* self, std::size_t from, std::size_t to) {
    static_cast<ShardChecker*>(self)->record_handoff(from, to);
  };
  hooks_.on_window = [](void* self, std::uint64_t index, std::int64_t start_ns,
                        std::int64_t horizon_ns) {
    static_cast<ShardChecker*>(self)->record_window(index, start_ns, horizon_ns);
  };
  hooks_.on_delivery = [](void* self, std::size_t dst, std::int64_t when_ns, std::size_t src,
                          std::uint64_t src_seq, std::int64_t dst_now_ns) {
    static_cast<ShardChecker*>(self)->record_delivery(dst, when_ns, src, src_seq, dst_now_ns);
  };
  install_checker_hooks(&hooks_);
}

ShardChecker::~ShardChecker() {
  uninstall_checker_hooks();
  g_session_active = false;
}

AnalysisReport ShardChecker::report() const {
  AnalysisReport copy = report_;
  copy.accesses_checked = accesses_checked() - accesses_checked_at_start_;
  copy.sort_findings();
  return copy;
}

bool ShardChecker::clean() const {
  return report_.findings.empty() && report_.counts.empty();
}

void ShardChecker::record_violation(const AccessViolation& v) {
  Finding f;
  f.kind = v.kind == AccessKind::kRead ? FindingKind::kForeignRead : FindingKind::kForeignWrite;
  f.structure = v.structure;
  f.instance = v.instance;
  f.owner = v.owner;
  f.accessor = v.accessor;
  f.when_ns = v.when_ns;
  f.event_seq = v.event_seq;
  (f.kind == FindingKind::kForeignRead ? findings_foreign_read_ : findings_foreign_write_)->inc();
  if (report_.findings.size() < opts_.max_findings) {
    report_.add(std::move(f));
  } else {
    ++report_.counts[f.kind];  // keep counting past the retention cap
  }
}

void ShardChecker::record_handoff(std::size_t /*from*/, std::size_t /*to*/) {
  handoffs_->inc();
  ++report_.handoffs;
}

void ShardChecker::record_window(std::uint64_t /*index*/, std::int64_t /*start_ns*/,
                                 std::int64_t /*horizon_ns*/) {
  windows_->inc();
  ++report_.windows_audited;
}

void ShardChecker::record_delivery(std::size_t dst, std::int64_t when_ns, std::size_t src,
                                   std::uint64_t src_seq, std::int64_t dst_now_ns) {
  deliveries_->inc();
  ++report_.deliveries_checked;
  if (when_ns >= dst_now_ns) return;
  // The destination already executed past `when_ns` with this message still
  // undelivered: the conservative-window invariant broke.
  findings_late_delivery_->inc();
  Finding f;
  f.kind = FindingKind::kLateDelivery;
  f.structure = "mailbox";
  f.instance = dst;
  f.owner = dst;
  f.accessor = src;
  f.when_ns = when_ns;
  f.event_seq = src_seq;
  std::ostringstream os;
  os << "dst shard clock already at " << dst_now_ns << "ns";
  f.detail = os.str();
  if (report_.findings.size() < opts_.max_findings) {
    report_.add(std::move(f));
  } else {
    ++report_.counts[FindingKind::kLateDelivery];
  }
}

}  // namespace softmow::analysis
