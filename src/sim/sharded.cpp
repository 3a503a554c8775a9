#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/timeseries.h"

namespace softmow::sim {

namespace {

// Shard execution context. Set for the duration of execute_shard();
// components reached from an event use it to find the shard they run on
// (e.g. southbound channels deciding same-shard vs. cross-shard delivery).
ShardId g_current_shard = 0;
bool g_in_shard_event = false;

// Process-wide run() wall-clock, in nanoseconds (a bench may build several
// engines across scenarios; the harness exports the sum).
std::uint64_t g_engine_wall_ns = 0;

// Disjoint span-id ranges per shard: the process tracer allocates upward
// from 1, shard s from (s + 1) << 40 — no overlap until 2^40 spans, far
// beyond the bounded ring.
constexpr std::uint64_t kShardIdStride = std::uint64_t{1} << 40;

// Process-wide ring of profiler counter samples (per window per shard) for
// the Chrome-trace exporter. Pushed at window barriers, drained once by the
// bench harness at export; bounded so multi-hour runs with profiling left
// on cannot grow without limit.
constexpr std::size_t kProfileSampleCap = std::size_t{1} << 15;
std::vector<obs::CounterSample> g_profile_samples;
std::uint64_t g_profile_samples_dropped = 0;

void push_profile_sample(obs::CounterSample sample) {
  if (g_profile_samples.size() >= kProfileSampleCap) {
    ++g_profile_samples_dropped;
    return;
  }
  g_profile_samples.push_back(std::move(sample));
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

ShardedSimulator::ShardedSimulator(std::size_t shards) : ShardedSimulator(shards, Options{}) {}

ShardedSimulator::ShardedSimulator(std::size_t shards, Options opts)
    : lookahead_(opts.lookahead),
      profile_(opts.profile),
      events_counter_(obs::default_registry().counter("sim_events_executed_total")) {
  assert(shards > 0 && "need at least one shard");
  assert(lookahead_ > Duration{} && "lookahead must be positive");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->tracer = std::make_unique<obs::Tracer>();
    shard->tracer->set_id_base((static_cast<std::uint64_t>(s) + 1) * kShardIdStride);
    // A shard's queue/mailbox and tracer ring are owned by the shard itself
    // for the engine's whole life: events append spans only to their own
    // shard's ring, and cross-shard scheduling goes through the mailbox
    // handoff below.
    shard->guard.set_identity("mailbox", s);
    shard->guard.set_owner(s);
    shard->tracer->guard().set_identity("tracer", s);
    shard->tracer->guard().set_owner(s);
    shards_.push_back(std::move(shard));
  }
}

ShardedSimulator::~ShardedSimulator() = default;

ShardId ShardedSimulator::current_shard() { return g_current_shard; }

bool ShardedSimulator::in_shard_event() { return g_in_shard_event; }

double ShardedSimulator::process_wall_ms() {
  return static_cast<double>(g_engine_wall_ns) / 1e6;
}

std::vector<obs::CounterSample> ShardedSimulator::drain_profile_samples(std::uint64_t* dropped) {
  if (dropped != nullptr) *dropped = g_profile_samples_dropped;
  std::vector<obs::CounterSample> out;
  out.swap(g_profile_samples);
  g_profile_samples_dropped = 0;
  return out;
}

void ShardedSimulator::schedule(ShardId shard, Duration delay, Callback fn) {
  assert(shard < shards_.size());
  TimePoint base = (g_in_shard_event && g_current_shard < shards_.size())
                       ? shards_[g_current_shard]->now
                       : shards_[shard]->now;
  schedule_at(shard, base + delay, std::move(fn));
}

void ShardedSimulator::schedule_at(ShardId shard, TimePoint when, Callback fn) {
  assert(shard < shards_.size());
  Shard& dest = *shards_[shard];
  if (g_in_shard_event && g_current_shard != shard) {
    // Cross-shard from inside an event: conservative synchronization only
    // holds if the delivery is at least `lookahead` ahead of the sender, so
    // clamp and route through the destination mailbox.
    Shard& src = *shards_[g_current_shard];
    TimePoint earliest = src.now + lookahead_;
    if (when < earliest && !clamp_disabled_for_test_) {
      when = earliest;
      ++clamps_;
    }
    ++cross_posts_;
    Mail mail{when, g_current_shard, src.send_seq++, std::move(fn),
              obs::default_tracer().current()};
    // The one sanctioned way to touch another shard's state from inside an
    // event: the guard access below is counted as a handoff, not a finding.
    analysis::HandoffScope handoff(shard);
    SHARD_CHECKED(dest.guard, kWrite);
    dest.mailbox.push_back(std::move(mail));
    return;
  }
  assert(when >= dest.now && "cannot schedule into a shard's past");
  SHARD_CHECKED(dest.guard, kWrite);
  dest.queue.push(EventRef{when, dest.seq++,
                           dest.pool.acquire(std::move(fn), obs::default_tracer().current())});
}

std::uint64_t ShardedSimulator::alloc_fresh_total() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->pool.fresh_count();
  return total;
}

std::uint64_t ShardedSimulator::alloc_recycled_total() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->pool.recycled_count();
  return total;
}

void ShardedSimulator::post(ShardId to, Duration delay, Callback fn) {
  assert(to < shards_.size());
  TimePoint base = g_in_shard_event ? shards_[g_current_shard]->now : shards_[to]->now;
  schedule_at(to, base + delay, std::move(fn));
}

TimePoint ShardedSimulator::now(ShardId shard) const {
  assert(shard < shards_.size());
  return shards_[shard]->now;
}

bool ShardedSimulator::idle() const {
  for (const auto& s : shards_) {
    if (!s->queue.empty() || !s->mailbox.empty()) return false;
  }
  return true;
}

void ShardedSimulator::deliver_mail() {
  for (std::size_t index = 0; index < shards_.size(); ++index) {
    Shard& s = *shards_[index];
    std::vector<Mail> mail;
    mail.swap(s.mailbox);
    if (mail.empty()) continue;
    if (profile_) s.recv_count += mail.size();
    // (delivery time, sender shard, sender sequence) is a total order fixed
    // by the senders' own event sequences — the key to reproducible
    // schedules.
    std::sort(mail.begin(), mail.end(), [](const Mail& a, const Mail& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.src != b.src) return a.src < b.src;
      return a.src_seq < b.src_seq;
    });
    for (Mail& m : mail) {
      // Happens-before audit: a message stamped before the destination's
      // executed clock would mean an event already ran with this message
      // still pending — the conservative-window invariant broke.
      analysis::note_delivery(index, m.when.since_start().to_nanos(), m.src, m.src_seq,
                              s.audit_now_ns);
      s.queue.push(EventRef{m.when, s.seq++, s.pool.acquire(std::move(m.fn), m.ctx)});
    }
  }
}

void ShardedSimulator::execute_shard(std::size_t index, TimePoint horizon) {
  Shard& s = *shards_[index];
  // Two clock reads per shard-window when profiling, zero when not — the
  // event loop itself is never instrumented per event.
  const std::uint64_t busy_start = profile_ ? steady_now_ns() : 0;
  obs::DefaultTracerScope tracer_scope(s.tracer.get());
  ShardId prev_shard = g_current_shard;
  bool prev_in_event = g_in_shard_event;
  g_current_shard = index;
  g_in_shard_event = true;
  while (!s.queue.empty() && s.queue.top().when < horizon) {
    EventRef ev = s.queue.top();
    s.queue.pop();
    s.now = ev.when;
    if constexpr (analysis::kShardCheckCompiled)
      s.audit_now_ns = ev.when.since_start().to_nanos();
    ++s.executed;
    events_counter_->inc();
    // Recycle the slot before invoking: schedules inside the callback land
    // in the slot this event just vacated (steady state allocates nothing).
    EventSlot& slot = s.pool.at(ev.slot);
    SmallFn fn = std::move(slot.fn);
    const obs::TraceContext ctx = slot.ctx;
    s.pool.release(ev.slot);
    obs::Tracer::ScopedContext scoped(*s.tracer, ctx);
    // Stamp the event identity the checker blames foreign accesses on.
    analysis::set_event_context(index, ev.when.since_start().to_nanos(), ev.seq);
    fn();
  }
  analysis::clear_event_context();
  g_current_shard = prev_shard;
  g_in_shard_event = prev_in_event;
  if (profile_) s.window_busy_ns = steady_now_ns() - busy_start;
}

void ShardedSimulator::flush_profile() {
  // Exported at the end of each run(), as deltas since the previous flush:
  // benches reuse one engine across phases, and counters must only ever
  // increase. Count-based series (events, mail, windows) are pure functions
  // of the event timeline — byte-identical run to run — while every
  // wall-derived series carries the `profile_wall_` prefix so determinism
  // diffs can strip it like bench_wall_ms.
  auto& reg = obs::default_registry();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const obs::Labels labels{{"shard", std::to_string(i)}};
    reg.counter("profile_events_total", labels)->inc(s.executed - s.exec_flushed);
    s.exec_flushed = s.executed;
    reg.counter("profile_mail_sent_total", labels)->inc(s.send_seq - s.sent_flushed);
    s.sent_flushed = s.send_seq;
    reg.counter("profile_mail_recv_total", labels)->inc(s.recv_count);
    s.recv_count = 0;
    reg.counter("profile_windows_total", labels)->inc(s.windows_participated);
    s.windows_participated = 0;
    reg.counter("profile_bounded_windows_total", labels)->inc(s.windows_bounded);
    s.windows_bounded = 0;
    reg.gauge("profile_wall_busy_ms", labels)->add(static_cast<double>(s.busy_ns) / 1e6);
    s.busy_ns = 0;
    reg.gauge("profile_wall_stall_ms", labels)->add(static_cast<double>(s.stall_ns) / 1e6);
    s.stall_ns = 0;
    reg.gauge("profile_wall_idle_ms", labels)->add(static_cast<double>(s.idle_ns) / 1e6);
    s.idle_ns = 0;
    reg.gauge("profile_wall_critical_windows", labels)
        ->add(static_cast<double>(s.critical_windows));
    s.critical_windows = 0;
  }
  reg.counter("profile_engine_windows_total")->inc(windows_ - windows_flushed_);
  windows_flushed_ = windows_;
}

std::uint64_t ShardedSimulator::run() {
  auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t before = executed_total_;
  // The caller's tracer, resolved before any shard override: shard streams
  // merge back into it so exporters see one deterministic timeline.
  obs::Tracer& target = obs::default_tracer();
  running_ = true;
  // New run, new audit epoch: the happens-before window audit only compares
  // deliveries against events executed *within this run* (see Shard::audit_now_ns).
  if constexpr (analysis::kShardCheckCompiled) {
    for (auto& s : shards_) s->audit_now_ns = -1;
  }
  std::vector<std::size_t> window_work;
  for (;;) {
    deliver_mail();
    bool any = false;
    TimePoint window_start;
    std::size_t bounding = 0;  // shard whose head event sets W (first argmin)
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const auto& s = shards_[i];
      if (s->queue.empty()) continue;
      TimePoint t = s->queue.top().when;
      if (!any || t < window_start) {
        window_start = t;
        bounding = i;
        any = true;
      }
    }
    if (!any) break;
    const TimePoint horizon = window_start + lookahead_;
    window_work.clear();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i]->queue.empty() && shards_[i]->queue.top().when < horizon)
        window_work.push_back(i);
    }
    ++windows_;
    analysis::note_window(windows_, window_start.since_start().to_nanos(),
                          horizon.since_start().to_nanos());
    std::uint64_t window_wall_start = 0;
    if (profile_) {
      ++shards_[bounding]->windows_bounded;
      for (std::size_t i : window_work) {
        Shard& s = *shards_[i];
        ++s.windows_participated;
        s.exec_before = s.executed;
        s.window_busy_ns = 0;
      }
      window_wall_start = steady_now_ns();
    }
    for (std::size_t i : window_work) execute_shard(i, horizon);
    if (profile_) {
      const std::uint64_t window_wall = steady_now_ns() - window_wall_start;
      const std::int64_t at_ns = window_start.since_start().to_nanos();
      std::size_t critical = shards_.size();
      std::uint64_t critical_busy = 0;
      std::size_t participant = 0;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& s = *shards_[i];
        if (participant < window_work.size() && window_work[participant] == i) {
          ++participant;
          const std::uint64_t busy = std::min(s.window_busy_ns, window_wall);
          s.busy_ns += busy;
          s.stall_ns += window_wall - busy;
          if (critical == shards_.size() || busy > critical_busy) {
            critical = i;
            critical_busy = busy;
          }
          push_profile_sample({at_ns, "shard" + std::to_string(i) + "/busy_ms",
                               static_cast<double>(s.window_busy_ns) / 1e6});
          push_profile_sample({at_ns, "shard" + std::to_string(i) + "/events",
                               static_cast<double>(s.executed - s.exec_before)});
        } else {
          s.idle_ns += window_wall;
        }
      }
      if (critical < shards_.size()) ++shards_[critical]->critical_windows;
    }
    // Sim-time sampling at the barrier: counters observed here reflect the
    // deterministic set of events with `when < horizon`, so recorded series
    // repeat exactly run to run.
    if (sampler_ != nullptr) sampler_->sample(window_start);
  }
  if (profile_) flush_profile();
  running_ = false;
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->executed;
  executed_total_ = total;
  for (auto& s : shards_) target.merge_from(*s->tracer);
  auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  wall_ms_ += static_cast<double>(wall_ns) / 1e6;
  g_engine_wall_ns += static_cast<std::uint64_t>(wall_ns);
  return executed_total_ - before;
}

}  // namespace softmow::sim
