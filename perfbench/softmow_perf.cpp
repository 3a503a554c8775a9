// End-to-end benchmark driver for the SoftMoW control plane.
//
// Runs one named workload against the public API of the built libraries and
// prints every metric as `metric <name> = <value> <unit> (n=<samples>)`, then
// a `COUNTS {...}` line with the seed-determined operation counts, then one
// JSON result line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload is a closed loop: one caller on one thread issues each call
// after the previous one returned. The amount of work is a pure function of
// --seed and --seconds (a fixed nominal rate per second of --seconds), so
// operation counts repeat exactly at a fixed seed while wall time is what
// gets measured. Wall times are normalized to the host's speed (HostProbe).
//
//   --trace 0  end-to-end metrics; no spans are recorded.
//   --trace 1  per-layer metrics: spans around every public call this driver
//              makes (written to --spans-out), layer self times, and counters
//              read from public APIs.
//
// Usage: softmow_perf --workload <paper_build|bearer_churn|mobility_maintenance>
//                     --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "softmow/softmow.h"

namespace softmow::perf {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::size_t threads = 1;  ///< sharded-engine workers: min(4, nproc)
};

std::size_t engine_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp<std::size_t>(cpus, 1, 4);
}

Options parse_args(int argc, char** argv) {
  Options o;
  o.threads = engine_threads();
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
    std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--spans-out") o.spans_out = value;
    else throw std::invalid_argument("unknown flag " + std::string(flag));
  }
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

// --- spans -------------------------------------------------------------------

/// In-memory span log around the public calls this driver makes. When
/// disabled, a Scope reads no clock and records nothing. Span names must be
/// string literals (they are interned by address).
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = ~0u;
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::uint64_t op = 0;  ///< operation id shared by the spans of one operation
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t op) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name, op);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Names the span after the call returned (e.g. by the class it took).
    void rename(const char* name) {
      if (log_ != nullptr) log_->spans_[index_].name = log_->intern(name);
    }

   private:
    SpanLog* log_;
    std::uint32_t index_ = kNone;
  };

  Scope scope(const char* name, std::uint64_t op = 0) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::string_view name(const Span& s) const { return names_[s.name]; }
  [[nodiscard]] static double duration_ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
  }

  /// Writes `op<TAB>parent<TAB>name<TAB>begin_ns<TAB>end_ns` lines.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "op\tparent\tname\tbegin_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu\t%lld\t%s\t%lld\t%lld\n", static_cast<unsigned long long>(s.op),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   names_[s.name], static_cast<long long>(s.begin_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  std::uint32_t intern(const char* name) {
    auto [it, fresh] = ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (fresh) names_.push_back(name);
    return it->second;
  }
  std::uint32_t open(const char* name, std::uint64_t op) {
    Span s;
    s.name = intern(name);
    s.parent = stack_.empty() ? kNone : stack_.back();
    s.op = op;
    s.begin_ns = now_ns();
    auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(index);
    return index;
  }
  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<const char*> names_;
  std::unordered_map<const char*, std::uint32_t> ids_;
};

/// Per span name: calls, total and self (minus child spans) time.
struct SpanStats {
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};

std::map<std::string, SpanStats, std::less<>> span_stats(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent != SpanLog::kNone) child_ms[s.parent] += SpanLog::duration_ms(s);
  }
  std::map<std::string, SpanStats, std::less<>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& st = out[std::string(log.name(spans[i]))];
    ++st.calls;
    st.total_ms += SpanLog::duration_ms(spans[i]);
    st.self_ms += SpanLog::duration_ms(spans[i]) - child_ms[i];
  }
  return out;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Time metrics are normalized to the host's speed. The speed of the 4-vCPU
// virtual machine this benchmark was tuned on changes by up to 1.7x, for
// seconds to minutes at a time, in wall and CPU time alike: other tenants
// share its cores. Every timed stream is cut into slices of a fraction of a
// second; a fixed reference computation is timed before and after each
// slice, and the slice's wall time and latencies are scaled by
// kReferenceUs / (its reference timing). A change to the control plane
// moves the scaled times as it moves the raw ones; the host's speed moves
// the reference with them. Raw figures are printed beside the metrics.

/// Reference timing of the host's fast level on the tuning host.
constexpr double kReferenceUs = 75;

/// Times a fixed reference computation and keeps a log of the timings. The
/// computation is a chain of dependent loads from a 64 KiB table, which
/// lives in the per-core L2 cache: on that host, its time tracks the
/// control plane's speed (correlation 0.8 on a map-and-table micro workload,
/// where a chain of register arithmetic gave 0.2). Best of three, so the
/// first pass reloads the table after the work evicted it.
class HostProbe {
 public:
  HostProbe() : table_(kEntries) {
    for (std::uint32_t i = 0; i < kEntries; ++i) table_[i] = i * 2654435761u;
  }
  /// Times the reference computation; returns the log index.
  std::size_t sample() {
    double best_us = 0;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      std::uint32_t x = seed_;
      for (std::uint32_t i = 0; i < 20'000; ++i)
        x = table_[(x ^ i) & (kEntries - 1)] + x * 1664525u;
      seed_ += x;
      const double us = us_between(t0, Clock::now());
      best_us = rep == 0 ? us : std::min(best_us, us);
    }
    log_us_.push_back(best_us);
    return log_us_.size() - 1;
  }
  /// Mean timing of the samples from log index `first` on.
  [[nodiscard]] double mean_since(std::size_t first) const {
    double total = 0;
    for (std::size_t i = first; i < log_us_.size(); ++i) total += log_us_[i];
    return total / static_cast<double>(log_us_.size() - first);
  }
  [[nodiscard]] const std::vector<double>& log_us() const { return log_us_; }

 private:
  static constexpr std::uint32_t kEntries = 1u << 14;
  std::vector<std::uint32_t> table_;
  std::vector<double> log_us_;
  std::uint32_t seed_ = 1;  ///< carries each result into the next, so no loop is elided
};

/// A slice of consecutive timed work (a fraction of a second): its
/// operations, its wall time, the request_bearer latencies it sampled, and
/// the host's speed around it (mean reference timing; lower is faster).
struct Slice {
  std::uint64_t ops = 0;
  double seconds = 0;
  std::vector<double> setup_us;
  double host_us = 0;

  [[nodiscard]] double ops_per_s() const { return static_cast<double>(ops) / seconds; }
};

/// Times one slice: reference timings before and after (and any taken by
/// slices nested in it) and the wall time between them.
class SliceTimer {
 public:
  explicit SliceTimer(HostProbe& probe) : probe_(probe), first_(probe.sample()) {
    start_ = Clock::now();
  }
  /// Closes `slice` with the wall time since construction.
  void finish(Slice& slice) {
    slice.seconds = ms_between(start_, Clock::now()) / 1e3;
    probe_.sample();
    slice.host_us = probe_.mean_since(first_);
  }

 private:
  HostProbe& probe_;
  std::size_t first_;
  Clock::time_point start_;
};

/// All of `slices` pooled into one; with `normalize`, each slice's wall time
/// and latencies scaled to the reference host speed first.
Slice pooled(const std::vector<Slice>& slices, bool normalize) {
  Slice out;
  for (const Slice& s : slices) {
    const double scale = normalize ? kReferenceUs / s.host_us : 1.0;
    out.ops += s.ops;
    out.seconds += s.seconds * scale;
    for (double us : s.setup_us) out.setup_us.push_back(us * scale);
  }
  return out;
}

/// The sampled bearer loops of a workload, cut into slices.
class BearerSlices {
 public:
  explicit BearerSlices(HostProbe& probe) : probe_(probe) {}
  void begin() {
    open_ = Slice{};
    timer_.emplace(probe_);
  }
  /// A bearer operation other than a setup (teardown, idle, active).
  void op() { ++open_.ops; }
  void setup(double us) {
    ++open_.ops;
    open_.setup_us.push_back(us);
  }
  void end() {
    timer_->finish(open_);
    ops_ += open_.ops;
    if (!open_.setup_us.empty()) slices_.push_back(std::move(open_));
  }

  [[nodiscard]] const std::vector<Slice>& slices() const { return slices_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  HostProbe& probe_;
  std::optional<SliceTimer> timer_;
  Slice open_;
  std::vector<Slice> slices_;
  std::uint64_t ops_ = 0;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// Per-layer metrics of the traced run, in report order. A workload that
/// does not reach a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"topo.generate_wan_ms", "ms"},
    {"topo.generate_lte_trace_ms", "ms"},
    {"topo.infer_bs_groups_ms", "ms"},
    {"topo.iplane_model_ms", "ms"},
    {"topo.partition_regions_ms", "ms"},
    {"mgmt.bootstrap_ms", "ms"},
    {"apps.suite_ms", "ms"},
    {"apps.originate_interdomain_ms", "ms"},
    {"apps.ue_attach_us", "us"},
    {"verify.full_ms", "ms"},
    {"verify.classes", "count"},
    {"dataplane.rules_resident", "count"},
    {"apps.request_bearer_local_us", "us"},
    {"apps.request_bearer_delegated_us", "us"},
    {"apps.request_bearer_gbr_us", "us"},
    {"apps.deactivate_bearer_us", "us"},
    {"apps.ue_idle_us", "us"},
    {"apps.ue_active_us", "us"},
    {"apps.delegated_share", "ratio"},
    {"reca.abstraction_recompute_us", "us"},
    {"reca.vfabric_updates", "1/op"},
    {"reca.flowmods_translated", "1/op"},
    {"nos.compute_route_us", "us"},
    {"nos.path_setups_per_op", "1/op"},
    {"nos.flowmods_per_op", "1/op"},
    {"southbound.to_device_per_op", "msg/op"},
    {"southbound.to_controller_per_op", "msg/op"},
    {"reca.messages_handled.L1", "msg/op"},
    {"reca.messages_handled.L2", "msg/op"},
    {"apps.handover_intra_us", "us"},
    {"apps.handover_inter_us", "us"},
    {"apps.handovers_root_share", "ratio"},
    {"apps.region_opt_plan_ms", "ms"},
    {"apps.region_opt_round_ms", "ms"},
    {"apps.region_opt_moves", "count"},
    {"verify.reverify_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.events", "count"},
    {"sim.windows", "count"},
    {"sim.events_per_window", "1/window"},
    {"sim.busy_ms", "ms"},
    {"sim.stall_ms", "ms"},
    {"sim.alloc_fresh", "count"},
    {"nos.discovery_frames", "1/round"},
    {"obs.spans_per_op", "span/op"},
    {"obs.trace_dropped", "count"},
    {"bench.unattributed_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

/// Everything a workload produces: correctness, counts and timings.
struct Run {
  explicit Run(const Options& o) : opts(o), log(o.trace) {}

  const Options& opts;
  SpanLog log;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> findings;
  std::map<std::string, std::uint64_t> counts;  ///< seed-determined op counts
  std::uint64_t attaches = 0;

  HostProbe probe;
  std::vector<Slice> setups;  ///< one per set-up repetition
  void end_setup(SliceTimer& timer) {
    Slice setup;
    timer.finish(setup);
    setups.push_back(std::move(setup));
  }
  std::vector<Slice> verify_passes;  ///< sampled full verify passes, one slice each
  /// Setups, teardowns, idles and actives of the sampled loops.
  BearerSlices bearer{probe};
  std::vector<double> handover_us;
  std::vector<double> reconfig_round_ms;
  std::uint64_t region_moves = 0;       ///< moves executed by timed rounds
  double discovery_run_ms = 0;
  std::uint64_t discovery_rounds = 0;
  double peak_rss_mb = 0;  ///< VmHWM at the end of the timed phase
  /// The timed phase repeats one epoch holding every kind of operation the
  /// phase issues; each epoch is a slice.
  std::vector<Slice> epochs;
  std::uint64_t phase_ops = 0;
  void end_epoch(std::uint64_t ops, SliceTimer& timer) {
    Slice epoch;
    epoch.ops = ops;
    timer.finish(epoch);
    epochs.push_back(std::move(epoch));
    phase_ops += ops;
  }

  std::map<std::string, Metric> layer;  ///< per-layer metrics (traced run)
  void add_layer(const std::string& name, double value, std::uint64_t n = 1) {
    layer[name] = Metric{name, value, "", n};
  }

  [[nodiscard]] std::uint64_t count(const std::string& key) const {
    auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }
  /// Counts a failed operation by kind (never dropped).
  void fail(const char* what) {
    ++failed;
    ++counts[std::string("failed.") + what];
  }
};

// --- scenarios ---------------------------------------------------------------

/// The synthesized network is fixed (the benches' default master seed);
/// --seed drives every request stream a workload issues against it, so
/// per-operation costs compare across seeds.
constexpr std::uint64_t kScenarioSeed = 1;

/// Paper scale (§7.1): 321 switches, 1000 base stations, 48 h trace, 11,590
/// prefixes, 8 egress points, 4 leaves. Reduced: the same WAN with a few
/// hundred base stations and a 1 h trace.
topo::ScenarioParams scenario_params(bool paper_scale, std::size_t egress_points) {
  const std::uint64_t seed = kScenarioSeed;
  topo::ScenarioParams p;
  p.wan.switches = 321;
  p.regions = 4;
  p.egress_points = egress_points;
  if (paper_scale) {
    p.trace.base_stations = 1000;
    p.trace.duration_minutes = 48 * 60;
    p.iplane.prefixes = 11590;
  } else {
    p.trace.base_stations = 300;
    p.trace.metro_clusters = 8;
    p.trace.duration_minutes = 60;
    p.iplane.prefixes = 2000;
  }
  p.seed = seed;
  p.wan.seed = seed * 13 + 7;
  p.trace.seed = seed * 29 + 11;
  p.iplane.seed = seed * 41 + 23;
  return p;
}

/// build_scenario's public steps called one at a time (traced run only), so
/// input synthesis and bootstrap get their own spans. The timed set-up
/// always calls topo::build_scenario itself.
void decomposed_build(Run& run, topo::ScenarioParams params) {
  auto s = std::make_unique<topo::Scenario>();
  Rng rng(params.seed);
  {
    auto span = run.log.scope("topo.generate_wan");
    s->wan = topo::generate_wan(s->net, params.wan);
    s->egresses = topo::place_egress_points(s->net, s->wan, params.egress_points, rng);
  }
  params.trace.extent = params.wan.extent;
  params.iplane.extent = params.wan.extent;
  {
    auto span = run.log.scope("topo.generate_lte_trace");
    s->trace = topo::generate_lte_trace(s->net, s->wan, params.trace);
  }
  {
    // Probe: the inference step inside generate_lte_trace, re-run on the
    // trace's BS handover graph.
    auto span = run.log.scope("topo.infer_bs_groups");
    auto groups = topo::infer_bs_groups(s->trace.bs_handover_graph, topo::InferenceParams{6});
    if (groups.size() != s->trace.groups.size())
      run.findings.push_back("infer_bs_groups disagrees with the trace's groups");
  }
  {
    auto span = run.log.scope("topo.iplane_model");
    s->iplane = std::make_unique<topo::IPlaneModel>(s->net, params.iplane);
  }
  {
    auto span = run.log.scope("topo.partition_regions");
    s->partition = topo::partition_regions(s->net, s->trace.groups, s->wan.switches,
                                           params.regions, s->trace.group_load);
    topo::make_regions_connected(s->net, s->partition);
  }
  const dataplane::MiddleboxType kTypes[] = {
      dataplane::MiddleboxType::kFirewall, dataplane::MiddleboxType::kLightweightDpi,
      dataplane::MiddleboxType::kRateLimiter, dataplane::MiddleboxType::kVideoTranscoder};
  mgmt::HierarchySpec spec;
  {
    auto span = run.log.scope("topo.hierarchy_spec");
    for (std::size_t r = 0; r < s->partition.switch_regions.size(); ++r) {
      const auto& switches = s->partition.switch_regions[r];
      if (switches.empty()) continue;
      for (std::size_t m = 0; m < params.middleboxes_per_region; ++m)
        s->net.add_middlebox(rng.choice(switches), kTypes[(r + m) % 4], 1e6);
    }
    spec.label_mode = params.label_mode;
    spec.group_adjacency = s->trace.group_adjacency;
    for (std::size_t r = 0; r < params.regions; ++r) {
      mgmt::RegionSpec region;
      region.name = "leaf-" + std::string(1, static_cast<char>('A' + r));
      region.switches = s->partition.switch_regions[r];
      region.groups = s->partition.group_regions[r];
      spec.leaves.push_back(std::move(region));
    }
  }
  {
    auto span = run.log.scope("mgmt.bootstrap");
    s->mgmt = std::make_unique<mgmt::ManagementPlane>(&s->net);
    s->mgmt->bootstrap(spec);
  }
  {
    auto span = run.log.scope("apps.suite");
    s->apps = std::make_unique<apps::AppSuite>(*s->mgmt);
  }
  {
    auto span = run.log.scope("apps.originate_interdomain");
    s->apps->originate_interdomain(*s->iplane);
  }
}

/// Resident UEs: the group each one sits in, and the UEs of each group.
struct Population {
  std::vector<BsGroupId> group_of;                 ///< by UE index (UeId = index + 1)
  std::vector<std::vector<std::size_t>> by_group;  ///< trace group index -> UE indices
};

UeId ue_id(std::size_t index) { return UeId{index + 1}; }

/// Traffic drawn from the synthesized LTE trace, summed over its per-minute
/// bins: bearer arrivals by group, and handovers by group pair. Group
/// indices are positions in LteTrace::groups.
class TraceMix {
 public:
  explicit TraceMix(const topo::LteTrace& trace) {
    std::vector<double> arrivals(trace.groups.size(), 0.0);
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> handovers;
    for (const topo::TraceBin& bin : trace.bins) {
      for (std::size_t g = 0; g < arrivals.size(); ++g) arrivals[g] += bin.bearer_arrivals[g];
      for (const auto& [a, b, count] : bin.handovers) handovers[{a, b}] += count;
    }
    bearer_group_ = std::discrete_distribution<std::size_t>(arrivals.begin(), arrivals.end());
    std::vector<double> weights;
    for (const auto& [pair, count] : handovers) {
      pairs_.push_back(pair);
      weights.push_back(count);
    }
    if (pairs_.empty()) throw std::runtime_error("trace has no handovers");
    handover_pair_ = std::discrete_distribution<std::size_t>(weights.begin(), weights.end());
  }

  /// The group of a bearer arrival.
  std::size_t bearer_group(Rng& rng) { return bearer_group_(rng.engine()); }
  /// The (from, to) groups of a handover, in either direction.
  std::pair<std::size_t, std::size_t> handover(Rng& rng) {
    const auto [a, b] = pairs_[handover_pair_(rng.engine())];
    if (rng.bernoulli(0.5)) return {a, b};
    return {b, a};
  }

 private:
  std::discrete_distribution<std::size_t> bearer_group_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  std::discrete_distribution<std::size_t> handover_pair_;
};

/// Attaches `total` UEs round-robin over the trace's groups, each at a
/// member base station (also round-robin). One span per group batch.
Population attach_population(Run& run, topo::Scenario& s, std::size_t total) {
  const auto& groups = s.trace.groups;
  Population pop;
  pop.group_of.resize(total);
  pop.by_group.resize(groups.size());
  for (std::size_t i = 0; i < total; ++i) pop.by_group[i % groups.size()].push_back(i);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const dataplane::BsGroup* rec = s.net.bs_group(groups[g]);
    auto& app = s.apps->leaf_mobility_of_group(groups[g]);
    auto span = run.log.scope("apps.ue_attach_batch");
    for (std::size_t k = 0; k < pop.by_group[g].size(); ++k) {
      std::size_t ue = pop.by_group[g][k];
      pop.group_of[ue] = groups[g];
      ++run.attempted;
      ++run.attaches;
      if (!app.ue_attach(ue_id(ue), rec->members[k % rec->members.size()]).ok())
        run.fail("ue_attach");
    }
  }
  return pop;
}

/// Requests one best-effort bearer for every UE in `ues` (untimed).
void park_bearers(Run& run, topo::Scenario& s, const Population& pop,
                  const std::vector<std::size_t>& ues, Rng& rng) {
  const auto prefixes = s.iplane->prefixes();
  for (std::size_t ue : ues) {
    auto& app = s.apps->leaf_mobility_of_group(pop.group_of[ue]);
    apps::BearerRequest req;
    req.ue = ue_id(ue);
    req.bs = app.ue(req.ue)->bs;
    req.dst_prefix = prefixes[rng.uniform_u64(0, prefixes.size() - 1)];
    const std::uint64_t local_before = app.stats().bearers_local;
    ++run.attempted;
    auto span = run.log.scope("apps.request_bearer", ue + 1);
    if (!app.request_bearer(req).ok()) {
      run.fail("request_bearer");
      continue;
    }
    bool local = app.stats().bearers_local > local_before;
    span.rename(local ? "apps.request_bearer.local" : "apps.request_bearer.delegated");
    ++run.counts[local ? "resident.local" : "resident.delegated"];
  }
}

/// Re-establishes the bearers of `count` resident UEs, each in a group drawn
/// by the trace's bearer arrivals: teardown, then a new best-effort request
/// at the UE's current leaf. When `sample`, the loop is one bearer slice.
void refresh_bearers(Run& run, topo::Scenario& s, Population& pop, TraceMix& mix, Rng& rng,
                     std::size_t count, bool sample) {
  const auto prefixes = s.iplane->prefixes();
  if (sample) run.bearer.begin();
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t g = mix.bearer_group(rng);
    while (pop.by_group[g].empty()) g = mix.bearer_group(rng);
    const auto& ues = pop.by_group[g];
    const std::size_t ue = ues[rng.uniform_u64(0, ues.size() - 1)];
    auto& app = s.apps->leaf_mobility_of_group(pop.group_of[ue]);
    std::vector<BearerId> held;
    for (const auto& [id, rec] : app.ue(ue_id(ue))->bearers) held.push_back(id);
    for (BearerId id : held) {
      ++run.attempted;
      if (sample) run.bearer.op();
      auto span = run.log.scope("apps.deactivate_bearer");
      if (!app.deactivate_bearer(ue_id(ue), id).ok()) run.fail("apps.deactivate_bearer");
    }
    apps::BearerRequest req;
    req.ue = ue_id(ue);
    req.bs = app.ue(req.ue)->bs;
    req.dst_prefix = prefixes[rng.uniform_u64(0, prefixes.size() - 1)];
    ++run.attempted;
    const std::uint64_t local_before = app.stats().bearers_local;
    auto span = run.log.scope("apps.request_bearer", ue + 1);
    auto r0 = Clock::now();
    const bool ok = app.request_bearer(req).ok();
    const double us = us_between(r0, Clock::now());
    if (!ok) {
      run.fail("request_bearer");
      if (sample) run.bearer.op();
      continue;
    }
    const bool local = app.stats().bearers_local > local_before;
    span.rename(local ? "apps.request_bearer.local" : "apps.request_bearer.delegated");
    ++run.counts[local ? "refresh.local" : "refresh.delegated"];
    if (sample) run.bearer.setup(us);
  }
  if (sample) run.bearer.end();
}

/// One full verify pass, timed when `sample`.
verify::VerifyReport timed_verify(Run& run, topo::Scenario& s, bool sample) {
  std::optional<SliceTimer> timer;
  if (sample) timer.emplace(run.probe);
  auto span = run.log.scope("verify.full");
  verify::VerifyReport report = s.mgmt->verify_data_plane();
  if (sample) {
    Slice pass;
    pass.ops = 1;
    timer->finish(pass);
    run.verify_passes.push_back(std::move(pass));
  }
  return report;
}

/// A warm-up full verify pass on a freshly set-up scenario (charged to
/// set-up); a finding is recorded when it is not clean.
void setup_verify(Run& run, topo::Scenario& s) {
  verify::VerifyReport report = timed_verify(run, s, false);
  if (!report.clean()) run.findings.push_back("verify after set-up: " + report.summary());
}

/// One probe audit of the data plane; a finding is recorded when it is not
/// clean.
bool audit(Run& run, topo::Scenario& s) {
  auto span = run.log.scope("mgmt.audit");
  mgmt::AuditReport report = mgmt::audit_data_plane(s.net);
  if (report.clean()) return true;
  run.findings.push_back("audit: " + std::to_string(report.findings.size()) +
                         " undelivered classifiers, " +
                         std::to_string(report.label_violations) + " label violations");
  return false;
}

/// Closing correctness check shared by every workload: the probe audit and a
/// full verify pass must both come back clean.
void final_check(Run& run, topo::Scenario& s) {
  (void)audit(run, s);
  verify::VerifyReport report = timed_verify(run, s, false);
  if (!report.clean()) run.findings.push_back("verify: " + report.summary());
  run.add_layer("verify.classes", static_cast<double>(report.classes_analyzed));
  run.add_layer("dataplane.rules_resident", static_cast<double>(s.net.total_rules()));
}

// --- counters read from public APIs -------------------------------------------

/// Sum over every series of a metric family in the default registry.
double registry_sum(const std::string& name) {
  double total = 0;
  for (const obs::MetricSample& m : obs::default_registry().snapshot()) {
    if (m.name != name) continue;
    if (m.kind == obs::MetricKind::kCounter) total += static_cast<double>(m.counter_value);
    if (m.kind == obs::MetricKind::kGauge) total += m.gauge_value;
  }
  return total;
}

/// Control-plane work counters, snapshotted around a timed phase.
struct Counters {
  double path_setups = 0;
  double flowmods = 0;
  double to_device = 0;
  double to_controller = 0;
  double messages_l1 = 0;
  double messages_l2 = 0;
  double vfabric_updates = 0;
  double flowmods_translated = 0;
  double spans_recorded = 0;
  double spans_dropped = 0;

  static Counters read(topo::Scenario& s) {
    Counters c;
    c.path_setups = registry_sum("path_setups_total");
    c.flowmods = registry_sum("flowmods_sent_total");
    const obs::MetricsRegistry& reg = obs::default_registry();
    if (const obs::Counter* x =
            reg.find_counter("southbound_messages_total", {{"direction", "to_device"}}))
      c.to_device = static_cast<double>(x->value());
    if (const obs::Counter* x =
            reg.find_counter("southbound_messages_total", {{"direction", "to_controller"}}))
      c.to_controller = static_cast<double>(x->value());
    for (reca::Controller* ctl : s.mgmt->all_controllers()) {
      (ctl->level() == 1 ? c.messages_l1 : c.messages_l2) +=
          static_cast<double>(ctl->messages_handled());
      c.vfabric_updates += static_cast<double>(ctl->reca().vfabric_updates_sent());
      c.flowmods_translated += static_cast<double>(ctl->reca().stats().flowmods_translated);
    }
    const obs::Tracer& tracer = obs::default_tracer();
    c.spans_dropped = static_cast<double>(tracer.dropped_spans());
    c.spans_recorded = static_cast<double>(tracer.spans().size()) + c.spans_dropped;
    return c;
  }

  /// Adds the work done between snapshots `a` and `b`.
  void add(const Counters& a, const Counters& b) {
    path_setups += b.path_setups - a.path_setups;
    flowmods += b.flowmods - a.flowmods;
    to_device += b.to_device - a.to_device;
    to_controller += b.to_controller - a.to_controller;
    messages_l1 += b.messages_l1 - a.messages_l1;
    messages_l2 += b.messages_l2 - a.messages_l2;
    vfabric_updates += b.vfabric_updates - a.vfabric_updates;
    flowmods_translated += b.flowmods_translated - a.flowmods_translated;
    spans_recorded += b.spans_recorded - a.spans_recorded;
    spans_dropped += b.spans_dropped - a.spans_dropped;
  }
};

/// Per-operation control-plane work, from work accumulated with add().
void add_counter_layers(Run& run, const Counters& work, std::uint64_t ops) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  run.add_layer("nos.path_setups_per_op", work.path_setups / n, ops);
  run.add_layer("nos.flowmods_per_op", work.flowmods / n, ops);
  run.add_layer("southbound.to_device_per_op", work.to_device / n, ops);
  run.add_layer("southbound.to_controller_per_op", work.to_controller / n, ops);
  run.add_layer("reca.messages_handled.L1", work.messages_l1 / n, ops);
  run.add_layer("reca.messages_handled.L2", work.messages_l2 / n, ops);
  run.add_layer("reca.vfabric_updates", work.vfabric_updates / n, ops);
  run.add_layer("reca.flowmods_translated", work.flowmods_translated / n, ops);
  run.add_layer("obs.spans_per_op", work.spans_recorded / n, ops);
  run.add_layer("obs.trace_dropped", work.spans_dropped);
}

/// Probes after the timed phase (traced run only): abstraction recompute and
/// route computation, timed directly on every leaf. Each leaf's abstraction
/// is refreshed (and announced) first, so the timed recomputes change no
/// state.
void leaf_probes(Run& run, topo::Scenario& s, std::uint64_t seed) {
  Rng rng(seed + 17);
  std::vector<double> recompute_us, route_us;
  const auto prefixes = s.iplane->prefixes();
  for (reca::Controller* leaf : s.mgmt->leaves()) {
    leaf->refresh_abstraction();  // recompute a clean abstraction only
    for (int i = 0; i < 5; ++i) {
      auto span = run.log.scope("reca.abstraction_recompute");
      auto t0 = Clock::now();
      leaf->abstraction().recompute();
      recompute_us.push_back(us_between(t0, Clock::now()));
    }
    std::vector<BsGroupId> groups;
    for (BsGroupId g : s.trace.groups) {
      if (s.mgmt->leaf_of_group(g) == leaf) groups.push_back(g);
    }
    // Leaves without an egress point answer every prefix with kNotFound.
    const bool routable = leaf->nib().external_route_count() > 0;
    for (int i = 0; i < 50 && routable && !groups.empty(); ++i) {
      const dataplane::BsGroup* rec =
          s.net.bs_group(groups[rng.uniform_u64(0, groups.size() - 1)]);
      nos::RoutingRequest req;
      req.source = Endpoint{rec->access_switch, PortId{1}};
      req.dst_prefix = prefixes[rng.uniform_u64(0, prefixes.size() - 1)];
      auto span = run.log.scope("nos.compute_route");
      auto t0 = Clock::now();
      auto route = leaf->compute_route(req);
      route_us.push_back(us_between(t0, Clock::now()));
      (void)route;  // after reconfiguration some groups route only via the root: timed too
    }
  }
  run.add_layer("reca.abstraction_recompute_us", median(recompute_us), recompute_us.size());
  run.add_layer("nos.compute_route_us", median(route_us), route_us.size());
}

/// Share of best-effort bearers the leaves delegated, over every class count.
void add_delegated_share(Run& run) {
  double delegated = static_cast<double>(run.count("resident.delegated") +
                                         run.count("churn.served.delegated") +
                                         run.count("refresh.delegated"));
  double local = static_cast<double>(run.count("resident.local") +
                                     run.count("churn.served.local") +
                                     run.count("refresh.local"));
  run.add_layer("apps.delegated_share",
                delegated + local > 0 ? delegated / (delegated + local) : 0,
                static_cast<std::uint64_t>(delegated + local));
}

// --- workload: paper_build ---------------------------------------------------

constexpr int kSetupReps = 3;
constexpr std::size_t kPaperResidentBearers = 3000;
// An epoch is one full verify pass, one probe audit of the data plane and
// kPaperRefreshesPerEpoch bearer refreshes (the bearer metrics of this
// workload, taken in steady state rather than while the tables grow).
constexpr double kPaperEpochsPerSecond = 7;
constexpr std::size_t kPaperRefreshesPerEpoch = 100;

void paper_build(Run& run) {
  const topo::ScenarioParams params = scenario_params(true, 8);
  const auto epochs = static_cast<std::size_t>(
      std::max<double>(kSetupReps, std::round(run.opts.seconds * kPaperEpochsPerSecond)));
  Counters work;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SliceTimer setup(run.probe);
    std::unique_ptr<topo::Scenario> s;
    {
      auto span = run.log.scope("topo.build_scenario");
      s = topo::build_scenario(params);
    }
    run.probe.sample();
    Population pop = attach_population(run, *s, kPaperResidentBearers);
    std::vector<std::size_t> ues(kPaperResidentBearers);
    for (std::size_t i = 0; i < ues.size(); ++i) ues[i] = i;
    Rng rng(run.opts.seed * 7919 + static_cast<std::uint64_t>(rep));
    const Counters before = Counters::read(*s);
    park_bearers(run, *s, pop, ues, rng);
    work.add(before, Counters::read(*s));
    TraceMix mix(s->trace);
    // Warm-up: one verify pass and one slice of refreshes.
    setup_verify(run, *s);
    refresh_bearers(run, *s, pop, mix, rng, kPaperRefreshesPerEpoch, false);
    run.end_setup(setup);

    {
      auto phase = run.log.scope("phase.paper_build");
      for (std::size_t e = rep * epochs / kSetupReps; e < (rep + 1) * epochs / kSetupReps; ++e) {
        SliceTimer epoch(run.probe);
        const std::uint64_t attempted_before = run.attempted;
        ++run.attempted;
        verify::VerifyReport report = timed_verify(run, *s, true);
        if (!report.clean()) {
          run.fail("verify");
          run.findings.push_back("verify: " + report.summary());
        }
        ++run.attempted;
        if (!audit(run, *s)) run.fail("audit");
        refresh_bearers(run, *s, pop, mix, rng, kPaperRefreshesPerEpoch, true);
        run.end_epoch(run.attempted - attempted_before, epoch);
      }
    }
    if (rep + 1 == kSetupReps) {
      run.peak_rss_mb = peak_rss_mb();
      if (run.opts.trace) leaf_probes(run, *s, run.opts.seed);
    }
    final_check(run, *s);
  }
  run.counts["epochs"] = epochs;
  run.counts["phase.ops"] = run.phase_ops;
  if (run.opts.trace) {
    add_counter_layers(run, work, kSetupReps * kPaperResidentBearers);
    add_delegated_share(run);
    decomposed_build(run, params);
  }
}

// --- workload: bearer_churn --------------------------------------------------

constexpr std::size_t kChurnResidentUes = 100'000;
// Long-lived best-effort bearers of the first UEs of every group homed at a
// leaf with an egress point; the churn cycles use the other UEs.
constexpr std::size_t kChurnResidentBearersPerGroup = 10;
// An epoch is kChurnSlicesPerEpoch slices of kChurnCyclesPerSlice bearer
// cycles, then one full verify pass (only the resident bearers are
// installed between cycles).
constexpr std::size_t kChurnCyclesPerSlice = 200;
constexpr std::size_t kChurnSlicesPerEpoch = 2;
constexpr double kChurnEpochsPerSecond = 1.4;
// Share of bearer requests that ask for a guaranteed bit rate, which drives
// vFabric upkeep. The trace carries no QoS classes: this share is an
// assumption of the benchmark, not a measured figure. The rate range is the
// GBR churn of bench/ablation_vfabric.
constexpr double kChurnGbrShare = 0.15;
constexpr double kGbrMinKbps = 2000;
constexpr double kGbrMaxKbps = 20000;

struct ChurnState {
  std::unique_ptr<topo::Scenario> s;
  Population pop;
  std::unique_ptr<TraceMix> mix;
  std::vector<PrefixId> prefixes;
};

ChurnState churn_setup(Run& run, const topo::ScenarioParams& params, int rep) {
  ChurnState st;
  {
    auto span = run.log.scope("topo.build_scenario");
    st.s = topo::build_scenario(params);
  }
  run.probe.sample();
  st.pop = attach_population(run, *st.s, kChurnResidentUes);
  st.mix = std::make_unique<TraceMix>(st.s->trace);
  st.prefixes = st.s->iplane->prefixes();
  std::vector<std::size_t> resident;
  bool delegating_leaf = false;
  for (std::size_t g = 0; g < st.s->trace.groups.size(); ++g) {
    if (st.s->mgmt->leaf_of_group(st.s->trace.groups[g])->nib().external_route_count() == 0) {
      delegating_leaf = true;
      continue;
    }
    const auto& ues = st.pop.by_group[g];
    resident.insert(resident.end(), ues.begin(),
                    ues.begin() + static_cast<long>(std::min(kChurnResidentBearersPerGroup,
                                                             ues.size())));
  }
  if (resident.empty() || !delegating_leaf)
    throw std::runtime_error("scenario needs leaves with and without egress points");
  Rng rng(run.opts.seed * 7919 + static_cast<std::uint64_t>(rep));
  park_bearers(run, *st.s, st.pop, resident, rng);
  return st;
}

/// One bearer cycle: a bearer arrival at a group drawn by the trace's bearer
/// arrivals, for a UE there without a long-lived bearer; then either
/// teardown or an idle/active round followed by teardown. A best-effort
/// bearer is served at the leaf when the leaf has an egress point and
/// delegated to the root otherwise. Bearer operations go to `slices` when
/// it is given.
void churn_cycle(Run& run, ChurnState& st, Rng& rng, std::uint64_t op, BearerSlices* slices) {
  const std::size_t g = st.mix->bearer_group(rng);
  const BsGroupId group = st.s->trace.groups[g];
  const auto& ues = st.pop.by_group[g];
  const UeId ue = ue_id(ues[rng.uniform_u64(kChurnResidentBearersPerGroup, ues.size() - 1)]);
  auto& app = st.s->apps->leaf_mobility_of_group(group);

  apps::BearerRequest req;
  req.ue = ue;
  req.bs = app.ue(ue)->bs;
  req.dst_prefix = st.prefixes[rng.uniform_u64(0, st.prefixes.size() - 1)];
  const bool gbr = rng.bernoulli(kChurnGbrShare);
  if (gbr) req.qos.min_bandwidth_kbps = rng.uniform(kGbrMinKbps, kGbrMaxKbps);
  // The trace replay's idle share (radio bearers time out within seconds).
  const bool idle_cycle = rng.bernoulli(topo::TraceDriverParams{}.idle_probability);

  const std::uint64_t local_before = app.stats().bearers_local;
  ++run.attempted;
  bool local = false;
  const bool ok = [&] {
    auto span = run.log.scope("apps.request_bearer", op);
    auto t0 = Clock::now();
    bool done = app.request_bearer(req).ok();
    const double us = us_between(t0, Clock::now());
    local = app.stats().bearers_local > local_before;
    span.rename(gbr     ? "apps.request_bearer.gbr"
                : local ? "apps.request_bearer.local"
                        : "apps.request_bearer.delegated");
    if (slices != nullptr && done) slices->setup(us);
    if (slices != nullptr && !done) slices->op();
    return done;
  }();
  if (!ok) {
    run.fail("request_bearer");
    return;
  }
  ++run.counts[gbr ? "churn.gbr" : local ? "churn.served.local" : "churn.served.delegated"];

  auto call = [&](const char* name, auto&& fn) {
    ++run.attempted;
    auto span = run.log.scope(name, op);
    if (!fn().ok()) run.fail(name);
    if (slices != nullptr) slices->op();
  };
  if (idle_cycle) {
    ++run.counts["churn.idle_cycles"];
    call("apps.ue_idle", [&] { return app.ue_idle(ue); });
    call("apps.ue_active", [&] { return app.ue_active(ue); });
  }
  // ue_active replaces a delegated bearer's record: tear down what the UE
  // holds now.
  std::vector<BearerId> held;
  for (const auto& [id, rec] : app.ue(ue)->bearers) held.push_back(id);
  for (BearerId id : held)
    call("apps.deactivate_bearer", [&] { return app.deactivate_bearer(ue, id); });
}

void bearer_churn(Run& run) {
  // Fewer egress points than leaves: leaves without one must delegate
  // best-effort bearers to the root.
  const topo::ScenarioParams params = scenario_params(false, 2);
  const auto epochs = static_cast<std::size_t>(
      std::max<double>(kSetupReps, std::round(run.opts.seconds * kChurnEpochsPerSecond)));
  constexpr std::size_t kCyclesPerEpoch = kChurnSlicesPerEpoch * kChurnCyclesPerSlice;
  Counters work;
  std::uint64_t op = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SliceTimer setup(run.probe);
    ChurnState st = churn_setup(run, params, rep);
    // Warm-up slice: fills the routing port-graph caches and flat-map growth.
    Rng rng(run.opts.seed * 104729 + static_cast<std::uint64_t>(rep));
    for (std::size_t i = 0; i < kChurnCyclesPerSlice; ++i) churn_cycle(run, st, rng, 0, nullptr);
    setup_verify(run, *st.s);
    run.end_setup(setup);

    const Counters before = Counters::read(*st.s);
    const std::uint64_t bearer_ops_before = run.bearer.ops();
    {
      auto phase = run.log.scope("phase.bearer_churn");
      for (std::size_t e = rep * epochs / kSetupReps; e < (rep + 1) * epochs / kSetupReps; ++e) {
        SliceTimer epoch(run.probe);
        const std::uint64_t epoch_ops_before = run.bearer.ops();
        for (std::size_t slice = 0; slice < kChurnSlicesPerEpoch; ++slice) {
          run.bearer.begin();
          for (std::size_t i = 0; i < kChurnCyclesPerSlice; ++i)
            churn_cycle(run, st, rng, ++op, &run.bearer);
          run.bearer.end();
        }
        ++run.attempted;
        if (!timed_verify(run, *st.s, true).clean()) run.fail("verify");
        run.end_epoch(run.bearer.ops() - epoch_ops_before + 1, epoch);
      }
    }
    work.add(before, Counters::read(*st.s));
    run.counts["churn.bearer_ops"] += run.bearer.ops() - bearer_ops_before;
    if (rep + 1 == kSetupReps) {
      run.peak_rss_mb = peak_rss_mb();
      if (run.opts.trace) leaf_probes(run, *st.s, run.opts.seed);
    }
    final_check(run, *st.s);
  }
  run.counts["churn.cycles"] = epochs * kCyclesPerEpoch;
  if (run.opts.trace) {
    add_counter_layers(run, work, run.bearer.ops());
    add_delegated_share(run);
    decomposed_build(run, params);
  }
}

// --- workload: mobility_maintenance ------------------------------------------

constexpr std::size_t kMobilityResidentUes = 2000;
constexpr std::size_t kMobilityEgressPoints = 8;
// One epoch: handovers, one reconfiguration round, then discovery rounds on
// the engine, each about a third of the epoch's wall on a 4-core x86 host.
constexpr double kMobilityEpochsPerSecond = 1.75;
constexpr std::size_t kHandoversPerEpoch = 1000;
constexpr std::size_t kDiscoveryRoundsPerEpoch = 80;
// Bearers re-established per epoch (radio bearers time out within seconds,
// §7.1): the bearer metrics of this workload, sampled across the whole run.
constexpr std::size_t kRefreshesPerEpoch = 200;
// verify_full_ms is taken from full verify passes at the start of each
// repetition's timed phase, before the epochs. The epochs' own verify passes
// see a state that grows with the run by a seed-dependent amount (verify
// classes rise from 2000 to 3500-3700 over a 25 s run), so their cost
// differs across seeds by up to a third.
constexpr std::size_t kMobilityVerifyPasses = 5;
// §7.4 load bounds (±30%), at most one move per round: periodic rounds each
// refine the borders a little. Rounds with several moves oscillate groups
// between leaves and, after a few rounds, leave stale classifier rules the
// verifier reports as orphans and blackholes.
const apps::RegionOptConstraints kReconfigConstraints{0.7, 1.3, 1};

struct MobilityState {
  std::unique_ptr<topo::Scenario> s;
  Population pop;  ///< by_group follows the handovers
  std::unique_ptr<TraceMix> mix;
  std::map<GBsId, double> loads;  ///< region-optimization load
  std::map<SwitchId, std::uint64_t> fingerprints;  ///< rule tables as of the last verify
  std::unique_ptr<sim::ShardedSimulator> engine;
};

MobilityState mobility_setup(Run& run, const topo::ScenarioParams& params, int rep) {
  MobilityState st;
  {
    auto span = run.log.scope("topo.build_scenario");
    st.s = topo::build_scenario(params);
  }
  run.probe.sample();
  st.pop = attach_population(run, *st.s, kMobilityResidentUes);
  st.mix = std::make_unique<TraceMix>(st.s->trace);
  for (const auto& [group, load] : st.s->trace.group_load)
    st.loads[mgmt::gbs_id_for_group(group)] = load;
  std::vector<std::size_t> ues(kMobilityResidentUes);
  for (std::size_t i = 0; i < ues.size(); ++i) ues[i] = i;
  Rng rng(run.opts.seed * 7919 + static_cast<std::uint64_t>(rep));
  park_bearers(run, *st.s, st.pop, ues, rng);
  sim::ShardedSimulator::Options engine_opts;
  engine_opts.threads = run.opts.threads;
  engine_opts.lookahead = sim::Duration::millis(1.0);
  engine_opts.profile = run.opts.trace;
  st.engine =
      std::make_unique<sim::ShardedSimulator>(st.s->mgmt->natural_shard_count(), engine_opts);
  return st;
}

/// `count` handovers between group pairs drawn by the trace's handover
/// counts: a random resident UE of the source group moves to a random base
/// station of the target group. A pair whose source group holds no UE is
/// taken in the other direction.
void handovers(Run& run, MobilityState& st, Rng& rng, std::size_t count, bool sample,
               std::uint64_t& op) {
  const auto& groups = st.s->trace.groups;
  for (std::size_t i = 0; i < count; ++i) {
    auto [from_index, to_index] = st.mix->handover(rng);
    if (st.pop.by_group[from_index].empty()) std::swap(from_index, to_index);
    auto& leaving = st.pop.by_group[from_index];
    if (leaving.empty()) {
      ++run.counts["handovers.no_ue"];
      continue;
    }
    const std::size_t slot = rng.uniform_u64(0, leaving.size() - 1);
    const std::size_t ue = leaving[slot];
    const BsGroupId from = groups[from_index];
    const BsGroupId to = groups[to_index];
    const auto& members = st.s->net.bs_group(to)->members;
    const BsId target = members[rng.uniform_u64(0, members.size() - 1)];
    const bool inter = st.s->mgmt->leaf_of_group(from) != st.s->mgmt->leaf_of_group(to);
    auto& app = st.s->apps->leaf_mobility_of_group(from);
    ++run.attempted;
    ++run.counts[inter ? "handovers.root" : "handovers.leaf"];
    const bool ok = [&] {
      auto span = run.log.scope(inter ? "apps.handover.inter" : "apps.handover.intra", ++op);
      auto t0 = Clock::now();
      const bool done = app.handover(ue_id(ue), target).ok();
      if (done && sample) run.handover_us.push_back(us_between(t0, Clock::now()));
      return done;
    }();
    if (!ok) {
      run.fail("handover");
      continue;
    }
    st.pop.group_of[ue] = to;
    leaving[slot] = leaving.back();
    leaving.pop_back();
    st.pop.by_group[to_index].push_back(ue);
    if (inter) {
      // The root now holds the UE's bearers. An idle/active round at the new
      // leaf re-establishes them there: root-held bearers of groups whose
      // border status a later reconfiguration changes are left stale.
      auto& target_app = st.s->apps->leaf_mobility_of_group(to);
      ++run.attempted;
      {
        auto idle = run.log.scope("apps.ue_idle", op);
        if (!target_app.ue_idle(ue_id(ue)).ok()) run.fail("apps.ue_idle");
      }
      ++run.attempted;
      auto active = run.log.scope("apps.ue_active", op);
      if (!target_app.ue_active(ue_id(ue)).ok()) run.fail("apps.ue_active");
    }
  }
}

/// Per-switch fingerprint of the installed rules: the switches whose
/// fingerprint changed form the reverify dirty set.
std::map<SwitchId, std::uint64_t> rule_fingerprints(const dataplane::PhysicalNetwork& net) {
  std::map<SwitchId, std::uint64_t> out;
  for (SwitchId sw : net.all_switches()) {
    const dataplane::FlowTable& table = net.sw(sw)->table();
    std::uint64_t h = table.size();
    for (const dataplane::FlowRule& rule : table.rules())
      h += (rule.cookie ^ (static_cast<std::uint64_t>(rule.priority) << 48)) * 0x9E3779B97F4A7C15ull;
    out[sw] = h;
  }
  return out;
}

/// Releases every bearer of the UEs sitting in `groups`; returns the
/// requests so they can be set up again.
std::vector<apps::BearerRequest> release_bearers(Run& run, MobilityState& st,
                                                 const std::set<BsGroupId>& groups) {
  std::vector<apps::BearerRequest> released;
  for (std::size_t ue = 0; ue < st.pop.group_of.size(); ++ue) {
    if (!groups.contains(st.pop.group_of[ue])) continue;
    auto& app = st.s->apps->leaf_mobility_of_group(st.pop.group_of[ue]);
    std::vector<BearerId> held;
    for (const auto& [id, rec] : app.ue(ue_id(ue))->bearers) {
      held.push_back(id);
      if (rec.active) released.push_back(rec.request);
    }
    for (BearerId id : held) {
      ++run.attempted;
      auto span = run.log.scope("apps.deactivate_bearer");
      if (!app.deactivate_bearer(ue_id(ue), id).ok()) run.fail("apps.deactivate_bearer");
    }
  }
  return released;
}

/// One §5.3 region-optimization round at the root followed by an
/// incremental verify of every switch whose rules changed since the last
/// verify pass. The round is planned first; the UEs of the groups it moves
/// release their bearers before the moves and set them up again after, at
/// their new leaf (moving a group that carries active bearers leaves stale
/// classifier rules behind, which the verifier reports).
void reconfig_round(Run& run, MobilityState& st, bool sample) {
  apps::RegionOptApp* opt = st.s->apps->region_opt(st.s->mgmt->root());
  ++run.attempted;
  double round_ms = 0;
  std::set<BsGroupId> moving;
  {
    auto span = run.log.scope("apps.region_opt_plan");
    auto t0 = Clock::now();
    auto plan = opt->optimize_round(kReconfigConstraints, st.loads, /*execute=*/false);
    round_ms += ms_between(t0, Clock::now());
    if (!plan.ok()) {
      run.fail("region_opt");
      return;
    }
    for (const apps::Move& move : plan->moves) moving.insert(mgmt::group_for_gbs_id(move.gbs));
  }
  std::vector<apps::BearerRequest> released = release_bearers(run, st, moving);
  {
    auto span = run.log.scope("apps.region_opt_round");
    auto t0 = Clock::now();
    auto result = opt->optimize_round(kReconfigConstraints, st.loads, /*execute=*/true);
    round_ms += ms_between(t0, Clock::now());
    if (!result.ok()) {
      run.fail("region_opt");
      return;
    }
    run.counts["region_opt.moves"] += result->moves.size();
    if (sample) run.region_moves += result->moves.size();
  }
  for (const apps::BearerRequest& req : released) {
    auto& app = st.s->apps->leaf_mobility_of_group(st.pop.group_of[req.ue.value - 1]);
    ++run.attempted;
    auto span = run.log.scope("apps.request_bearer.rehome");
    if (!app.request_bearer(req).ok()) run.fail("request_bearer");
  }
  run.counts["region_opt.bearers_rehomed"] += released.size();

  std::vector<SwitchId> dirty;
  {
    auto span = run.log.scope("bench.rule_fingerprints");
    auto now = rule_fingerprints(st.s->net);
    for (const auto& [sw, h] : now) {
      auto it = st.fingerprints.find(sw);
      if (it == st.fingerprints.end() || it->second != h) dirty.push_back(sw);
    }
    st.fingerprints = std::move(now);
  }
  verify::VerifyReport report;
  {
    auto span = run.log.scope("verify.reverify");
    auto t0 = Clock::now();
    report = st.s->mgmt->reverify_data_plane(dirty);
    round_ms += ms_between(t0, Clock::now());
  }
  if (!report.clean()) {
    run.fail("reverify");
    run.findings.push_back("reverify after region optimization: " + report.summary());
  }
  if (sample) run.reconfig_round_ms.push_back(round_ms);
}

/// Link-discovery rounds on the sharded engine: each leaf's round on its own
/// shard, then the root's (bottom-up, §4.1).
void discovery_phase(Run& run, MobilityState& st, bool sample) {
  sim::ShardedSimulator& engine = *st.engine;
  {
    auto span = run.log.scope("sim.bind");
    st.s->mgmt->bind_shards(engine, sim::Duration::millis(1.0));
  }
  const double wall_before = engine.wall_ms();
  for (std::size_t r = 0; r < kDiscoveryRoundsPerEpoch; ++r) {
    ++run.attempted;
    auto span = run.log.scope("sim.run");
    for (reca::Controller* leaf : st.s->mgmt->leaves())
      engine.schedule(leaf->shard(), sim::Duration{}, [leaf] { leaf->run_link_discovery(); });
    engine.run();
    reca::Controller* root = &st.s->mgmt->root();
    engine.schedule(root->shard(), sim::Duration{}, [root] { root->run_link_discovery(); });
    engine.run();
  }
  if (sample) {
    run.discovery_run_ms += engine.wall_ms() - wall_before;
    run.discovery_rounds += kDiscoveryRoundsPerEpoch;
  }
  auto span = run.log.scope("sim.unbind");
  st.s->mgmt->unbind_shards();
}

void mobility_maintenance(Run& run) {
  const topo::ScenarioParams params = scenario_params(false, kMobilityEgressPoints);
  const auto epochs = static_cast<std::size_t>(
      std::max<double>(kSetupReps, std::round(run.opts.seconds * kMobilityEpochsPerSecond)));
  Counters work;
  std::uint64_t events = 0, windows = 0, fresh = 0, frames = 0;
  double busy_ms = 0, stall_ms = 0;
  std::uint64_t op = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SliceTimer setup(run.probe);
    MobilityState st = mobility_setup(run, params, rep);
    // A full verify pass (which also primes the incremental verifier), then a
    // warm-up epoch: a slice of handovers, one reconfiguration round and one
    // engine phase (worker pool and event pool).
    Rng rng(run.opts.seed * 15485863 + static_cast<std::uint64_t>(rep));
    setup_verify(run, *st.s);
    st.fingerprints = rule_fingerprints(st.s->net);
    handovers(run, st, rng, kHandoversPerEpoch / 5, false, op);
    refresh_bearers(run, *st.s, st.pop, *st.mix, rng, kRefreshesPerEpoch, false);
    reconfig_round(run, st, false);
    discovery_phase(run, st, false);
    run.end_setup(setup);

    sim::ShardedSimulator& engine = *st.engine;
    auto frames_sent = [&] {
      std::uint64_t n = 0;
      for (reca::Controller* c : st.s->mgmt->all_controllers())
        n += c->discovery().stats().frames_sent;
      return n;
    };
    const Counters before = Counters::read(*st.s);
    const std::uint64_t events_before = engine.events_executed();
    const std::uint64_t windows_before = engine.windows_executed();
    const std::uint64_t fresh_before = engine.alloc_fresh_total();
    const std::uint64_t frames_before = frames_sent();
    const double busy_before = registry_sum("profile_wall_busy_ms");
    const double stall_before = registry_sum("profile_wall_stall_ms");
    {
      auto phase = run.log.scope("phase.mobility_maintenance");
      for (std::size_t i = 0; i < kMobilityVerifyPasses; ++i) {
        ++run.attempted;
        if (!timed_verify(run, *st.s, true).clean()) run.fail("verify");
      }
      for (std::size_t e = rep * epochs / kSetupReps; e < (rep + 1) * epochs / kSetupReps; ++e) {
        SliceTimer epoch(run.probe);
        const std::uint64_t attempted_before = run.attempted;
        handovers(run, st, rng, kHandoversPerEpoch, true, op);
        refresh_bearers(run, *st.s, st.pop, *st.mix, rng, kRefreshesPerEpoch, true);
        reconfig_round(run, st, true);
        discovery_phase(run, st, true);
        // A full verify pass, which also restarts the reverify dirty set.
        ++run.attempted;
        if (!timed_verify(run, *st.s, false).clean()) run.fail("verify");
        st.fingerprints = rule_fingerprints(st.s->net);
        run.end_epoch(run.attempted - attempted_before, epoch);
      }
    }
    work.add(before, Counters::read(*st.s));
    events += engine.events_executed() - events_before;
    windows += engine.windows_executed() - windows_before;
    fresh += engine.alloc_fresh_total() - fresh_before;
    frames += frames_sent() - frames_before;
    busy_ms += registry_sum("profile_wall_busy_ms") - busy_before;
    stall_ms += registry_sum("profile_wall_stall_ms") - stall_before;
    if (rep + 1 == kSetupReps) {
      run.peak_rss_mb = peak_rss_mb();
      if (run.opts.trace) leaf_probes(run, *st.s, run.opts.seed);
    }
    st.engine.reset();
    final_check(run, *st.s);
  }
  run.counts["phase.ops"] = run.phase_ops;
  run.counts["engine.events"] = events;
  run.counts["engine.windows"] = windows;
  run.counts["epochs"] = epochs;

  if (run.opts.trace) {
    add_counter_layers(run, work, run.handover_us.size());
    add_delegated_share(run);
    const double handovers_total =
        static_cast<double>(run.count("handovers.root") + run.count("handovers.leaf"));
    run.add_layer("apps.handovers_root_share",
                  handovers_total > 0
                      ? static_cast<double>(run.count("handovers.root")) / handovers_total
                      : 0,
                  static_cast<std::uint64_t>(handovers_total));
    run.add_layer("apps.region_opt_moves", static_cast<double>(run.region_moves),
                  run.reconfig_round_ms.size());
    run.add_layer("sim.run_ms", run.discovery_run_ms, run.discovery_rounds);
    run.add_layer("sim.events", static_cast<double>(events));
    run.add_layer("sim.windows", static_cast<double>(windows));
    run.add_layer("sim.events_per_window",
                  windows ? static_cast<double>(events) / static_cast<double>(windows) : 0);
    run.add_layer("sim.busy_ms", busy_ms);
    run.add_layer("sim.stall_ms", stall_ms);
    run.add_layer("sim.alloc_fresh", static_cast<double>(fresh));
    run.add_layer("nos.discovery_frames",
                  static_cast<double>(frames) /
                      static_cast<double>(std::max<std::uint64_t>(run.discovery_rounds, 1)),
                  run.discovery_rounds);
    decomposed_build(run, params);
  }
}

// --- per-layer report from spans ---------------------------------------------

/// Cost of recording one span, calibrated on a scratch log.
double span_cost_ns() {
  SpanLog scratch(true);
  constexpr int kSpans = 100'000;
  auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    auto span = scratch.scope("calibrate", static_cast<std::uint64_t>(i));
  }
  return ms_between(t0, Clock::now()) * 1e6 / kSpans;
}

void add_span_layers(Run& run, std::string_view phase_name) {
  const auto st = span_stats(run.log);
  auto mean_of = [&](std::string_view span, const char* metric, double scale) {
    auto it = st.find(span);
    if (it == st.end()) return;
    run.add_layer(metric, it->second.total_ms * scale / static_cast<double>(it->second.calls),
                  it->second.calls);
  };
  mean_of("topo.generate_wan", "topo.generate_wan_ms", 1);
  mean_of("topo.generate_lte_trace", "topo.generate_lte_trace_ms", 1);
  mean_of("topo.infer_bs_groups", "topo.infer_bs_groups_ms", 1);
  mean_of("topo.iplane_model", "topo.iplane_model_ms", 1);
  mean_of("topo.partition_regions", "topo.partition_regions_ms", 1);
  mean_of("mgmt.bootstrap", "mgmt.bootstrap_ms", 1);
  mean_of("apps.suite", "apps.suite_ms", 1);
  mean_of("apps.originate_interdomain", "apps.originate_interdomain_ms", 1);
  if (auto it = st.find("apps.ue_attach_batch"); it != st.end() && run.attaches > 0)
    run.add_layer("apps.ue_attach_us",
                  it->second.total_ms * 1e3 / static_cast<double>(run.attaches), run.attaches);
  mean_of("verify.full", "verify.full_ms", 1);
  mean_of("apps.request_bearer.local", "apps.request_bearer_local_us", 1e3);
  mean_of("apps.request_bearer.delegated", "apps.request_bearer_delegated_us", 1e3);
  mean_of("apps.request_bearer.gbr", "apps.request_bearer_gbr_us", 1e3);
  mean_of("apps.deactivate_bearer", "apps.deactivate_bearer_us", 1e3);
  mean_of("apps.ue_idle", "apps.ue_idle_us", 1e3);
  mean_of("apps.ue_active", "apps.ue_active_us", 1e3);
  mean_of("apps.handover.intra", "apps.handover_intra_us", 1e3);
  mean_of("apps.handover.inter", "apps.handover_inter_us", 1e3);
  mean_of("apps.region_opt_plan", "apps.region_opt_plan_ms", 1);
  mean_of("apps.region_opt_round", "apps.region_opt_round_ms", 1);
  mean_of("verify.reverify", "verify.reverify_ms", 1);

  // Attribution completeness: timed-phase wall not covered by a timed call
  // (summed over the phase spans of every set-up repetition).
  const auto& spans = run.log.spans();
  double phase_ms = 0, covered_ms = 0;
  std::uint64_t phase_spans = 0;
  std::map<std::string, double, std::less<>> by_child;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (run.log.name(spans[i]) != phase_name) continue;
    phase_ms += SpanLog::duration_ms(spans[i]);
    for (std::size_t j = i + 1; j < spans.size() && spans[j].begin_ns <= spans[i].end_ns; ++j) {
      ++phase_spans;
      if (spans[j].parent != i) continue;
      covered_ms += SpanLog::duration_ms(spans[j]);
      by_child[std::string(run.log.name(spans[j]))] += SpanLog::duration_ms(spans[j]);
    }
  }
  const double unattributed = phase_ms - covered_ms;
  run.add_layer("bench.unattributed_ms", unattributed);
  run.add_layer("bench.trace_overhead_pct",
                phase_ms > 0 ? 100.0 * static_cast<double>(phase_spans) * span_cost_ns() / 1e6 /
                                   phase_ms
                             : 0,
                phase_spans);

  std::printf("timed phase %.3f ms, by call:\n", phase_ms);
  for (const auto& [name, ms] : by_child) std::printf("  %-32s %12.3f ms\n", name.c_str(), ms);
  std::printf("  %-32s %12.3f ms%s\n", "(unattributed: driver loop)", unattributed,
              phase_ms > 0 && unattributed > phase_ms / 10 ? "  > 10% of the phase" : "");
  std::map<std::string, double> layer_self;
  for (const auto& [name, s] : st) {
    // A phase span's self time is the driver loop (unattributed above).
    if (name.rfind("phase.", 0) != 0) layer_self[name.substr(0, name.find('.'))] += s.self_ms;
  }
  std::printf("self time by layer, whole run:\n");
  for (const auto& [layer, ms] : layer_self) std::printf("  %-10s %12.3f ms\n", layer.c_str(), ms);
}

// --- main --------------------------------------------------------------------

void print_metric(const Metric& m) {
  std::printf("metric %s = %.6g %s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// The end-to-end metrics; with `normalize` false, the raw wall-time figures.
std::vector<Metric> end_to_end_metrics(const Run& run, bool normalize = true) {
  const Slice verify = pooled(run.verify_passes, normalize);
  const Slice bearer = pooled(run.bearer.slices(), normalize);
  const Slice epochs = pooled(run.epochs, normalize);
  std::vector<double> setup_s;
  for (const Slice& setup : run.setups) setup_s.push_back(pooled({setup}, normalize).seconds);
  return {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", run.peak_rss_mb, "MB", 1},
      {"verify_full_ms", 1e3 / verify.ops_per_s(), "ms", verify.ops},
      {"bearer_ops_per_s", bearer.ops_per_s(), "1/s", bearer.ops},
      {"bearer_setup_p50_us", median(bearer.setup_us), "us", bearer.setup_us.size()},
      {"bearer_setup_p99_us", percentile(bearer.setup_us, 0.99), "us", bearer.setup_us.size()},
      {"phase_ops_per_s", epochs.ops_per_s(), "1/s", epochs.ops},
  };
}

/// Workload-specific figures: printed, not part of the result line.
std::vector<Metric> workload_metrics(const Run& run) {
  std::vector<Metric> out;
  out.push_back({"ops_failed_frac",
                 run.attempted ? static_cast<double>(run.failed) /
                                     static_cast<double>(run.attempted)
                               : 0,
                 "ratio", run.attempted});
  if (!run.handover_us.empty()) {
    double busy_s = 0;
    for (double us : run.handover_us) busy_s += us / 1e6;
    out.push_back({"handover_ops_per_s", static_cast<double>(run.handover_us.size()) / busy_s,
                   "1/s", run.handover_us.size()});
    out.push_back({"handover_p50_us", median(run.handover_us), "us", run.handover_us.size()});
    if (run.handover_us.size() >= 1000)
      out.push_back({"handover_p99_us", percentile(run.handover_us, 0.99), "us",
                     run.handover_us.size()});
  }
  if (!run.reconfig_round_ms.empty())
    out.push_back({"reconfig_round_ms", median(run.reconfig_round_ms), "ms",
                   run.reconfig_round_ms.size()});
  if (run.discovery_rounds > 0)
    out.push_back({"discovery_round_ms",
                   run.discovery_run_ms / static_cast<double>(run.discovery_rounds), "ms",
                   run.discovery_rounds});
  return out;
}

int run_main(const Options& opts) {
  set_log_level(LogLevel::kError);
  Run run(opts);
  if (opts.workload == "paper_build") paper_build(run);
  else if (opts.workload == "bearer_churn") bearer_churn(run);
  else if (opts.workload == "mobility_maintenance") mobility_maintenance(run);
  else throw std::invalid_argument("unknown workload " + opts.workload);

  std::vector<Metric> out;
  if (!opts.trace) {
    out = end_to_end_metrics(run);
    for (const Metric& m : out) print_metric(m);
    for (const Metric& m : workload_metrics(run)) print_metric(m);
    for (const Metric& m : end_to_end_metrics(run, /*normalize=*/false)) {
      if (m.unit == "MB") continue;  // never normalized
      std::printf("raw %s = %.6g %s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  } else {
    // The end-to-end figures of the traced run, against an untraced run at
    // the same seed, give the tracing overhead.
    for (const Metric& m : end_to_end_metrics(run))
      std::printf("traced %s = %.6g %s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    add_span_layers(run, "phase." + opts.workload);
    if (!opts.spans_out.empty() && !run.log.write(opts.spans_out))
      throw std::runtime_error("cannot write spans to " + opts.spans_out);
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = run.layer.find(name);
      Metric m = it != run.layer.end() ? it->second : Metric{name, 0, "", 0};
      m.unit = unit;
      out.push_back(m);
      print_metric(m);
    }
  }

  const auto& probe_us = run.probe.log_us();
  std::printf("host reference timing: p10 %.1f us, p50 %.1f us, p90 %.1f us (n=%zu)\n",
              percentile(probe_us, 0.1), median(probe_us), percentile(probe_us, 0.9),
              probe_us.size());
  for (const std::string& f : run.findings) std::printf("finding: %s\n", f.c_str());
  std::string counts;
  for (const auto& [k, v] : run.counts)
    counts += (counts.empty() ? "" : ", ") + ("\"" + k + "\": " + std::to_string(v));
  std::printf("COUNTS {%s}\n", counts.c_str());

  std::string json = "{\"correct\": ";
  json += run.findings.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            json_number(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace softmow::perf

int main(int argc, char** argv) {
  try {
    return softmow::perf::run_main(softmow::perf::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "softmow_perf: %s\n", e.what());
    return 2;
  }
}
