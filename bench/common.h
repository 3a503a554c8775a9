// Shared setup for the benchmark harness: the paper-scale scenario (§7.1 —
// 321 switches, >1000 base stations, 8 candidate egress points, 4 balanced
// leaf regions, 48 h of per-minute traces) and small reusable helpers.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "softmow/softmow.h"

namespace softmow::bench {

/// Command-line options shared by every figure/ablation binary.
struct BenchOptions {
  std::string metrics_json;  ///< --metrics-json <path>: dump registry+trace
  std::string metrics_csv;   ///< --metrics-csv <path>: dump registry as CSV
  std::string trace_chrome;  ///< --trace-chrome <path>: Perfetto-loadable trace
  std::string bench_json;    ///< --bench-json <path>: structured BENCH_<name>.json report
  bool profile = false;      ///< --profile: per-shard engine profiling (implied by --bench-json)
  bool latency_budget = false;  ///< --latency-budget: print critical-path table
  bool verify = false;          ///< --verify: static-verify each scenario built
  std::size_t trace_capacity = 0;  ///< --trace-capacity <n>: ring size (0 = default)
  double scale = 1.0;           ///< --scale <f>: shrink paper-scale params (CI smoke)
  std::uint64_t seed = 1;       ///< --seed <n>: master seed for scenario synthesis
  std::string faults;           ///< --faults <name>: fault plan (fault benches)
  std::uint64_t fault_seed = 1; ///< --fault-seed <n>: fault-plan target selection
  std::string encap = "tags";   ///< --encap tags|labels: slicing encapsulation scheme
  std::size_t slices = 4;       ///< --slices <n>: tenant count for slicing benches
  bool shard_check = false;     ///< --shard-check: race/determinism audit over run()
  bool help = false;            ///< --help: print usage and exit 0
  bool parse_ok = true;         ///< false: unknown flag / bad value; exit non-zero
};

/// One declaratively registered flag. The single registry drives parsing
/// *and* the generated --help for all bench binaries — adding a flag is one
/// table entry, not thirteen copies of an if-chain.
struct OptionSpec {
  const char* name;         ///< e.g. "--scale"
  const char* placeholder;  ///< value placeholder ("<f>"); nullptr = boolean flag
  const char* help;         ///< description; '\n' starts an indented continuation
  /// Stores (and validates) the value; booleans receive "". False = bad value.
  bool (*apply)(BenchOptions& opts, const std::string& value);
};

/// The shared flag registry, in --help display order.
const std::vector<OptionSpec>& bench_option_registry();

/// Prints the shared option set to `out` (generated from the registry).
void print_bench_usage(std::FILE* out, const char* argv0);

/// Parses the shared options against the registry. Unknown flags and
/// malformed values set `parse_ok = false` (bench_main exits 2); `--help`
/// sets `help` (bench_main prints usage and exits 0).
BenchOptions parse_bench_args(int argc, char** argv);

/// The options of the running bench (set by bench_main before run()), so
/// helpers deep inside a bench body can consult the flags.
const BenchOptions& current_bench_options();

/// When `--verify` is set: runs the static data-plane verifier over the
/// scenario's installed state (label-mode-aware options, live-path and
/// bearer cross-checks, and tenant isolation once a slice manager installed
/// its annotator) and prints the report summary. Findings land in the
/// default metrics registry either way. Returns true when clean or skipped.
bool maybe_verify(topo::Scenario& scenario, const char* tag = "");

/// "12.3": a modeled duration in ms, one decimal.
std::string fmt_ms(double ms);
/// "1.23x": a speedup ratio, two decimals.
std::string fmt_x(double x);

/// Registers a few live bearers per region (up to three groups each, prefix
/// 17, UE ids counting up from `first_ue`) as liveness probes of `coord`:
/// their uplink flows are re-injected around faults and migrations to count
/// disrupted bearers and blackholed packets, and again afterwards to prove
/// the data plane still serves traffic.
void attach_probes(topo::Scenario& scenario, faults::RecoveryCoordinator& coord,
                   std::uint64_t first_ue);

/// Writes the default registry (and tracer, for JSON) to the requested
/// paths, plus the Chrome trace for `--trace-chrome`. No-op for unset
/// paths. Returns false if any write failed.
bool export_metrics(const BenchOptions& opts);

/// parse + run + export: the standard bench main body. Also applies
/// `--trace-capacity`, prints the `--latency-budget` table after run(),
/// honours `--help` / unknown-flag exits, writes the `--bench-json` report,
/// warns on stderr when the trace ring dropped spans/events, and exports the
/// wall-clock phase gauges (see below). Determinism diffs strip
/// bench_wall_ms.
///
/// Wall-phase taxonomy (`bench_wall_ms{phase=...}`):
///   * total — the whole run() body, wall start to wall end;
///   * sim   — time inside sim::ShardedSimulator::run() across every engine
///             the bench built;
///   * setup — scenario synthesis (build_scenario_timed) plus engine
///             construction/binding (ShardedRun's constructor).
/// Phases overlap nothing; total − sim − setup is the bench's own
/// synchronous work (replay loops, pump-driven phases, report printing).
int bench_main(int argc, char** argv, void (*run)());

/// topo::build_scenario with the build wall-clock charged to
/// bench_wall_ms{phase=setup}. Benches use this instead of calling
/// build_scenario directly so setup cost is attributable.
std::unique_ptr<topo::Scenario> build_scenario_timed(topo::ScenarioParams params);

/// Adds to the setup-phase wall accumulator (exported by bench_main as
/// bench_wall_ms{phase=setup}); for setup work outside build_scenario_timed.
void add_setup_wall_ms(double ms);

/// RAII harness for engine-driven bench phases: builds a
/// sim::ShardedSimulator sized from the scenario's hierarchy, binds the
/// scenario's controllers/hub onto it, and unbinds on destruction so later
/// synchronous phases are unaffected. `parent_link_delay` is the one-way
/// parent<->child control-channel latency and must be >= the engine's 1 ms
/// lookahead.
class ShardedRun {
 public:
  explicit ShardedRun(topo::Scenario& scenario,
                      sim::Duration parent_link_delay = sim::Duration::millis(1.0));
  ~ShardedRun();
  ShardedRun(const ShardedRun&) = delete;
  ShardedRun& operator=(const ShardedRun&) = delete;

  [[nodiscard]] sim::ShardedSimulator& engine() { return *engine_; }

 private:
  topo::Scenario* scenario_;
  std::unique_ptr<sim::ShardedSimulator> engine_;
};

/// Paper-scale parameters (§7.1). Deterministic under `seed`; pass 0 (the
/// default) to use the bench's global `--seed` flag. Honours the running
/// bench's `--scale` factor (CI smoke runs shrink the scenario while keeping
/// its shape).
inline topo::ScenarioParams paper_scale_params(std::uint64_t seed = 0,
                                               std::size_t regions = 4,
                                               bool originate = true) {
  if (seed == 0) seed = current_bench_options().seed;
  double f = current_bench_options().scale;
  auto scaled = [f](std::size_t n, std::size_t floor_at) {
    auto s = static_cast<std::size_t>(static_cast<double>(n) * f);
    return s < floor_at ? floor_at : s;
  };
  topo::ScenarioParams p;
  p.wan.switches = scaled(321, 40);          // §7.1
  p.trace.base_stations = scaled(1000, 100);  // §7.1 "more than 1000 base stations"
  p.trace.duration_minutes = 48 * 60;  // Fig. 12 window
  p.iplane.prefixes = scaled(11590, 500);     // §7.2 destinations
  p.regions = regions;
  p.egress_points = 8;           // Fig. 8 sweep max
  p.originate_interdomain = originate;
  p.seed = seed;
  p.wan.seed = seed * 13 + 7;
  p.trace.seed = seed * 29 + 11;
  p.iplane.seed = seed * 41 + 23;
  return p;
}

inline void print_header(const std::string& title, const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

/// Best internal (hops, latency) from every BS group to every egress port,
/// computed the way the hierarchy computes it: leaf-level reachability from
/// the group's radio port to the leaf's exposed ports, continued through the
/// root's logical port graph. Entry [group][egress-index] may be missing
/// (unreachable), flagged with hops < 0.
struct InternalCostTable {
  std::vector<BsGroupId> groups;
  std::vector<EgressId> egresses;
  /// [group index][egress index] -> metrics of the best internal path.
  std::vector<std::vector<EdgeMetrics>> cost;
  static constexpr double kUnreachable = -1;
};

InternalCostTable compute_internal_costs(topo::Scenario& scenario);

/// The cost an egress evaluation minimizes: end-to-end hops (Fig. 8) or
/// latency (Fig. 9, sampled as RTT in ms: twice the one-way µs over 1000).
enum class EgressMetric { kHops, kLatency };

/// End-to-end samples of the §7.2 comparison, one per reachable
/// (snapshot, group, prefix), in that insertion order.
struct EgressEvaluation {
  /// The rigid-LTE PGW: the median egress by mean internal cost over the
  /// groups that reach it — a typical placement, neither best nor worst
  /// (§1: distant Internet egress causes path inflation).
  std::size_t pgw_index = 0;
  SampleSet egress2, egress4, egress8;  ///< SoftMoW, best of the first 2/4/8 egresses
  SampleSet lte;                        ///< every flow exits at the PGW
};

/// The Fig. 8/9 evaluator. For each of iPlane snapshots 0..`snapshots`-1 it
/// tabulates the external cost of every (egress, prefix) once, then makes
/// one running-min pass per (group, prefix) over the egresses in order.
/// Leaves the iPlane model on the snapshot it found.
EgressEvaluation evaluate_egress(topo::Scenario& scenario, const InternalCostTable& internal,
                                 EgressMetric metric, int snapshots);

}  // namespace softmow::bench
