// Structured per-run benchmark reports: `--bench-json <path>` writes one
// BENCH_<name>.json document per bench run, carrying enough identity (git
// sha, build type, the knobs that shape the workload) and enough measurement
// (headline series, wall phases, per-shard profile summary, sim-time series,
// the full metrics snapshot) for `tools/bench_compare` to diff two runs and
// gate CI on headline regressions.
//
// Schema "softmow.bench.v1":
//   {
//     "schema": "softmow.bench.v1",
//     "bench": "<name>",
//     "meta": {"git_sha": "...", "build_type": "..."},
//     "options": {"shards": n, "scale": f, "seed": n},
//     "wall_ms": {"total": f, "sim": f, "setup": f},
//     "headline": [{"name", "value", "unit", "higher_is_better",
//                   "tolerance", "gate"}, ...],
//     "profile": {"shards": [{"shard", "events", "mail_sent", "mail_recv",
//                             "windows", "bounded_windows", "busy_ms",
//                             "stall_ms", "idle_ms", "critical_windows"}]},
//     "timeseries": [...],   // obs::TimeSeriesRecorder snapshot (v3 shape)
//     "metrics": [...]       // full obs registry snapshot (v3 shape)
//   }
//
// Headlines are the gated series: each carries its own relative regression
// tolerance. Deterministic counts gate tightly (default 10%); wall-clock
// headlines use a coarse cross-machine tolerance (kWallTolerance) so the CI
// gate catches step-function regressions without flaking on runner noise.
#pragma once

#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/json.h"
#include "sim/time.h"

namespace softmow::bench {

/// Relative regression tolerance for wall-clock-derived headlines: CI
/// runners vary, so only order-of-magnitude regressions should gate.
inline constexpr double kWallTolerance = 0.80;
/// Default tolerance for deterministic (count-derived) headlines.
inline constexpr double kCountTolerance = 0.10;

/// One gated (or informational) headline series of a bench run.
struct Headline {
  std::string name;
  double value = 0;
  std::string unit;               ///< "ms", "x", "events", ... (display only)
  bool higher_is_better = false;  ///< regression direction
  double tolerance = kCountTolerance;  ///< relative change that fails the gate
  bool gate = true;               ///< false: recorded but never gated
};

/// Registers (or replaces, by name) a headline for the current run.
void add_headline(Headline headline);
[[nodiscard]] const std::vector<Headline>& headlines();
void clear_headlines();

/// Tells the report how much simulated time the bench replayed, enabling the
/// `speedup_over_realtime` headline (sim span / wall total, higher-better,
/// wall tolerance). live_replay sets this to its trace window.
void set_replayed_sim_duration(sim::Duration span);

/// Builds the report document from the current process state: registered
/// headlines, wall gauges, the default registry/recorder, and the
/// `profile_*` series (grouped per shard) when profiling ran.
[[nodiscard]] obs::JsonValue bench_report_json(const std::string& bench_name,
                                               const BenchOptions& opts);

/// Serializes bench_report_json() to `path`. Returns false on write failure.
bool write_bench_report(const std::string& bench_name, const std::string& path,
                        const BenchOptions& opts);

}  // namespace softmow::bench
