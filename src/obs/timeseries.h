// Sim-time metric time-series: periodic snapshots of selected registry
// series into bounded ring buffers, so diurnal-load curves become plottable
// (sim_time, value) points instead of end-of-run totals.
//
// A recorder tracks counters, gauges, or histogram quantiles by (name,
// labels); `sample(now)` records one point per tracked series at the
// interval boundary at-or-below `now` (at most once per boundary, so
// callers may sample opportunistically — per replay minute, per engine
// window barrier — without duplicating points). Timestamps are *simulated*
// time, and the sampled values are counters/bucket-counts read at
// deterministic sim instants, so the recorded series are byte-identical run
// to run when driven from a window barrier or the replay loop.
//
// Storage per series is a fixed ring of `capacity` points: when full the
// oldest point is dropped and counted (dropped()), bounding memory for
// multi-day replays the same way the Tracer bounds spans.
//
// A recorder is sampled from the replay loop or from the engine at window
// barriers, never from inside a shard event.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace softmow::obs {

class TimeSeriesRecorder {
 public:
  struct Options {
    /// Sampling grid: points land on multiples of `interval` (sim time).
    sim::Duration interval = sim::Duration::minutes(1.0);
    /// Ring capacity per tracked series; oldest points drop when exceeded.
    std::size_t capacity = 4096;
  };

  /// One recorded point of one series.
  struct Point {
    std::int64_t at_ns = 0;  ///< sim time since start
    double value = 0;
  };

  /// Snapshot view of one tracked series (points oldest -> newest).
  struct SeriesView {
    std::string name;
    Labels labels;
    std::string field;  ///< "value" for counters/gauges, "p50"/"p95"/... for quantiles
    std::vector<Point> points;
    std::uint64_t dropped = 0;  ///< points evicted from the ring
  };

  /// `registry` defaults to the process-wide default_registry().
  // (Two overloads rather than `Options opts = {}`: a default argument here
  // could not use Options' member initializers, whose parsing GCC defers to
  // the end of the *outermost* class, PR c++/88165.)
  TimeSeriesRecorder();
  explicit TimeSeriesRecorder(Options opts, MetricsRegistry* registry = nullptr);

  /// Tracks a series. The series need not exist yet: resolution against the
  /// registry is lazy (a counter registered mid-run starts contributing
  /// points from the first sample after it appears; earlier samples record
  /// 0). Re-tracking an already-tracked (name, labels, field) is a no-op.
  void track_counter(const std::string& name, Labels labels = {});
  void track_gauge(const std::string& name, Labels labels = {});
  /// Tracks the estimated q-quantile (q in (0,1)) of a histogram, derived
  /// from its integer bucket counts, never the float sum.
  void track_quantile(const std::string& name, double q, Labels labels = {});

  /// Records one point per tracked series at the interval boundary <= now,
  /// unless that boundary was already sampled. Returns true when points were
  /// recorded. When `now` jumps several intervals, only the latest boundary
  /// is recorded (the grid stays sparse rather than back-filled).
  bool sample(sim::TimePoint now);

  /// Records a point per series at exactly `now`, regardless of the grid.
  void force_sample(sim::TimePoint now);

  [[nodiscard]] std::size_t tracked_count() const { return series_.size(); }
  [[nodiscard]] sim::Duration interval() const { return opts_.interval; }
  [[nodiscard]] std::size_t capacity() const { return opts_.capacity; }
  /// Total points evicted across every ring.
  [[nodiscard]] std::uint64_t dropped_total() const;

  /// Every tracked series with its points in oldest -> newest order, sorted
  /// by (name, labels, field) — stable input for the exporters.
  [[nodiscard]] std::vector<SeriesView> snapshot() const;

  /// Drops recorded points (and the boundary cursor) but keeps the tracked
  /// series, so one recorder can scope series to one phase of a bench.
  void clear_points();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kQuantile };
  struct Tracked {
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    double quantile = 0;
    std::string field;
    // Lazily resolved handle (at most one non-null, matching `kind`).
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    // Fixed-capacity ring: `start` indexes the oldest point, `size` the
    // population; wraparound evicts oldest first.
    std::vector<Point> ring;
    std::size_t start = 0;
    std::size_t size = 0;
    std::uint64_t dropped = 0;
  };

  void track(Tracked tracked);
  void record_all(std::int64_t at_ns);
  double read(Tracked& t);

  Options opts_;
  MetricsRegistry* registry_;
  std::vector<Tracked> series_;
  std::int64_t last_boundary_ns_ = -1;
};

/// Process-wide recorder the bench harness exports alongside the default
/// registry (`--metrics-json` / `--bench-json`). Benches configure its
/// tracked series and hand it to the replay driver or the engine.
TimeSeriesRecorder& default_timeseries();

/// Formats q in (0,1) as a stable field tag: 0.5 -> "p50", 0.99 -> "p99",
/// 0.999 -> "p99.9".
std::string quantile_field(double q);

}  // namespace softmow::obs
