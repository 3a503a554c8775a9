// Control-plane observability: a metrics registry with named, label-tagged
// counters, gauges and fixed-bucket histograms.
//
// Design constraints (this code runs inside tight simulation loops):
//   * the hot path is a plain increment on a stable handle
//     (Counter*/Gauge*/Histogram*) that instruments hold after registration;
//   * no heap allocation after registration: counters are single integers,
//     histograms pre-size their bucket vector when registered;
//   * registration is get-or-create on (name, labels), so independent
//     components that register the same series share one cell and their
//     contributions merge (e.g. every southbound::Channel increments the
//     same per-direction counter).
//
// Threading: cells are plain integers and doubles. The whole control plane,
// sim::ShardedSimulator's shards included, runs on one thread, so every
// series sees its updates in the engine's deterministic event order and
// exports are byte-identical run to run at a fixed seed.
//
// Most call sites use the process-wide default_registry(); experiments that
// need isolation construct their own MetricsRegistry.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace softmow::obs {

/// Sorted (key, value) pairs identifying one series of a metric family.
/// Keep cardinality low: levels, directions, component names — never IDs of
/// unbounded populations.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer. Hot path: `c->inc()` is one add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written floating-point value (queue depths, cross-region weight).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram: bucket upper bounds are chosen at registration
/// and never change, so observe() is a linear scan over a handful of
/// doubles plus two adds — no allocation, no sorting.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one sample. Samples above the last bound land in the implicit
  /// +inf overflow bucket.
  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return buckets_; }
  /// Cumulative count of samples <= upper_bounds()[i].
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const;
  /// Estimated q-quantile (q in (0,1)) by linear interpolation within the
  /// bucket holding rank q*count (Prometheus histogram_quantile). Derived
  /// purely from the integer bucket counts. Overflow-bucket ranks
  /// clamp to the last finite bound; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  void reset();

  /// Exponential bounds: `first, first*factor, ...` (`count` bounds).
  static std::vector<double> exponential_bounds(double first, double factor, std::size_t count);

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> buckets_;  // one per bound + overflow
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported series: identity plus a value snapshot.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  // kCounter
  std::uint64_t counter_value = 0;
  // kGauge
  double gauge_value = 0;
  // kHistogram
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t hist_count = 0;
  double hist_sum = 0;
};

class MetricsRegistry {
 public:
  /// Get-or-create. The returned pointer is stable for the registry's
  /// lifetime (cells live in deques; no reallocation moves them).
  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  /// Re-registering an existing histogram ignores `upper_bounds` and
  /// returns the original cell (bounds are fixed at first registration).
  Histogram* histogram(const std::string& name, std::vector<double> upper_bounds,
                       Labels labels = {});

  /// Lookup without creating; nullptr when the series does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name, const Labels& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name, const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                const Labels& labels = {}) const;

  /// Every registered series, sorted by (name, labels) — the exporters'
  /// input, and stable across runs for diff-able output.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zeroes every cell but keeps registrations (handles stay valid) — used
  /// by benches to scope counts to one phase of an experiment.
  void reset_values();

  [[nodiscard]] std::size_t series_count() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  static Labels normalized(Labels labels);

  // Deques give pointer stability; maps give deterministic snapshot order.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<Key, Counter*> counter_index_;
  std::map<Key, Gauge*> gauge_index_;
  std::map<Key, Histogram*> histogram_index_;
};

/// Process-wide registry used by default throughout the control plane.
MetricsRegistry& default_registry();

/// Default wait-time buckets (microseconds): 1us .. ~17min, x4 steps.
std::vector<double> wait_us_bounds();

/// Histogram::quantile over an exported snapshot (same estimator, applied
/// to MetricSample::bounds/bucket_counts). 0 for non-histogram samples.
double sample_quantile(const MetricSample& s, double q);

}  // namespace softmow::obs
