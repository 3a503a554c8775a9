#include "obs/metrics.h"

#include <algorithm>

namespace softmow::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  upper_bounds_.erase(std::unique(upper_bounds_.begin(), upper_bounds_.end()),
                      upper_bounds_.end());
  buckets_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < upper_bounds_.size() && v > upper_bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b)
    total += buckets_[b];
  return total;
}

namespace {

// Shared estimator over (bounds, per-bucket counts, total): find the bucket
// holding rank q*total, interpolate linearly between its lower and upper
// bound. Integer inputs only — bit-stable for any execution schedule.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, std::uint64_t total, double q) {
  if (total == 0 || counts.empty()) return 0.0;
  double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) {
      // Overflow bucket is unbounded above; the last finite bound is the
      // best (under-)estimate available.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    double lower = i == 0 ? 0.0 : bounds[i - 1];
    double upper = bounds[i];
    std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) return upper;
    double below = static_cast<double>(cumulative - in_bucket);
    return lower + (upper - lower) * ((rank - below) / static_cast<double>(in_bucket));
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

double Histogram::quantile(double q) const {
  return bucket_quantile(upper_bounds_, bucket_counts(), count(), q);
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
}

std::vector<double> Histogram::exponential_bounds(double first, double factor,
                                                  std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  double v = first;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

Labels MetricsRegistry::normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

Counter* MetricsRegistry::counter(const std::string& name, Labels labels) {
  Key key{name, normalized(std::move(labels))};
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return it->second;
  counters_.emplace_back();
  return counter_index_.emplace(std::move(key), &counters_.back()).first->second;
}

Gauge* MetricsRegistry::gauge(const std::string& name, Labels labels) {
  Key key{name, normalized(std::move(labels))};
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return it->second;
  gauges_.emplace_back();
  return gauge_index_.emplace(std::move(key), &gauges_.back()).first->second;
}

Histogram* MetricsRegistry::histogram(const std::string& name, std::vector<double> upper_bounds,
                                      Labels labels) {
  Key key{name, normalized(std::move(labels))};
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return it->second;
  histograms_.emplace_back(std::move(upper_bounds));
  return histogram_index_.emplace(std::move(key), &histograms_.back()).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name, const Labels& labels) const {
  auto it = counter_index_.find(Key{name, normalized(labels)});
  return it == counter_index_.end() ? nullptr : it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name, const Labels& labels) const {
  auto it = gauge_index_.find(Key{name, normalized(labels)});
  return it == gauge_index_.end() ? nullptr : it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  auto it = histogram_index_.find(Key{name, normalized(labels)});
  return it == histogram_index_.end() ? nullptr : it->second;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(counter_index_.size() + gauge_index_.size() + histogram_index_.size());
  for (const auto& [key, cell] : counter_index_) {
    MetricSample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = MetricKind::kCounter;
    s.counter_value = cell->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, cell] : gauge_index_) {
    MetricSample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = MetricKind::kGauge;
    s.gauge_value = cell->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, cell] : histogram_index_) {
    MetricSample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = MetricKind::kHistogram;
    s.bounds = cell->upper_bounds();
    s.bucket_counts = cell->bucket_counts();
    s.hist_count = cell->count();
    s.hist_sum = cell->sum();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const MetricSample& a, const MetricSample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

void MetricsRegistry::reset_values() {
  for (Counter& c : counters_) c.reset();
  for (Gauge& g : gauges_) g.reset();
  for (Histogram& h : histograms_) h.reset();
}

std::size_t MetricsRegistry::series_count() const {
  return counter_index_.size() + gauge_index_.size() + histogram_index_.size();
}

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

double sample_quantile(const MetricSample& s, double q) {
  if (s.kind != MetricKind::kHistogram) return 0.0;
  return bucket_quantile(s.bounds, s.bucket_counts, s.hist_count, q);
}

std::vector<double> wait_us_bounds() {
  // 1us .. ~1e9us (x4): covers sub-ms channel hops through minutes-long
  // convergence backlogs with 16 buckets.
  return Histogram::exponential_bounds(1.0, 4.0, 16);
}

}  // namespace softmow::obs
