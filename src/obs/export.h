// Exporters turning a MetricsRegistry snapshot (plus an optional Tracer and
// TimeSeriesRecorder) into machine-readable output. Two formats:
//
//   * JSON — one document: {"metrics": [...], "timeseries": [...],
//     "trace": {"events": [...], "spans": [...]}}. This is what
//     `--metrics-json` writes; the schema is documented in README.md
//     ("Observability").
//   * CSV — one row per series (histograms flattened to one row per bucket,
//     time-series to one row per point), for spreadsheet-style consumption
//     of sweeps.
//
// Histogram samples additionally export estimated p50/p95/p99 quantiles,
// derived from the integer bucket counts (never the float sum; see
// Histogram::quantile).
#pragma once

#include <string>

#include "core/result.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace softmow::obs {

/// Builds the export document. `tracer` and `recorder` may be nullptr
/// (metrics only / no time-series section contents).
JsonValue export_json(const MetricsRegistry& registry, const Tracer* tracer = nullptr,
                      const TimeSeriesRecorder* recorder = nullptr);

/// Serialized export_json().
std::string to_json(const MetricsRegistry& registry, const Tracer* tracer = nullptr,
                    const TimeSeriesRecorder* recorder = nullptr);

/// CSV with header `name,labels,kind,field,value`; labels are
/// `k=v;k=v`. Histograms emit count/sum/p50/p95/p99 rows plus one
/// `le_<bound>` row per bucket (cumulative, Prometheus-style); recorded
/// time-series emit one `timeseries,<field>@<at_ns>` row per point.
std::string to_csv(const MetricsRegistry& registry, const TimeSeriesRecorder* recorder = nullptr);

/// Writes `content` to `path` (parent directory must exist).
Result<void> write_file(const std::string& path, const std::string& content);

}  // namespace softmow::obs
