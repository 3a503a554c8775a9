#include "bench/report.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

#ifndef SOFTMOW_GIT_SHA
#define SOFTMOW_GIT_SHA "unknown"
#endif
#ifndef SOFTMOW_BUILD_TYPE
#define SOFTMOW_BUILD_TYPE "unknown"
#endif

namespace softmow::bench {

namespace {

std::vector<Headline> g_headlines;
sim::Duration g_replayed_span{};

obs::JsonValue headline_json(const Headline& h) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("name", obs::JsonValue::string(h.name));
  out.set("value", obs::JsonValue::number(h.value));
  out.set("unit", obs::JsonValue::string(h.unit));
  out.set("higher_is_better", obs::JsonValue::boolean(h.higher_is_better));
  out.set("tolerance", obs::JsonValue::number(h.tolerance));
  out.set("gate", obs::JsonValue::boolean(h.gate));
  return out;
}

double find_gauge_value(const std::string& name, const obs::Labels& labels) {
  const obs::Gauge* g = obs::default_registry().find_gauge(name, labels);
  return g != nullptr ? g->value() : 0.0;
}

/// Groups the flushed profile_* series by their `shard` label into one
/// summary object per shard, ordered by shard index.
obs::JsonValue profile_json() {
  struct ShardSummary {
    std::map<std::string, double> fields;
  };
  std::map<std::uint64_t, ShardSummary> by_shard;
  static const std::map<std::string, std::string> kFieldOf = {
      {"profile_events_total", "events"},
      {"profile_mail_sent_total", "mail_sent"},
      {"profile_mail_recv_total", "mail_recv"},
      {"profile_windows_total", "windows"},
      {"profile_bounded_windows_total", "bounded_windows"},
      {"profile_wall_busy_ms", "busy_ms"},
      {"profile_wall_stall_ms", "stall_ms"},
  };
  for (const obs::MetricSample& s : obs::default_registry().snapshot()) {
    auto field = kFieldOf.find(s.name);
    if (field == kFieldOf.end()) continue;
    const std::string* shard = nullptr;
    for (const auto& [k, v] : s.labels)
      if (k == "shard") shard = &v;
    if (shard == nullptr) continue;
    std::uint64_t index = std::strtoull(shard->c_str(), nullptr, 10);
    double value = s.kind == obs::MetricKind::kCounter ? static_cast<double>(s.counter_value)
                                                       : s.gauge_value;
    by_shard[index].fields[field->second] = value;
  }

  obs::JsonValue shards = obs::JsonValue::array();
  for (const auto& [index, summary] : by_shard) {
    obs::JsonValue row = obs::JsonValue::object();
    row.set("shard", obs::JsonValue::number(static_cast<double>(index)));
    // Fixed field order (the kFieldOf values), not map order, for readability.
    static const char* kOrder[] = {"events",          "mail_sent", "mail_recv", "windows",
                                   "bounded_windows", "busy_ms",   "stall_ms"};
    for (const char* f : kOrder) {
      auto it = summary.fields.find(f);
      row.set(f, obs::JsonValue::number(it != summary.fields.end() ? it->second : 0.0));
    }
    shards.push_back(std::move(row));
  }
  obs::JsonValue out = obs::JsonValue::object();
  const obs::Counter* windows = obs::default_registry().find_counter("profile_engine_windows_total");
  out.set("engine_windows",
          obs::JsonValue::number(windows != nullptr ? static_cast<double>(windows->value()) : 0.0));
  out.set("shards", std::move(shards));
  return out;
}

}  // namespace

void add_headline(Headline headline) {
  for (Headline& h : g_headlines) {
    if (h.name == headline.name) {
      h = std::move(headline);
      return;
    }
  }
  g_headlines.push_back(std::move(headline));
}

const std::vector<Headline>& headlines() { return g_headlines; }

void clear_headlines() {
  g_headlines.clear();
  g_replayed_span = sim::Duration{};
}

void set_replayed_sim_duration(sim::Duration span) { g_replayed_span = span; }

obs::JsonValue bench_report_json(const std::string& bench_name, const BenchOptions& opts) {
  const double wall_total = find_gauge_value("bench_wall_ms", {{"phase", "total"}});
  const double wall_sim = find_gauge_value("bench_wall_ms", {{"phase", "sim"}});
  const double wall_setup = find_gauge_value("bench_wall_ms", {{"phase", "setup"}});

  // Auto headlines: the wall phases every bench has, plus the replay speedup
  // when the bench declared its simulated span. Explicit add_headline()
  // entries with the same name win (added first, so the replace path hits).
  if (wall_total > 0)
    add_headline({"wall_total_ms", wall_total, "ms", false, kWallTolerance, true});
  // Ungated: the sim phase is tens of ms at CI scale, so scheduler jitter
  // alone exceeds any usable tolerance; wall_total_ms and the speedup
  // headline gate wall regressions at stable magnitudes.
  if (wall_sim > 0) add_headline({"wall_sim_ms", wall_sim, "ms", false, kWallTolerance, false});
  if (g_replayed_span > sim::Duration{} && wall_total > 0) {
    add_headline({"speedup_over_realtime", g_replayed_span.to_millis() / wall_total, "x", true,
                  kWallTolerance, true});
  }

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", obs::JsonValue::string("softmow.bench.v1"));
  doc.set("bench", obs::JsonValue::string(bench_name));

  obs::JsonValue meta = obs::JsonValue::object();
  meta.set("git_sha", obs::JsonValue::string(SOFTMOW_GIT_SHA));
  meta.set("build_type", obs::JsonValue::string(SOFTMOW_BUILD_TYPE));
  doc.set("meta", std::move(meta));

  obs::JsonValue options = obs::JsonValue::object();
  options.set("scale", obs::JsonValue::number(opts.scale));
  options.set("seed", obs::JsonValue::number(static_cast<double>(opts.seed)));
  doc.set("options", std::move(options));

  obs::JsonValue wall = obs::JsonValue::object();
  wall.set("total", obs::JsonValue::number(wall_total));
  wall.set("sim", obs::JsonValue::number(wall_sim));
  wall.set("setup", obs::JsonValue::number(wall_setup));
  doc.set("wall_ms", std::move(wall));

  obs::JsonValue headline = obs::JsonValue::array();
  for (const Headline& h : g_headlines) headline.push_back(headline_json(h));
  doc.set("headline", std::move(headline));

  doc.set("profile", profile_json());

  // Reuse the v3 exporter for the timeseries + metrics sections so one
  // parser serves both document kinds.
  obs::JsonValue obs_doc =
      obs::export_json(obs::default_registry(), nullptr, &obs::default_timeseries());
  if (const obs::JsonValue* ts = obs_doc.find("timeseries")) doc.set("timeseries", *ts);
  if (const obs::JsonValue* metrics = obs_doc.find("metrics")) doc.set("metrics", *metrics);
  return doc;
}

bool write_bench_report(const std::string& bench_name, const std::string& path,
                        const BenchOptions& opts) {
  auto written = obs::write_file(path, bench_report_json(bench_name, opts).dump() + "\n");
  if (written.ok()) {
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "bench: %s\n", written.error().message.c_str());
  return false;
}

}  // namespace softmow::bench
