#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace softmow::obs {
namespace {

TEST(MetricsRegistry, CounterGetOrCreateSharesOneCell) {
  MetricsRegistry reg;
  Counter* a = reg.counter("messages_total", {{"direction", "up"}});
  Counter* b = reg.counter("messages_total", {{"direction", "up"}});
  Counter* other = reg.counter("messages_total", {{"direction", "down"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->inc();
  b->inc(4);
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(other->value(), 0u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  Counter* b = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistry, HandlesStayValidAsRegistryGrows) {
  MetricsRegistry reg;
  Counter* first = reg.counter("first");
  first->inc();
  // Force many registrations; `first` must not be invalidated.
  for (int i = 0; i < 1000; ++i) {
    std::string name = "c";  // built piecewise: GCC 12 -Wrestrict FP on char*+string&&
    name += std::to_string(i);
    reg.counter(name);
  }
  first->inc();
  EXPECT_EQ(first->value(), 2u);
  EXPECT_EQ(reg.series_count(), 1001u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("queue_depth");
  g->set(3);
  g->add(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 5.5);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (boundary is inclusive)
  h.observe(10.0);   // <= 10
  h.observe(99.9);   // <= 100
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 10.0 + 99.9 + 1000.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.cumulative(0), 2u);
  EXPECT_EQ(h.cumulative(2), 4u);
  EXPECT_EQ(h.cumulative(3), 5u);
}

TEST(Histogram, ExponentialBounds) {
  auto bounds = Histogram::exponential_bounds(1.0, 4.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{1, 4, 16, 64}));
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.counter("n");
  Histogram* h = reg.histogram("lat", {1.0, 2.0});
  c->inc(7);
  h->observe(1.5);
  reg.reset_values();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.counter("n"), c);  // same cell, still registered
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("zeta")->inc(1);
  reg.gauge("alpha")->set(2);
  reg.histogram("mid", {5.0})->observe(3);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[2].counter_value, 1u);
}

TEST(Json, ParsePrimitivesAndStructure) {
  auto doc = JsonValue::parse(R"({"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}})");
  ASSERT_TRUE(doc.ok());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->size(), 5u);
  EXPECT_DOUBLE_EQ(a->at(1).as_number(), 2.5);
  EXPECT_EQ(a->at(2).as_string(), "x\n");
  EXPECT_TRUE(a->at(3).as_bool());
  EXPECT_TRUE(a->at(4).is_null());
  EXPECT_DOUBLE_EQ(doc->find("b")->find("c")->as_number(), -3);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("{").ok());
  EXPECT_FALSE(JsonValue::parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::parse(R"({"a" 1})").ok());
}

TEST(Json, ControlCharactersEscapeAndRoundTrip) {
  // Every control byte below 0x20 must serialize as valid JSON (\uXXXX or a
  // short escape) and parse back to the identical byte string.
  std::string raw;
  for (char c = 1; c < 0x20; ++c) raw.push_back(c);
  raw += "tail\x01mid\x1f";
  JsonValue obj = JsonValue::object();
  obj.set("s", JsonValue::string(raw));

  std::string doc = obj.dump(-1);  // compact: no formatting newlines
  for (char c : doc) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NE(doc.find("\\u001f"), std::string::npos);

  auto back = JsonValue::parse(doc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->find("s")->as_string(), raw);
}

TEST(Json, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("with \"quotes\" and\nnewline"));
  obj.set("n", JsonValue::number(std::uint64_t{1234567}));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(0.25));
  arr.push_back(JsonValue::boolean(false));
  obj.set("arr", std::move(arr));

  auto back = JsonValue::parse(obj.dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->find("name")->as_string(), "with \"quotes\" and\nnewline");
  EXPECT_EQ(back->find("n")->as_uint(), 1234567u);
  EXPECT_DOUBLE_EQ(back->find("arr")->at(0).as_number(), 0.25);
}

/// The acceptance-criteria round trip: populate a registry + tracer, export
/// JSON, parse it back, and recover the exact values.
TEST(Export, RegistryJsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("controller_messages_total", {{"level", "1"}})->inc(42);
  reg.counter("controller_messages_total", {{"level", "2"}})->inc(7);
  reg.gauge("cross_weight")->set(123.5);
  Histogram* h = reg.histogram("queue_wait_us", {10.0, 100.0}, {{"station", "leaf-0"}});
  h->observe(5);
  h->observe(50);
  h->observe(5000);

  Tracer tracer;
  tracer.span_under({}, sim::TimePoint::zero(), sim::TimePoint::at(sim::Duration::millis(3)),
                    "discovery.convergence", 1, "leaf-0", SpanKind::kOperation, "99 messages");
  tracer.event_under({}, sim::TimePoint::at(sim::Duration::seconds(1)), "failover.promote", 1,
                     "leaf-0");

  auto doc = JsonValue::parse(to_json(reg, &tracer));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->find("schema")->as_string(), "softmow.obs.v3");

  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->size(), 4u);  // sorted: 2 counters, gauge, histogram

  auto find_metric = [&](const std::string& name,
                         const std::string& label_key, const std::string& label_value)
      -> const JsonValue* {
    for (const JsonValue& m : metrics->items()) {
      if (m.find("name")->as_string() != name) continue;
      const JsonValue* labels = m.find("labels");
      if (label_key.empty()) return &m;
      const JsonValue* v = labels->find(label_key);
      if (v != nullptr && v->as_string() == label_value) return &m;
    }
    return nullptr;
  };

  const JsonValue* l1 = find_metric("controller_messages_total", "level", "1");
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->find("kind")->as_string(), "counter");
  EXPECT_EQ(l1->find("value")->as_uint(), 42u);
  EXPECT_EQ(find_metric("controller_messages_total", "level", "2")->find("value")->as_uint(),
            7u);
  EXPECT_DOUBLE_EQ(find_metric("cross_weight", "", "")->find("value")->as_number(), 123.5);

  const JsonValue* hist = find_metric("queue_wait_us", "station", "leaf-0");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("kind")->as_string(), "histogram");
  EXPECT_EQ(hist->find("count")->as_uint(), 3u);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 5055.0);
  ASSERT_EQ(hist->find("bounds")->size(), 2u);
  ASSERT_EQ(hist->find("buckets")->size(), 3u);
  EXPECT_EQ(hist->find("buckets")->at(0).as_uint(), 1u);
  EXPECT_EQ(hist->find("buckets")->at(2).as_uint(), 1u);

  const JsonValue* trace = doc->find("trace");
  ASSERT_NE(trace, nullptr);
  const JsonValue* spans = trace->find("spans");
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ(spans->at(0).find("name")->as_string(), "discovery.convergence");
  EXPECT_EQ(spans->at(0).find("level")->as_uint(), 1u);
  EXPECT_EQ(spans->at(0).find("begin_ns")->as_uint(), 0u);
  EXPECT_EQ(spans->at(0).find("end_ns")->as_uint(), 3000000u);
  EXPECT_EQ(spans->at(0).find("detail")->as_string(), "99 messages");
  const JsonValue* events = trace->find("events");
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->at(0).find("name")->as_string(), "failover.promote");
  EXPECT_EQ(events->at(0).find("at_ns")->as_uint(), 1000000000u);
}

TEST(Export, CsvFlattensHistogramsCumulatively) {
  MetricsRegistry reg;
  reg.counter("msgs", {{"dir", "up"}})->inc(3);
  Histogram* h = reg.histogram("wait", {1.0, 10.0});
  h->observe(0.5);
  h->observe(0.6);
  h->observe(100.0);

  std::string csv = to_csv(reg);
  EXPECT_NE(csv.find("name,labels,kind,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("msgs,dir=up,counter,value,3\n"), std::string::npos);
  EXPECT_NE(csv.find("wait,,histogram,count,3\n"), std::string::npos);
  EXPECT_NE(csv.find("wait,,histogram,le_1,2\n"), std::string::npos);
  EXPECT_NE(csv.find("wait,,histogram,le_10,2\n"), std::string::npos);
  EXPECT_NE(csv.find("wait,,histogram,le_+inf,3\n"), std::string::npos);
}

TEST(Tracer, SpansFilterByLevel) {
  Tracer tracer;
  tracer.span_under({}, sim::TimePoint::zero(), sim::TimePoint::at(sim::Duration::millis(1)), "a",
                    1);
  TraceContext b = tracer.open_span_under({}, sim::TimePoint::at(sim::Duration::millis(2)), "b",
                                          2, "root");
  tracer.close_span(b, sim::TimePoint::at(sim::Duration::millis(5)), "done");
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans_at_level(2).size(), 1u);
  EXPECT_EQ(tracer.spans_at_level(2)[0].duration().to_millis(), 3);
  EXPECT_EQ(tracer.spans_at_level(3).size(), 0u);
}

TEST(Tracer, RingBufferCapacityDropsOldestAndCounts) {
  MetricsRegistry reg;
  Tracer tracer(&reg);
  tracer.set_capacity(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    sim::TimePoint at = sim::TimePoint::at(sim::Duration::millis(i));
    std::string span_name = "s";  // built piecewise: GCC 12 -Wrestrict FP
    span_name += std::to_string(i);
    std::string event_name = "e";
    event_name += std::to_string(i);
    tracer.span_under({}, at, at + sim::Duration::millis(1), span_name, 0);
    tracer.event_under({}, at, event_name, 0);
  }
  ASSERT_EQ(tracer.spans().size(), 4u);
  ASSERT_EQ(tracer.events().size(), 4u);
  // Oldest entries were evicted: the survivors are the last four.
  EXPECT_EQ(tracer.spans().front().name, "s6");
  EXPECT_EQ(tracer.spans().back().name, "s9");
  EXPECT_EQ(tracer.dropped_spans(), 6u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  EXPECT_EQ(reg.counter("trace_dropped_total", {{"buffer", "spans"}})->value(), 6u);
  EXPECT_EQ(reg.counter("trace_dropped_total", {{"buffer", "events"}})->value(), 6u);

  // Shrinking below the current size evicts immediately.
  tracer.set_capacity(2);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans().front().name, "s8");
}

TEST(DefaultRegistry, IsProcessWideSingleton) {
  Counter* a = default_registry().counter("obs_test_singleton");
  Counter* b = default_registry().counter("obs_test_singleton");
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace softmow::obs
