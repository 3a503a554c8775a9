#include <gtest/gtest.h>

#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/queueing.h"
#include "sim/sharded.h"

namespace softmow::obs {
namespace {

sim::TimePoint at_ms(double ms) { return sim::TimePoint::at(sim::Duration::millis(ms)); }

TEST(SpanTree, ThreeLevelParentLinkage) {
  Tracer tracer;
  TraceContext root = tracer.open_span_under({}, at_ms(0), "bearer.setup", 3, "root");
  TraceContext mid = tracer.open_span_under(root, at_ms(1), "delegate", 2, "mid-0");
  TraceContext leaf =
      tracer.span_under(mid, at_ms(2), at_ms(3), "flowmod.translate", 1, "leaf-0");
  tracer.close_span(mid, at_ms(4));
  tracer.close_span(root, at_ms(5), "done");

  // One trace: all three spans share the root's trace_id.
  EXPECT_EQ(mid.trace_id, root.trace_id);
  EXPECT_EQ(leaf.trace_id, root.trace_id);
  ASSERT_EQ(tracer.spans().size(), 3u);

  const TraceSpan* root_span = tracer.find_span(root.span_id);
  const TraceSpan* mid_span = tracer.find_span(mid.span_id);
  const TraceSpan* leaf_span = tracer.find_span(leaf.span_id);
  ASSERT_NE(root_span, nullptr);
  ASSERT_NE(mid_span, nullptr);
  ASSERT_NE(leaf_span, nullptr);
  EXPECT_EQ(root_span->parent_id, 0u);
  EXPECT_EQ(mid_span->parent_id, root.span_id);
  EXPECT_EQ(leaf_span->parent_id, mid.span_id);
  EXPECT_EQ(root_span->detail, "done");

  ASSERT_EQ(tracer.children_of(root.span_id).size(), 1u);
  EXPECT_EQ(tracer.children_of(root.span_id)[0]->span_id, mid.span_id);
  ASSERT_EQ(tracer.children_of(mid.span_id).size(), 1u);
  EXPECT_EQ(tracer.children_of(mid.span_id)[0]->span_id, leaf.span_id);
}

TEST(SpanTree, AmbientContextFlowsThroughScheduledEvents) {
  Tracer& tracer = default_tracer();
  tracer.clear();
  sim::ShardedSimulator engine(1);
  // Inside an event, default_tracer() is the shard's own tracer; its spans
  // merge into the caller's tracer when run() returns.
  auto record = [&engine, &tracer](const char* name, sim::Duration length) {
    Tracer& shard = default_tracer();
    EXPECT_NE(&shard, &tracer);
    shard.span_under(shard.current(), engine.now(0), engine.now(0) + length, name, 2);
  };

  TraceContext op = tracer.open_span_under({}, at_ms(0), "op", 1, "test");
  {
    // Events scheduled while `op` is ambient inherit it; spans recorded in
    // the callback attach to the operation even though it runs later.
    Tracer::ScopedContext scoped(tracer, op);
    engine.schedule(0, sim::Duration::millis(1), [&] { record("work", sim::Duration::millis(1)); });
  }
  // Scheduled outside any context: must NOT attach to `op`.
  engine.schedule(0, sim::Duration::millis(2), [&] { record("unrelated", sim::Duration{}); });
  engine.run();
  tracer.close_span(op, at_ms(3));

  const TraceSpan* work = nullptr;
  const TraceSpan* unrelated = nullptr;
  for (const TraceSpan& s : tracer.spans()) {
    if (s.name == "work") work = &s;
    if (s.name == "unrelated") unrelated = &s;
  }
  ASSERT_NE(work, nullptr);
  ASSERT_NE(unrelated, nullptr);
  EXPECT_EQ(work->parent_id, op.span_id);
  EXPECT_EQ(work->trace_id, op.trace_id);
  EXPECT_EQ(unrelated->parent_id, 0u);
  tracer.clear();
}

TEST(SpanTree, QueueingStationRecordsWaitAndServiceUnderParent) {
  Tracer& tracer = default_tracer();
  tracer.clear();

  TraceContext op = tracer.open_span_under({}, at_ms(0), "op", 1, "leaf-0");
  sim::QueueingStation station(sim::Duration::millis(2), "cp-test-station", 1);
  // Two messages bursting at t=0: the second waits one full service time.
  station.submit(at_ms(0), sim::Duration::millis(2), op);
  sim::TimePoint done = station.submit(at_ms(0), sim::Duration::millis(2), op);
  tracer.close_span(op, done);
  EXPECT_EQ(done, at_ms(4));

  int waits = 0, services = 0;
  for (const TraceSpan& s : tracer.spans()) {
    if (s.name == "queue.wait") {
      ++waits;
      EXPECT_EQ(s.kind, SpanKind::kQueue);
      EXPECT_EQ(s.parent_id, op.span_id);
      EXPECT_EQ(s.duration(), sim::Duration::millis(2));
    }
    if (s.name == "queue.service") {
      ++services;
      EXPECT_EQ(s.kind, SpanKind::kProcess);
      EXPECT_EQ(s.parent_id, op.span_id);
    }
  }
  EXPECT_EQ(waits, 1);    // first message never waited
  EXPECT_EQ(services, 2);
  tracer.clear();
}

TEST(CriticalPath, BucketsSumExactlyToRootDuration) {
  Tracer tracer;
  // Hand-built tree: root op [0, 100] at level 0 with
  //   queue [0, 60] at level 1, process [60, 70] at level 1,
  //   propagate [70, 95] at level 2 — and 5 ms of root self-time.
  TraceContext root = tracer.open_span_under({}, at_ms(0), "op", 0, "root");
  tracer.span_under(root, at_ms(0), at_ms(60), "q", 1, "leaf", SpanKind::kQueue);
  tracer.span_under(root, at_ms(60), at_ms(70), "p", 1, "leaf", SpanKind::kProcess);
  tracer.span_under(root, at_ms(70), at_ms(95), "w", 2, "wire", SpanKind::kPropagate);
  tracer.close_span(root, at_ms(100));

  CriticalPathReport report = analyze_span_tree(tracer, root.span_id);
  EXPECT_EQ(report.duration(), sim::Duration::millis(100));
  EXPECT_EQ(report.attributed(), report.duration());  // exact, not approximate

  ASSERT_NE(report.level(0), nullptr);
  ASSERT_NE(report.level(1), nullptr);
  ASSERT_NE(report.level(2), nullptr);
  EXPECT_EQ(report.level(0)->processing, sim::Duration::millis(5));  // root self-time
  EXPECT_EQ(report.level(1)->queueing, sim::Duration::millis(60));
  EXPECT_EQ(report.level(1)->processing, sim::Duration::millis(10));
  EXPECT_EQ(report.level(2)->propagation, sim::Duration::millis(25));

  CriticalPathReport::Dominant dom = report.dominant();
  EXPECT_EQ(dom.level, 1);
  EXPECT_STREQ(dom.component, "queueing");
  EXPECT_EQ(dom.time, sim::Duration::millis(60));
}

TEST(CriticalPath, ConcurrentChildrenResolveViaBackwardWalk) {
  Tracer tracer;
  // Two overlapping children: the one still running at the root's end owns
  // the tail; the earlier child only owns time before the later one began.
  TraceContext root = tracer.open_span_under({}, at_ms(0), "op", 0, "root");
  tracer.span_under(root, at_ms(0), at_ms(80), "slow", 1, "a", SpanKind::kQueue);
  tracer.span_under(root, at_ms(20), at_ms(100), "gating", 2, "b", SpanKind::kProcess);
  tracer.close_span(root, at_ms(100));

  CriticalPathReport report = analyze_span_tree(tracer, root.span_id);
  EXPECT_EQ(report.attributed(), sim::Duration::millis(100));
  // [20, 100] gated by the level-2 process span, [0, 20] by the level-1 queue.
  ASSERT_NE(report.level(2), nullptr);
  EXPECT_EQ(report.level(2)->processing, sim::Duration::millis(80));
  ASSERT_NE(report.level(1), nullptr);
  EXPECT_EQ(report.level(1)->queueing, sim::Duration::millis(20));
}

TEST(CriticalPath, RootOperationsFilterAndBudgetTable) {
  Tracer tracer;
  TraceContext op = tracer.open_span_under({}, at_ms(0), "discovery.round", 2, "root");
  tracer.span_under(op, at_ms(0), at_ms(40), "q", 1, "leaf", SpanKind::kQueue);
  tracer.span_under(op, at_ms(40), at_ms(50), "w", 1, "leaf", SpanKind::kPropagate);
  tracer.close_span(op, at_ms(50));
  // Childless span: not a root operation.
  tracer.span_under({}, at_ms(0), at_ms(1), "flat", 0);

  auto reports = analyze_root_operations(tracer);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "discovery.round");
  EXPECT_TRUE(analyze_root_operations(tracer, "discovery.").size() == 1);
  EXPECT_TRUE(analyze_root_operations(tracer, "bearer.").empty());

  std::string table = latency_budget_table(reports);
  EXPECT_NE(table.find("discovery.round"), std::string::npos);
  EXPECT_NE(table.find("bottleneck: queueing at level 1"), std::string::npos);
  EXPECT_NE(table.find("attributed 50.000 / 50.000 ms"), std::string::npos);
  EXPECT_EQ(latency_budget_table({}), "latency budget: no root operations traced\n");
}

TEST(ChromeTrace, ExportIsValidJsonWithSpansFlowsAndMetadata) {
  Tracer tracer;
  TraceContext root = tracer.open_span_under({}, at_ms(0), "op", 2, "root");
  tracer.span_under(root, at_ms(1), at_ms(3), "child", 1, "leaf-0", SpanKind::kQueue);
  tracer.close_span(root, at_ms(4));
  tracer.event_under(root, at_ms(2), "mark", 2, "root", "note");

  auto doc = JsonValue::parse(chrome_trace_string(tracer));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->find("displayTimeUnit")->as_string(), "ms");
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  int complete = 0, instants = 0, flows = 0, metadata = 0;
  for (const JsonValue& e : events->items()) {
    std::string ph = e.find("ph")->as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_NE(e.find("ts"), nullptr);
      EXPECT_NE(e.find("dur"), nullptr);
      EXPECT_NE(e.find("tid"), nullptr);
      EXPECT_EQ(e.find("pid")->as_uint(), 1u);
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_NE(e.find("args")->find("trace_id"), nullptr);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.find("name")->as_string(), "mark");
    } else if (ph == "s" || ph == "f") {
      ++flows;  // parent and child sit on different (level, scope) tracks
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(flows, 2);  // one s/f pair for the cross-track parent->child edge
  EXPECT_GE(metadata, 3);  // process_name + one thread_name per track
}

}  // namespace
}  // namespace softmow::obs
