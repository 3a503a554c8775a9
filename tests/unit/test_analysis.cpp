// Execution-model checker: findings/report plumbing, the direct record_*
// audit surface (compiled-in everywhere), and — when SOFTMOW_SHARD_CHECK is
// on — the three seeded engine violations from the ISSUE, each caught with
// the exact (structure, shard, event) blame triple, plus a clean
// engine-driven discovery round with zero findings.
#include "analysis/shard_check.h"

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "analysis/shard_guard.h"
#include "dataplane/flow_table.h"
#include "nos/nib.h"
#include "sim/sharded.h"
#include "softmow/softmow.h"

namespace softmow::analysis {
namespace {

TEST(AnalysisReport, CountsAndCleanTrackAddedFindings) {
  AnalysisReport report;
  EXPECT_TRUE(report.clean());
  Finding f;
  f.kind = FindingKind::kForeignWrite;
  f.structure = "nib";
  report.add(f);
  f.kind = FindingKind::kLateDelivery;
  report.add(f);
  report.add(f);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.count(FindingKind::kForeignWrite), 1u);
  EXPECT_EQ(report.count(FindingKind::kLateDelivery), 2u);
  EXPECT_EQ(report.count(FindingKind::kForeignRead), 0u);
}

TEST(AnalysisReport, SortIsDeterministicBlameOrder) {
  // Workers report in wall-clock order; the sort restores the canonical
  // (when, accessor, structure, instance, seq) listing.
  AnalysisReport report;
  auto mk = [](std::int64_t when, std::size_t accessor, const char* structure,
               std::uint64_t seq) {
    Finding f;
    f.when_ns = when;
    f.accessor = accessor;
    f.structure = structure;
    f.event_seq = seq;
    return f;
  };
  report.add(mk(2000, 0, "nib", 5));
  report.add(mk(1000, 1, "nib", 9));
  report.add(mk(1000, 0, "tracer", 3));
  report.add(mk(1000, 0, "nib", 3));
  report.sort_findings();
  ASSERT_EQ(report.findings.size(), 4u);
  EXPECT_EQ(report.findings[0].structure, "nib");
  EXPECT_EQ(report.findings[0].accessor, 0u);
  EXPECT_EQ(report.findings[1].structure, "tracer");
  EXPECT_EQ(report.findings[2].accessor, 1u);
  EXPECT_EQ(report.findings[3].when_ns, 2000);
}

TEST(ShardChecker, DirectLateDeliveryAuditFlagsExactBlame) {
  // The happens-before audit is usable through record_* even in builds where
  // the engine hooks compile away.
  ShardChecker checker;
  checker.record_delivery(/*dst=*/1, /*when_ns=*/2000, /*src=*/0, /*src_seq=*/7,
                          /*dst_now_ns=*/2500);
  AnalysisReport report = checker.report();
  ASSERT_EQ(report.count(FindingKind::kLateDelivery), 1u);
  const Finding& f = report.findings.front();
  EXPECT_EQ(f.structure, "mailbox");
  EXPECT_EQ(f.instance, 1u);
  EXPECT_EQ(f.owner, 1u);     // destination shard
  EXPECT_EQ(f.accessor, 0u);  // source shard
  EXPECT_EQ(f.when_ns, 2000);
  EXPECT_EQ(f.event_seq, 7u);  // the message's send seq
  EXPECT_NE(f.detail.find("2500"), std::string::npos);
}

TEST(ShardChecker, OnTimeDeliveriesAndAuditTrafficStayClean) {
  ShardChecker checker;
  checker.record_window(1, 0, 1'000'000);
  checker.record_handoff(0, 1);
  checker.record_delivery(1, 2000, 0, 0, /*dst_now_ns=*/2000);  // when == now: on time
  checker.record_delivery(1, 3000, 0, 1, /*dst_now_ns=*/2000);
  EXPECT_TRUE(checker.clean());
  AnalysisReport report = checker.report();
  EXPECT_EQ(report.windows_audited, 1u);
  EXPECT_EQ(report.handoffs, 1u);
  EXPECT_EQ(report.deliveries_checked, 2u);
}

TEST(ShardChecker, RetentionCapKeepsCounting) {
  ShardChecker::Options opts;
  opts.max_findings = 2;
  ShardChecker checker(opts);
  for (std::uint64_t seq = 0; seq < 5; ++seq)
    checker.record_delivery(1, 1000, 0, seq, 5000);
  AnalysisReport report = checker.report();
  EXPECT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.count(FindingKind::kLateDelivery), 5u);
}

#if defined(SOFTMOW_SHARD_CHECK) && SOFTMOW_SHARD_CHECK
#define SKIP_UNLESS_INSTRUMENTED() ((void)0)
#else
#define SKIP_UNLESS_INSTRUMENTED() \
  GTEST_SKIP() << "engine instrumentation requires -DSOFTMOW_SHARD_CHECK=ON"
#endif

// Seeded violation 1 (ISSUE): an event on shard 0 mutates a NIB owned by
// shard 1. The checker must blame the exact structure and event.
TEST(ShardCheckEngine, OffShardNibMutationIsCaught) {
  SKIP_UNLESS_INSTRUMENTED();
  ASSERT_TRUE(ShardChecker::instrumented());
  nos::Nib nib;
  nib.guard().set_identity("nib", 7);
  nib.guard().set_owner(1);

  ShardChecker checker;
  sim::ShardedSimulator engine(2);
  engine.schedule(0, sim::Duration::millis(1), [&] {
    nib.upsert_link(Endpoint{SwitchId{1}, PortId{1}}, Endpoint{SwitchId{2}, PortId{1}}, {});
  });
  engine.run();

  AnalysisReport report = checker.report();
  ASSERT_EQ(report.count(FindingKind::kForeignWrite), 1u) << report.summary();
  const Finding& f = report.findings.front();
  EXPECT_EQ(f.structure, "nib");
  EXPECT_EQ(f.instance, 7u);
  EXPECT_EQ(f.owner, 1u);
  EXPECT_EQ(f.accessor, 0u);
  EXPECT_EQ(f.when_ns, 1'000'000);  // the offending event's sim-time
  EXPECT_EQ(f.event_seq, 0u);       // first event scheduled onto shard 0
}

// Seeded violation 2 (ISSUE): a flow-table install that skips the mailbox
// handoff — a direct foreign write instead of engine.post to the owner.
TEST(ShardCheckEngine, InstallSkippingMailboxHandoffIsCaught) {
  SKIP_UNLESS_INSTRUMENTED();
  dataplane::FlowTable table;
  table.guard().set_identity("flowtable", 42);
  table.guard().set_owner(1);

  ShardChecker checker;
  sim::ShardedSimulator engine(2);
  engine.schedule(0, sim::Duration::millis(2), [&] {
    dataplane::FlowRule rule;
    rule.cookie = 9;
    ASSERT_TRUE(table.install(rule).ok());
  });
  engine.run();

  AnalysisReport report = checker.report();
  ASSERT_GE(report.count(FindingKind::kForeignWrite), 1u) << report.summary();
  const Finding& f = report.findings.front();
  EXPECT_EQ(f.structure, "flowtable");
  EXPECT_EQ(f.instance, 42u);
  EXPECT_EQ(f.owner, 1u);
  EXPECT_EQ(f.accessor, 0u);
  EXPECT_EQ(f.when_ns, 2'000'000);
  EXPECT_EQ(f.event_seq, 0u);
}

// The same cross-shard effect routed the sanctioned way — engine.post into
// the owner's mailbox — must NOT be a finding, only a counted handoff.
TEST(ShardCheckEngine, SanctionedMailboxHandoffIsNotFlagged) {
  SKIP_UNLESS_INSTRUMENTED();
  dataplane::FlowTable table;
  table.guard().set_identity("flowtable", 42);
  table.guard().set_owner(1);

  ShardChecker checker;
  sim::ShardedSimulator engine(2);
  engine.schedule(0, sim::Duration::millis(1), [&] {
    engine.post(1, sim::Duration::millis(1), [&] {
      dataplane::FlowRule rule;
      rule.cookie = 9;
      ASSERT_TRUE(table.install(rule).ok());
    });
  });
  engine.run();

  AnalysisReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GE(report.handoffs, 1u);
  EXPECT_GE(report.deliveries_checked, 1u);
  EXPECT_GE(report.windows_audited, 1u);
  EXPECT_GT(report.accesses_checked, 0u);
}

// Seeded violation 3 (ISSUE): with the lookahead clamp disabled, a zero-delay
// cross-shard post lands behind the destination's executed clock — the
// happens-before audit must flag the late message with its send identity.
TEST(ShardCheckEngine, LateCrossShardDeliveryIsCaught) {
  SKIP_UNLESS_INSTRUMENTED();
  ShardChecker checker;
  sim::ShardedSimulator::Options opts;
  opts.lookahead = sim::Duration::millis(1);
  sim::ShardedSimulator engine(2, opts);
  engine.set_clamp_disabled_for_test(true);

  // Window [2ms, 3ms): shard 1 executes up to 2.5ms while shard 0's event at
  // 2ms posts mail stamped 2ms — delivered at the barrier into shard 1's past.
  engine.schedule(0, sim::Duration::millis(2),
                  [&] { engine.post(1, sim::Duration{}, [] {}); });
  engine.schedule(1, sim::Duration::millis(2), [] {});
  engine.schedule(1, sim::Duration::millis(2.5), [] {});
  engine.run();

  AnalysisReport report = checker.report();
  ASSERT_EQ(report.count(FindingKind::kLateDelivery), 1u) << report.summary();
  const Finding& f = report.findings.front();
  EXPECT_EQ(f.structure, "mailbox");
  EXPECT_EQ(f.owner, 1u);             // destination shard
  EXPECT_EQ(f.accessor, 0u);          // source shard
  EXPECT_EQ(f.when_ns, 2'000'000);    // the late message's delivery stamp
  EXPECT_EQ(f.event_seq, 0u);         // shard 0's first cross-shard send
  EXPECT_NE(f.detail.find("2500000"), std::string::npos) << f.detail;
}

// With the clamp active the identical workload is conservative — the audit
// sees the delivery and stays clean.
TEST(ShardCheckEngine, ClampedDeliveryOfSameWorkloadIsClean) {
  SKIP_UNLESS_INSTRUMENTED();
  ShardChecker checker;
  sim::ShardedSimulator::Options opts;
  opts.lookahead = sim::Duration::millis(1);
  sim::ShardedSimulator engine(2, opts);
  engine.schedule(0, sim::Duration::millis(2),
                  [&] { engine.post(1, sim::Duration{}, [] {}); });
  engine.schedule(1, sim::Duration::millis(2), [] {});
  engine.schedule(1, sim::Duration::millis(2.5), [] {});
  engine.run();
  EXPECT_TRUE(checker.clean()) << checker.report().summary();
  EXPECT_GE(checker.report().deliveries_checked, 1u);
}

// A real control-plane workload on the engine — the fig10-style discovery
// round over a full hierarchy — must be finding-free, with the
// audit demonstrably exercised (accesses checked, handoffs, deliveries).
TEST(ShardCheckEngine, CleanDiscoveryRoundOverScenario) {
  SKIP_UNLESS_INSTRUMENTED();
  auto scenario = topo::build_scenario(topo::small_scenario_params(1));
  auto& mp = *scenario->mgmt;

  ShardChecker checker;
  sim::ShardedSimulator engine(mp.natural_shard_count());
  mp.bind_shards(engine, sim::Duration::millis(5));
  for (reca::Controller* leaf : mp.leaves())
    engine.schedule(leaf->shard(), sim::Duration{}, [leaf] { leaf->run_link_discovery(); });
  engine.run();
  reca::Controller* root = &mp.root();
  engine.schedule(root->shard(), sim::Duration{}, [root] { root->run_link_discovery(); });
  engine.run();
  mp.unbind_shards();

  AnalysisReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.accesses_checked, 0u);
  EXPECT_GT(report.handoffs, 0u);
  EXPECT_GT(report.deliveries_checked, 0u);
  EXPECT_GT(report.windows_audited, 0u);
}

// unbind_shards must release every pinned guard: the same off-shard access
// that was a finding while bound is exempt afterwards.
TEST(ShardCheckEngine, UnbindReleasesOwnership) {
  SKIP_UNLESS_INSTRUMENTED();
  auto scenario = topo::build_scenario(topo::small_scenario_params(1));
  auto& mp = *scenario->mgmt;
  sim::ShardedSimulator engine(mp.natural_shard_count());
  mp.bind_shards(engine, sim::Duration::millis(5));
  reca::Controller* leaf = mp.leaves().front();
  EXPECT_NE(leaf->nib().guard().owner(), kNoShard);
  mp.unbind_shards();
  EXPECT_EQ(leaf->nib().guard().owner(), kNoShard);

  ShardChecker checker;
  sim::ShardedSimulator probe(2);
  probe.schedule(0, sim::Duration::millis(1), [&] {
    nos::SwitchRecord rec;
    rec.id = SwitchId{900};
    leaf->nib().upsert_switch(rec);
  });
  probe.run();
  EXPECT_TRUE(checker.clean()) << checker.report().summary();
}

// Seeded negative for the migration/failover flip path: an ownership flip
// that bypasses mgmt::handoff_leaf_tables — here, a "buggy migration"
// mutating a leaf's device table from the root's shard with no handoff —
// must be blamed with the exact (structure, owner, accessor) triple.
TEST(ShardCheckEngine, UnsanctionedLeafTableFlipIsBlamed) {
  SKIP_UNLESS_INSTRUMENTED();
  auto scenario = topo::build_scenario(topo::small_scenario_params(1));
  auto& mp = *scenario->mgmt;
  sim::ShardedSimulator engine(mp.natural_shard_count());
  mp.bind_shards(engine, sim::Duration::millis(5));

  reca::Controller* leaf = mp.leaves().front();
  ASSERT_FALSE(leaf->devices().empty());
  dataplane::FlowTable& table = mp.net().sw(leaf->devices().front())->table();
  const std::size_t owner = table.guard().owner();
  const std::size_t foreign = mp.root().shard();
  ASSERT_NE(owner, kNoShard);
  ASSERT_NE(owner, foreign);

  ShardChecker checker;
  engine.schedule(foreign, sim::Duration::millis(1), [&] {
    dataplane::FlowRule rule;
    rule.cookie = 77;
    ASSERT_TRUE(table.install(rule).ok());
  });
  engine.run();

  AnalysisReport report = checker.report();
  ASSERT_GE(report.count(FindingKind::kForeignWrite), 1u) << report.summary();
  const Finding& f = report.findings.front();
  EXPECT_EQ(f.structure, "flowtable");
  EXPECT_EQ(f.owner, owner);
  EXPECT_EQ(f.accessor, foreign);
  mp.unbind_shards();
}

// The same flip routed through the sanctioned path — handoff_leaf_tables
// re-pins the tables, after which the new owner mutates freely — is clean.
TEST(ShardCheckEngine, SanctionedHandoffLeafTablesFlipIsClean) {
  SKIP_UNLESS_INSTRUMENTED();
  auto scenario = topo::build_scenario(topo::small_scenario_params(1));
  auto& mp = *scenario->mgmt;
  sim::ShardedSimulator engine(mp.natural_shard_count());
  mp.bind_shards(engine, sim::Duration::millis(5));

  reca::Controller* leaf = mp.leaves().front();
  ASSERT_FALSE(leaf->devices().empty());
  dataplane::FlowTable& table = mp.net().sw(leaf->devices().front())->table();
  const std::size_t owner = table.guard().owner();
  const std::size_t foreign = mp.root().shard();
  ASSERT_NE(owner, foreign);

  ShardChecker checker;
  engine.schedule(foreign, sim::Duration::millis(1), [&] {
    mp.handoff_leaf_tables(0, foreign);  // the one sanctioned transfer
  });
  engine.schedule(foreign, sim::Duration::millis(2), [&] {
    dataplane::FlowRule rule;
    rule.cookie = 78;
    ASSERT_TRUE(table.install(rule).ok());  // now the owner: legal
  });
  engine.run();

  EXPECT_EQ(table.guard().owner(), foreign);
  AnalysisReport report = checker.report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GE(report.handoffs, 1u);
  // Hygiene: pin the tables back where bind_shards put them.
  mp.handoff_leaf_tables(0, owner);
  mp.unbind_shards();
}

}  // namespace
}  // namespace softmow::analysis
