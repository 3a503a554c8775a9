// Property: at a fixed seed, a discovery workload executed on the sharded
// engine is event-for-event deterministic — identical controller message
// counts, identical final NIB state, and byte-identical metrics exports —
// on every repeated run, and it agrees with the legacy synchronous delivery
// path on every control-plane count.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "softmow/softmow.h"

namespace softmow {
namespace {

struct RoundResult {
  std::map<std::string, std::uint64_t> messages;  ///< controller -> processed
  std::map<std::string, std::size_t> links;       ///< controller -> NIB links
  std::map<std::string, std::size_t> switches;    ///< controller -> NIB switches
  std::string metrics_json;
};

/// Builds the scenario at a fixed seed and runs one steady-state discovery
/// round (all leaves, then the root). `on_engine` false selects the legacy
/// synchronous channel pump; otherwise the sharded engine runs the round.
/// `shards` == 0 uses the hierarchy's natural count. `threads` is passed as
/// `Options::threads`, which the engine ignores.
RoundResult run_round(std::uint64_t seed, bool on_engine, std::size_t shards = 0,
                      std::size_t threads = 1) {
  topo::ScenarioParams params = topo::small_scenario_params();
  params.seed = seed;
  auto scenario = topo::build_scenario(params);
  auto& mp = *scenario->mgmt;
  for (reca::Controller* c : mp.all_controllers())
    c->discovery().stats_mutable() = nos::DiscoveryStats{};
  obs::default_registry().reset_values();

  if (!on_engine) {
    for (reca::Controller* leaf : mp.leaves()) leaf->run_link_discovery();
    mp.root().run_link_discovery();
  } else {
    sim::ShardedSimulator::Options opts;
    opts.threads = threads;
    sim::ShardedSimulator engine(shards > 0 ? shards : mp.natural_shard_count(), opts);
    mp.bind_shards(engine, sim::Duration::millis(5));
    for (reca::Controller* leaf : mp.leaves())
      engine.schedule(leaf->shard(), sim::Duration{}, [leaf] { leaf->run_link_discovery(); });
    engine.run();
    reca::Controller* root = &mp.root();
    engine.schedule(root->shard(), sim::Duration{}, [root] { root->run_link_discovery(); });
    engine.run();
    mp.unbind_shards();
  }

  RoundResult r;
  for (reca::Controller* c : mp.all_controllers()) {
    r.messages[c->name()] = c->discovery().stats().messages_processed();
    r.links[c->name()] = c->nib().links().size();
    r.switches[c->name()] = c->nib().switch_count();
  }
  r.metrics_json = obs::to_json(obs::default_registry(), nullptr);
  return r;
}

TEST(ShardDeterminism, EngineMatchesLegacySynchronousCounts) {
  // The sharded engine reorders deliveries in *time* but the discovery flood
  // is count-deterministic: every controller processes the same messages and
  // learns the same topology as under the legacy synchronous pump.
  for (std::uint64_t seed : {1ull, 7ull}) {
    RoundResult legacy = run_round(seed, false);
    RoundResult engine = run_round(seed, true);
    EXPECT_EQ(legacy.messages, engine.messages) << "seed " << seed;
    EXPECT_EQ(legacy.links, engine.links) << "seed " << seed;
    EXPECT_EQ(legacy.switches, engine.switches) << "seed " << seed;
  }
}

TEST(ShardDeterminism, ByteIdenticalAcrossThreadCounts) {
  // Options::threads is still accepted (the benchmark driver sets it) but the
  // shards always run on the calling thread, so no value may change a byte.
  RoundResult baseline = run_round(1, true, 0, 1);
  ASSERT_FALSE(baseline.messages.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    RoundResult r = run_round(1, true, 0, threads);
    EXPECT_EQ(baseline.messages, r.messages) << threads << " threads";
    EXPECT_EQ(baseline.links, r.links) << threads << " threads";
    EXPECT_EQ(baseline.switches, r.switches) << threads << " threads";
    EXPECT_EQ(baseline.metrics_json, r.metrics_json) << threads << " threads";
  }
}

TEST(ShardDeterminism, ShardFoldingPreservesControlPlaneCounts) {
  // --shards below the natural count folds leaf regions onto shared shards;
  // timing changes (fewer cross-shard hops) but control-plane outcomes must
  // not: same messages, same learned topology.
  RoundResult natural = run_round(1, true);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    RoundResult folded = run_round(1, true, shards);
    EXPECT_EQ(natural.messages, folded.messages) << shards << " shards";
    EXPECT_EQ(natural.links, folded.links) << shards << " shards";
    EXPECT_EQ(natural.switches, folded.switches) << shards << " shards";
  }
}

struct FaultRunResult {
  std::vector<std::string> records;               ///< one line per FaultRecord
  std::map<std::string, std::uint64_t> messages;  ///< controller -> handled
  std::vector<std::string> metrics;  ///< snapshot lines sans wall-clock series
};

/// Serializes a metric sample with full precision; doubles print as %.17g so
/// any run-to-run divergence (even 1 ulp) breaks the comparison.
std::string sample_line(const obs::MetricSample& s) {
  char num[64];
  std::string line = s.name;
  for (const auto& [k, v] : s.labels) {
    line += '{';  // built piecewise: GCC 12 -Wrestrict FP on char*+string&&
    line += k;
    line += '=';
    line += v;
    line += '}';
  }
  std::snprintf(num, sizeof num, " c=%llu g=%.17g h=%llu/%.17g",
                (unsigned long long)s.counter_value, s.gauge_value,
                (unsigned long long)s.hist_count, s.hist_sum);
  line += num;
  for (std::uint64_t b : s.bucket_counts) {
    line += ',';
    line += std::to_string(b);
  }
  return line;
}

/// Builds the scenario fresh, binds it to the sharded engine and runs the
/// whole "mixed" fault plan (link flap + switch crash/restart + controller
/// failover + channel impairment) through the recovery coordinator.
/// Everything observable must repeat exactly.
FaultRunResult run_fault_plan() {
  topo::ScenarioParams params = topo::small_scenario_params();
  params.seed = 5;
  auto scenario = topo::build_scenario(params);
  auto& mp = *scenario->mgmt;
  obs::default_registry().reset_values();

  sim::ShardedSimulator engine(mp.natural_shard_count());
  const sim::Duration parent_delay = sim::Duration::millis(5);
  mp.bind_shards(engine, parent_delay);

  faults::RecoveryOptions ropts;
  ropts.parent_link_delay = parent_delay;  // failover rebinds identically
  faults::RecoveryCoordinator coord(*scenario, &engine, ropts);
  coord.harden();
  faults::FaultInjector injector(*scenario, &engine);
  faults::FaultScenario plan = faults::make_fault_plan("mixed", *scenario, 3);
  std::vector<faults::FaultRecord> records = injector.run(plan, coord);
  mp.unbind_shards();

  FaultRunResult r;
  for (const faults::FaultRecord& rec : records) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s L%d msgs=%llu det=%.6f mttr=%.6f flat=%.6f rep=%zu "
                  "fail=%zu rs=%zu dis=%zu bh=%zu pf=%zu vf=%zu",
                  rec.event.str().c_str(), rec.resolved_level,
                  (unsigned long long)rec.recovery_messages, rec.detection_ms,
                  rec.mttr_ms, rec.mttr_flat_ms, rec.repaired, rec.failed,
                  rec.resyncs, rec.bearers_disrupted, rec.blackholed,
                  rec.probe_failures, rec.verify_findings);
    r.records.emplace_back(line);
  }
  for (reca::Controller* c : mp.all_controllers())
    r.messages[c->name()] = c->messages_handled();
  for (const obs::MetricSample& s : obs::default_registry().snapshot()) {
    // The only wall-clock series the fault path touches: standby sync /
    // promotion timing. Everything else must match bit-for-bit.
    if (s.name == "failover_sync_us" || s.name == "failover_promote_us") continue;
    r.metrics.push_back(sample_line(s));
  }
  return r;
}

TEST(ShardDeterminism, FaultPlanEventForEventAcrossRepeatRuns) {
  FaultRunResult baseline = run_fault_plan();
  ASSERT_FALSE(baseline.records.empty());
  FaultRunResult r = run_fault_plan();
  EXPECT_EQ(baseline.records, r.records);
  EXPECT_EQ(baseline.messages, r.messages);
  EXPECT_EQ(baseline.metrics, r.metrics);
}

TEST(ShardDeterminism, RepeatedRunsAreStable) {
  // Same seed, fresh scenario each time: identical everything (guards
  // against iteration-order or uninitialized-state leaks in the engine
  // itself). The full metrics export — every counter the round bumped
  // anywhere in the stack — must be byte-identical.
  for (std::uint64_t seed : {1ull, 3ull}) {
    RoundResult a = run_round(seed, true);
    ASSERT_FALSE(a.messages.empty());
    RoundResult b = run_round(seed, true);
    EXPECT_EQ(a.messages, b.messages) << "seed " << seed;
    EXPECT_EQ(a.links, b.links) << "seed " << seed;
    EXPECT_EQ(a.switches, b.switches) << "seed " << seed;
    EXPECT_EQ(a.metrics_json, b.metrics_json) << "seed " << seed;
  }
}

}  // namespace
}  // namespace softmow
