// Property: a migration workload — a full planned cycle, an abort drill,
// and two continuous re-homing steps, with discovery traffic riding the
// sharded engine throughout — is byte-identical on every repeated run: same
// migration records (timings to the last ulp), same controller message
// counts, same placements, same metrics export.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "softmow/softmow.h"

namespace softmow {
namespace {

struct MigrationRunResult {
  std::vector<std::string> records;       ///< one line per MigrationRecord
  std::vector<std::string> placements;    ///< final site/rtt per leaf
  std::map<std::string, std::uint64_t> messages;  ///< controller -> handled
  std::vector<std::string> metrics;  ///< snapshot lines sans wall-clock series
};

/// Full-precision serialization: doubles print as %.17g so a single-ulp
/// divergence between runs breaks the comparison.
std::string record_line(const migrate::MigrationRecord& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%zu %s -> %s %s dev=%zu rounds=%d bs=%llu bd=%llu "
                "snap=%.17g catch=%.17g flip=%.17g drain=%.17g dis=%.17g",
                r.leaf, r.leaf_name.c_str(), r.placement.site.c_str(),
                migrate::phase_name(r.final_phase), r.devices, r.catchup_rounds,
                (unsigned long long)r.bytes_snapshot, (unsigned long long)r.bytes_delta,
                r.snapshot_ms, r.catchup_ms, r.flip_ms, r.drain_ms, r.disruption_ms);
  return buf;
}

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
/// whole migration workload. Everything observable must repeat exactly.
/// `threads` is passed as `Options::threads`, which the engine ignores.
MigrationRunResult run_migration_plan(std::size_t threads = 1) {
  topo::ScenarioParams params = topo::small_scenario_params();
  params.seed = 7;
  auto scenario = topo::build_scenario(params);
  auto& mp = *scenario->mgmt;
  obs::default_registry().reset_values();

  sim::ShardedSimulator::Options opts;
  opts.threads = threads;
  sim::ShardedSimulator engine(mp.natural_shard_count(), opts);
  mp.bind_shards(engine, sim::Duration::millis(5));

  migrate::MigrationManager mgr(*scenario);

  // Concurrent engine traffic: discovery rounds queued on every leaf shard,
  // drained at the next migration barrier.
  for (reca::Controller* leaf : mp.leaves())
    engine.schedule(leaf->shard(), sim::Duration::millis(1),
                    [leaf] { leaf->run_link_discovery(); });

  const sim::TimePoint t0 = sim::TimePoint::zero();
  auto planned = mgr.migrate_leaf(0, {"dc-east", sim::Duration::millis(6)},
                                  t0 + sim::Duration::minutes(1));
  EXPECT_TRUE(planned.ok());

  // Abort drill on another leaf, mid catch-up.
  EXPECT_TRUE(mgr.begin(1 % mp.leaf_count(), {"dc-west", sim::Duration::millis(9)},
                        t0 + sim::Duration::minutes(2))
                  .ok());
  EXPECT_TRUE(mgr.stream_snapshot().ok());
  EXPECT_TRUE(mgr.catch_up().ok());
  EXPECT_TRUE(mgr.abort("drill").ok());

  // Two continuous re-homing windows: a surge on leaf 2, then the ebb.
  migrate::ContinuousRehoming loop(*scenario, mgr);
  std::vector<double> surge(mp.leaf_count(), 1.0);
  surge[2 % mp.leaf_count()] = 8.0;
  EXPECT_TRUE(loop.step(surge, t0 + sim::Duration::minutes(3)).ok());
  std::vector<double> ebb(mp.leaf_count(), 2.0);
  ebb[2 % mp.leaf_count()] = 0.5;
  EXPECT_TRUE(loop.step(ebb, t0 + sim::Duration::minutes(4)).ok());
  mp.unbind_shards();

  MigrationRunResult r;
  for (const migrate::MigrationRecord& rec : mgr.records())
    r.records.push_back(record_line(rec));
  for (std::size_t i = 0; i < mp.leaf_count(); ++i) {
    const mgmt::LeafPlacement& p = mp.leaf_placement(i);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%zu %s rtt=%.17g", i, p.site.c_str(),
                  p.control_rtt.to_millis());
    r.placements.emplace_back(buf);
  }
  for (reca::Controller* c : mp.all_controllers())
    r.messages[c->name()] = c->messages_handled();
  for (const obs::MetricSample& s : obs::default_registry().snapshot()) {
    // The only wall-clock series this path can touch (standby sync timing);
    // everything else must match bit-for-bit.
    if (s.name == "failover_sync_us" || s.name == "failover_promote_us") continue;
    r.metrics.push_back(sample_line(s));
  }
  return r;
}

TEST(MigrationDeterminism, WorkloadByteIdenticalAcrossThreadCounts) {
  // Options::threads is still accepted (the benchmark driver sets it) but the
  // shards always run on the calling thread, so no value may change a byte.
  MigrationRunResult baseline = run_migration_plan(1);
  ASSERT_EQ(baseline.records.size(), 5u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    MigrationRunResult r = run_migration_plan(threads);
    EXPECT_EQ(baseline.records, r.records) << threads << " threads";
    EXPECT_EQ(baseline.placements, r.placements) << threads << " threads";
    EXPECT_EQ(baseline.messages, r.messages) << threads << " threads";
    EXPECT_EQ(baseline.metrics, r.metrics) << threads << " threads";
  }
}

TEST(MigrationDeterminism, RepeatedRunsAreStable) {
  // Fresh scenario each time: identical everything (guards against leaked
  // state in the manager or the standby-session plumbing).
  MigrationRunResult a = run_migration_plan();
  // planned + abort drill + surge window (leaf 0 consolidates back to core,
  // leaf 2 re-homes out) + ebb window (leaf 2 returns).
  ASSERT_EQ(a.records.size(), 5u);
  MigrationRunResult b = run_migration_plan();
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.metrics, b.metrics);
}

}  // namespace
}  // namespace softmow
