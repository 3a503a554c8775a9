// Live controller migration — planned re-homing vs naive failover (§5.3/§6).
//
// Runs one planned MigrationManager cycle per hierarchy level (2-level and
// 3-level scenarios) with liveness probes in flight: the source keeps
// serving through the dual-control window, the flip happens at a barrier,
// and the disruption window is compared against the modeled MTTR of the
// naive alternative (crash-detect + hot-standby promotion via
// RecoveryCoordinator). An abort drill proves rollback leaves the source
// untouched, and a continuous phase drives ContinuousRehoming from
// diurnally rotating trace load until leaves re-home on their own.
//
// Deterministic by construction: every phase lands at an engine barrier,
// all durations are modeled (checkpoint bytes over a stream rate, RTTs,
// queueing stations).
//
//   $ ./migration
//   $ ./migration --scale 0.25 --faults link-flap   # migrate-under-chaos
#include <algorithm>
#include <set>

#include "bench/common.h"
#include "bench/report.h"
#include "obs/timeseries.h"

namespace softmow::bench {
namespace {

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", ms);
  return buf;
}

std::string fmt_x(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", x);
  return buf;
}

/// Same probe idiom as bench/fault_recovery: a few live bearers per region
/// whose uplink flows are re-injected around the migration to prove zero
/// data-plane disruption.
void attach_probes(topo::Scenario& scenario, faults::RecoveryCoordinator& coord) {
  auto& mp = *scenario.mgmt;
  std::uint64_t next_ue = 90001;  // clear of any other UE population
  for (const auto& region : scenario.partition.group_regions) {
    std::size_t added = 0;
    for (BsGroupId group : region) {
      if (added >= 3) break;
      const auto* bs_group = scenario.net.bs_group(group);
      reca::Controller* leaf = mp.leaf_of_group(group);
      if (bs_group == nullptr || bs_group->members.empty() || leaf == nullptr) continue;
      BsId bs = bs_group->members.front();
      apps::MobilityApp& mobility = scenario.apps->mobility(*leaf);
      UeId ue{next_ue++};
      if (!mobility.ue_attach(ue, bs).ok()) continue;
      apps::BearerRequest request;
      request.ue = ue;
      request.bs = bs;
      request.dst_prefix = PrefixId{17};
      if (!mobility.request_bearer(request).ok()) {
        (void)mobility.ue_detach(ue);
        continue;
      }
      coord.add_probe({ue, bs, request.dst_prefix});
      ++added;
    }
  }
}

struct LevelResult {
  std::string level;
  migrate::MigrationRecord planned;
  double naive_mttr_ms = 0;
  std::size_t probes_in_window = 0;   ///< probe failures during dual control
  std::size_t probe_failures = 0;     ///< probe failures after the cycle
  std::size_t verify_findings = 0;    ///< post-flip static verifier findings
  std::size_t rehomings = 0;          ///< continuous phase (L2 only)
  std::uint64_t checkpoint_bytes = 0; ///< failover delta-sync bytes (satellite)
};

/// One window of the continuous phase: per-region bearer arrivals from the
/// trace bin at the window start, with the diurnal peak rotated across
/// regions (timezone skew) so the hot region moves over the replay.
std::vector<double> window_loads(topo::Scenario& scenario, std::size_t window) {
  const topo::LteTrace& trace = scenario.trace;
  const std::size_t regions = scenario.partition.group_regions.size();
  std::vector<double> load(regions, 1.0);
  const std::size_t minute =
      trace.bins.empty() ? 0 : std::min(window * 90, trace.bins.size() - 1);
  if (!trace.bins.empty()) {
    const topo::TraceBin& bin = trace.bins[minute];
    for (std::size_t r = 0; r < regions; ++r) {
      for (BsGroupId group : scenario.partition.group_regions[r]) {
        auto gi = trace.group_index.find(group);
        if (gi == trace.group_index.end()) continue;
        load[r] += static_cast<double>(bin.bearer_arrivals[gi->second]);
      }
    }
  }
  load[window % regions] *= 3.0;  // rotating peak
  return load;
}

std::size_t run_continuous(topo::Scenario& scenario, sim::ShardedSimulator& engine,
                           migrate::MigrationManager& manager) {
  auto& mp = *scenario.mgmt;
  migrate::RehomingPolicy policy;
  policy.max_moves_per_step = 2;
  migrate::ContinuousRehoming loop(scenario, manager, policy);
  constexpr std::size_t kWindows = 4;

  std::printf("\n--- continuous re-homing (diurnal replay, %zu x 90 min windows) ---\n",
              kWindows);
  TextTable table({"window", "hot region", "moves", "placements"});
  for (std::size_t w = 0; w < kWindows; ++w) {
    std::vector<double> load = window_loads(scenario, w);
    double total = 0;
    for (double l : load) total += l;
    // Discovery load proportional to each region's share rides the engine
    // during the window, so migrations race real shard traffic.
    sim::TimePoint window_start =
        sim::TimePoint::zero() + sim::Duration::minutes(60.0 + 90.0 * static_cast<double>(w));
    for (std::size_t r = 0; r < mp.leaf_count(); ++r) {
      reca::Controller* leaf = &mp.leaf(r);
      auto rounds = static_cast<std::uint64_t>(1.0 + 3.0 * load[r] / total * 4.0);
      for (std::uint64_t round = 0; round < rounds; ++round) {
        engine.schedule_at(leaf->shard(),
                           window_start + sim::Duration::millis(100.0 * static_cast<double>(round)),
                           [leaf] { leaf->run_link_discovery(); });
      }
    }
    auto moved = loop.step(load, window_start);
    if (!moved.ok()) {
      std::printf("window %zu: re-homing step failed: %s\n", w,
                  moved.error().message.c_str());
      continue;
    }
    std::string placements;
    for (std::size_t i = 0; i < mp.leaf_count(); ++i) {
      if (!placements.empty()) placements += " ";
      placements += mp.leaf_placement(i).site;
    }
    table.add_row({std::to_string(w), std::to_string(w % mp.leaf_count()),
                   std::to_string(*moved), placements});
  }
  table.print();
  return static_cast<std::size_t>(loop.rehomings());
}

/// The migrate-under-chaos drill: open a cycle, let a fault plan run inside
/// the dual-control window, pick up the fault-induced delta with one more
/// catch-up round, then flip. Returns post-flip verifier findings.
std::size_t run_chaos(topo::Scenario& scenario, sim::ShardedSimulator& engine,
                      migrate::MigrationManager& manager,
                      faults::RecoveryCoordinator& coord, const std::string& plan_name) {
  auto& mp = *scenario.mgmt;
  faults::FaultScenario plan =
      faults::make_fault_plan(plan_name, scenario, current_bench_options().fault_seed);
  if (plan.events.empty()) {
    std::printf("chaos: unknown or empty fault plan '%s', skipping\n", plan_name.c_str());
    return 0;
  }
  const std::size_t leaf = 1 % mp.leaf_count();
  std::printf("\n--- migrate-under-chaos: plan '%s' races the dual-control window ---\n",
              plan.name.c_str());
  sim::TimePoint at = sim::TimePoint::zero() + sim::Duration::minutes(30.0);
  if (auto r = manager.begin(leaf, {"dc-chaos", sim::Duration::millis(8)}, at); !r.ok()) {
    std::printf("chaos: begin failed: %s\n", r.error().message.c_str());
    return 0;
  }
  (void)manager.stream_snapshot();
  (void)manager.catch_up();  // pre-warm + first delta, window now open

  faults::FaultInjector injector(scenario, &engine);
  std::vector<faults::FaultRecord> records = injector.run(plan, coord);
  std::printf("chaos: %zu faults recovered while leaf %s was dual-controlled\n",
              records.size(), mp.leaf(leaf).name().c_str());

  while (manager.phase() == migrate::Phase::kCatchUp) (void)manager.catch_up();
  (void)manager.flip();
  (void)manager.drain();
  const migrate::MigrationRecord& rec = manager.records().back();
  verify::VerifyReport report = mp.verify_data_plane();
  std::printf("chaos: migration completed under faults (%d catch-up rounds, "
              "%llu delta bytes), %zu verify findings\n",
              rec.catchup_rounds, (unsigned long long)rec.bytes_delta,
              report.findings.size());
  return report.findings.size();
}

LevelResult run_level(const std::string& label, bool with_mid, bool continuous) {
  const BenchOptions& opts = current_bench_options();
  LevelResult out;
  out.level = label;

  topo::ScenarioParams params = paper_scale_params();
  params.with_mid_level = with_mid;
  auto scenario = build_scenario_timed(std::move(params));
  auto& mp = *scenario->mgmt;

  ShardedRun sharded(*scenario);
  faults::RecoveryCoordinator coord(*scenario, &sharded.engine());
  coord.harden();
  attach_probes(*scenario, coord);
  const std::size_t baseline_failures = coord.probe_failures();

  migrate::MigrationOptions mopts;
  mopts.recorder = &obs::default_timeseries();
  migrate::MigrationManager manager(*scenario, &sharded.engine(), mopts);

  std::printf("\n[%s] %zu leaves, %zu baseline probe failures\n", label.c_str(),
              mp.leaf_count(), baseline_failures);

  // --- planned migration with probes in flight ------------------------------
  const mgmt::LeafPlacement site{"dc-east", sim::Duration::millis(6)};
  sim::TimePoint at = sim::TimePoint::zero() + sim::Duration::minutes(1.0);
  if (auto r = manager.begin(0, site, at); !r.ok()) {
    std::printf("begin failed: %s\n", r.error().message.c_str());
    return out;
  }
  (void)manager.stream_snapshot();
  (void)manager.catch_up();  // pre-warm: dual control is now established
  out.probes_in_window = coord.probe_failures();  // source still serves
  while (manager.phase() == migrate::Phase::kCatchUp) (void)manager.catch_up();
  (void)manager.flip();
  (void)manager.drain();
  out.planned = manager.records().back();
  out.probe_failures = coord.probe_failures();
  out.verify_findings = mp.verify_data_plane().findings.size();

  // --- abort drill: rollback leaves the source untouched --------------------
  (void)manager.begin(0, {"dc-west", sim::Duration::millis(9)}, at + sim::Duration::minutes(1.0));
  (void)manager.stream_snapshot();
  (void)manager.catch_up();
  (void)manager.abort("drill");
  const std::size_t post_abort_failures = coord.probe_failures();
  std::printf("abort drill: cycle aborted mid-catch-up, %zu probe failures after "
              "rollback (%zu aborted cycles on record)\n",
              post_abort_failures, manager.aborted());

  // --- naive baseline: crash-detect + hot-standby promotion -----------------
  sim::TimePoint crash_at = sim::TimePoint::zero() + sim::Duration::minutes(2.0);
  coord.checkpoint(crash_at);
  faults::FaultEvent crash;
  crash.at = crash_at;
  crash.kind = faults::FaultKind::kControllerCrash;
  crash.leaf = 1 % mp.leaf_count();
  if (auto rec = coord.execute(crash)) out.naive_mttr_ms = rec->mttr_ms;

  // Satellite: the failover standby now syncs deltas over the shared
  // checkpoint format; surface its last incremental cost.
  mgmt::HotStandby probe_standby(mp.leaf(0), mp.hub());
  probe_standby.sync(crash_at + sim::Duration::minutes(1.0));
  out.checkpoint_bytes = probe_standby.last_sync_bytes();

  if (continuous) {
    out.rehomings = run_continuous(*scenario, sharded.engine(), manager);
    if (!opts.faults.empty())
      out.verify_findings += run_chaos(*scenario, sharded.engine(), manager, coord,
                                       opts.faults);
    out.probe_failures = coord.probe_failures();
  }
  maybe_verify(*scenario, label.c_str());
  return out;
}

void run() {
  print_header("Live migration — planned re-homing vs naive failover",
               "§5.3: reconfiguration moves control without touching the data "
               "plane; a planned flip pays only the switchover window while "
               "naive failover pays detection + promotion on top");

  obs::TimeSeriesRecorder& recorder = obs::default_timeseries();
  recorder.track_counter("migration_bytes_transferred");
  recorder.track_counter("failover_checkpoint_bytes_total");
  for (const char* phase : {"snapshot", "catchup", "flip", "drain"})
    recorder.track_quantile("migration_ms", 0.95, {{"phase", phase}});
  recorder.track_quantile("migration_disruption_ms", 0.95);
  recorder.track_quantile("recovery_ms", 0.95, {{"kind", "controller-crash"}});

  std::vector<LevelResult> results;
  results.push_back(run_level("L2 (leaves under root)", /*with_mid=*/false,
                              /*continuous=*/true));
  results.push_back(run_level("L3 (mid level)", /*with_mid=*/true,
                              /*continuous=*/false));

  std::printf("\n--- planned migration vs naive failover (modeled, per level) ---\n");
  TextTable table({"hierarchy", "devices", "snapshot ms", "catchup ms", "bytes",
                   "disruption ms", "naive MTTR ms", "advantage"});
  for (const LevelResult& r : results) {
    double adv = r.planned.disruption_ms > 0 ? r.naive_mttr_ms / r.planned.disruption_ms : 0;
    table.add_row({r.level, std::to_string(r.planned.devices),
                   fmt_ms(r.planned.snapshot_ms), fmt_ms(r.planned.catchup_ms),
                   std::to_string(r.planned.bytes_total()),
                   fmt_ms(r.planned.disruption_ms), fmt_ms(r.naive_mttr_ms),
                   fmt_x(adv)});
  }
  table.print();

  std::size_t probe_failures = 0, verify_findings = 0, window_failures = 0;
  for (const LevelResult& r : results) {
    probe_failures += r.probe_failures;
    verify_findings += r.verify_findings;
    window_failures += r.probes_in_window;
  }
  std::printf("\nprobes failing during dual control: %zu\n", window_failures);
  std::printf("probes failing after migration: %zu\n", probe_failures);
  std::printf("post-flip verify findings: %zu\n", verify_findings);
  std::printf("continuous re-homings over diurnal replay: %zu\n", results[0].rehomings);
  std::printf("failover delta-sync bytes (shared checkpoint format): %llu\n",
              (unsigned long long)results[0].checkpoint_bytes);

  add_headline({"migration_disruption_ms", results[0].planned.disruption_ms, "ms",
                /*higher_is_better=*/false, kCountTolerance, /*gate=*/true});
  add_headline({"migration_bytes_transferred",
                static_cast<double>(results[0].planned.bytes_total()), "bytes",
                /*higher_is_better=*/false, kCountTolerance, /*gate=*/true});
  add_headline({"continuous_rehomings", static_cast<double>(results[0].rehomings),
                "moves", /*higher_is_better=*/true, kCountTolerance, /*gate=*/true});
  add_headline({"naive_failover_ms", results[0].naive_mttr_ms, "ms",
                /*higher_is_better=*/false, kCountTolerance, /*gate=*/false});
  std::printf("takeaway: a planned flip at a window barrier re-homes a whole leaf "
              "for the cost of the switchover alone — the checkpoint streams and "
              "sessions pre-warm while the source still serves, so bearers never "
              "notice, at every hierarchy level.\n");
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
