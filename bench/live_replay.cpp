// Live control-plane replay: a scaled slice of the 48 h trace pushed through
// the *implemented* control plane (not the numeric aggregation of
// Fig. 11/12) — every bearer request, idle/active cycle and handover runs
// the real delegation, translation and teardown machinery, and the data
// plane is audited end to end afterwards.
//
// This validates the bridge between the trace-driven simulation benches and
// the implementation: delegation rates, mediation levels, rule churn and a
// clean audit under trace-shaped load.
//
// Observability: the replay_* counters are sampled into the default
// TimeSeriesRecorder once per replayed minute (the diurnal curves of
// `--metrics-json`/`--bench-json`), a load-proportional discovery phase then
// runs on the sharded engine (per-shard profile under `--profile`), and the
// report carries a speedup-over-real-time headline (simulated span / wall).
#include "bench/common.h"
#include "bench/report.h"
#include "obs/timeseries.h"

namespace softmow::bench {
namespace {

constexpr std::size_t kReplayMinutes = 6 * 60;

/// Schedules discovery rounds on the engine *after* the replayed window
/// (sim minutes kReplayMinutes..2*kReplayMinutes), one batch per 15-minute
/// bin, each leaf's round count proportional to its share of the bin's
/// bearer arrivals — so the per-shard profile shows the trace's diurnal
/// region skew, and the window-barrier sampler extends the recorded series.
void schedule_diurnal_load(sim::ShardedSimulator& engine, topo::Scenario& scenario) {
  const topo::LteTrace& trace = scenario.trace;
  auto& mp = *scenario.mgmt;
  for (std::size_t minute = 0; minute < std::min(kReplayMinutes, trace.bins.size());
       minute += 15) {
    const topo::TraceBin& bin = trace.bins[minute];
    std::vector<std::uint64_t> arrivals(scenario.partition.group_regions.size(), 0);
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < scenario.partition.group_regions.size(); ++r) {
      for (BsGroupId group : scenario.partition.group_regions[r]) {
        auto gi = trace.group_index.find(group);
        if (gi == trace.group_index.end()) continue;
        arrivals[r] += bin.bearer_arrivals[gi->second];
      }
      total += arrivals[r];
    }
    for (std::size_t r = 0; r < arrivals.size(); ++r) {
      reca::Controller* leaf = &mp.leaf(r);
      std::uint64_t rounds =
          1 + (total > 0 ? (4 * arrivals[r] + total / 2) / total : 0);
      for (std::uint64_t round = 0; round < rounds; ++round) {
        engine.schedule_at(leaf->shard(),
                           sim::TimePoint::zero() +
                               sim::Duration::minutes(static_cast<double>(kReplayMinutes + minute)) +
                               sim::Duration::millis(100.0 * static_cast<double>(round)),
                           [leaf] { leaf->run_link_discovery(); });
      }
    }
  }
}

void print_profile_table(sim::ShardedSimulator& engine) {
  const obs::MetricsRegistry& reg = obs::default_registry();
  TextTable table({"shard", "events", "windows", "bounded"});
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const obs::Labels labels{{"shard", std::to_string(s)}};
    auto counter = [&](const char* name) {
      const obs::Counter* c = reg.find_counter(name, labels);
      return c != nullptr ? c->value() : 0;
    };
    table.add_row({std::to_string(s), std::to_string(counter("profile_events_total")),
                   std::to_string(counter("profile_windows_total")),
                   std::to_string(counter("profile_bounded_windows_total"))});
  }
  std::printf("\nper-shard engine profile (diurnal discovery phase):\n");
  table.print();
}

void run() {
  print_header("Live replay — trace-shaped load through the real control plane",
               "the §7 trace exercises §5's applications end to end");

  topo::ScenarioParams params = topo::small_scenario_params(current_bench_options().seed * 33);
  params.regions = 4;
  params.trace.duration_minutes = kReplayMinutes;
  params.trace.peak_bearers_per_min = 20000;
  params.trace.peak_ue_arrivals_per_min = 1500;
  params.trace.peak_handovers_per_min = 2500;
  auto scenario = build_scenario_timed(std::move(params));

  // `--scale` sizes the resident UE population: 1.0 parks ~1M UEs in the
  // leaf mobility stores (the paper's trace population, §7.1) before bearer
  // churn runs over them; CI smoke at 0.25 keeps a quarter of that. The
  // flat per-UE/per-bearer stores are what make this affordable.
  const double scale = current_bench_options().scale;
  const std::size_t groups = std::max<std::size_t>(scenario->trace.groups.size(), 1);
  const std::size_t ues_per_group = std::max<std::size_t>(
      2, static_cast<std::size_t>(1.0e6 * scale) / groups);

  // Diurnal curves: one point per replayed minute for the load counters,
  // plus the engine's event counter (extended by the engine phase below).
  obs::TimeSeriesRecorder& recorder = obs::default_timeseries();
  recorder.track_counter("replay_bearers_requested_total");
  recorder.track_counter("replay_handovers_requested_total");
  recorder.track_counter("replay_idle_cycles_total");
  recorder.track_gauge("replay_rules_installed");
  recorder.track_counter("sim_events_executed_total");

  topo::TraceDriverParams driver_params;
  driver_params.event_scale = 2e-3;
  driver_params.ues_per_group = ues_per_group;
  driver_params.recorder = &recorder;
  topo::TraceDriver driver(*scenario, driver_params);
  auto report = driver.replay(0, kReplayMinutes);

  std::uint64_t ues_resident = 0;
  for (reca::Controller* leaf : scenario->mgmt->leaves())
    ues_resident += scenario->apps->mobility(*leaf).ue_count();

  TextTable table({"metric", "value"});
  table.add_row({"minutes replayed", std::to_string(report.minutes_replayed)});
  table.add_row({"UEs resident", std::to_string(ues_resident)});
  table.add_row({"bearer requests", std::to_string(report.bearers_requested)});
  table.add_row({"bearer failures", std::to_string(report.bearers_failed)});
  table.add_row({"idle/active cycles", std::to_string(report.idle_cycles)});
  table.add_row({"handover requests", std::to_string(report.handovers_requested)});
  table.add_row({"handover failures", std::to_string(report.handovers_failed)});
  for (const auto& [level, count] : report.handovers_by_level) {
    table.add_row({"handovers mediated at level " + std::to_string(level),
                   std::to_string(count)});
  }
  table.add_row({"rules installed at end", std::to_string(report.rules_at_end)});

  // Delegation split across the hierarchy.
  std::uint64_t local = 0, delegated = 0;
  for (reca::Controller* leaf : scenario->mgmt->leaves()) {
    const auto& stats = scenario->apps->mobility(*leaf).stats();
    local += stats.bearers_local;
    delegated += stats.bearers_delegated;
  }
  table.add_row({"bearers served leaf-locally", std::to_string(local)});
  table.add_row({"bearers delegated upward", std::to_string(delegated)});
  table.print();

  auto audit = mgmt::audit_data_plane(scenario->net);
  std::printf("\naudit: %zu live classifiers probed, %zu delivered, %zu label "
              "violations -> %s\n",
              audit.classifiers_probed, audit.delivered, audit.label_violations,
              audit.clean() ? "CLEAN" : "FINDINGS");
  maybe_verify(*scenario, "static verify");

  // Engine-driven diurnal discovery phase: the part the shard profiler
  // attributes.
  std::uint64_t alloc_fresh = 0, alloc_recycled = 0;
  {
    ShardedRun sharded(*scenario);
    sim::ShardedSimulator& engine = sharded.engine();
    engine.set_sampler(&recorder);
    schedule_diurnal_load(engine, *scenario);
    std::uint64_t engine_events = engine.run();
    alloc_fresh = engine.alloc_fresh_total();
    alloc_recycled = engine.alloc_recycled_total();
    std::printf("\nengine diurnal phase: %llu events in %llu windows over %zu shards "
                "(%llu fresh event slots, %llu recycled)\n",
                static_cast<unsigned long long>(engine_events),
                static_cast<unsigned long long>(engine.windows_executed()),
                engine.shard_count(), static_cast<unsigned long long>(alloc_fresh),
                static_cast<unsigned long long>(alloc_recycled));
    if (engine.profiling()) print_profile_table(engine);
    engine.set_sampler(nullptr);
  }

  // Wall-normalized headline: how much faster than real time the replayed
  // trace window ran end to end.
  set_replayed_sim_duration(sim::Duration::minutes(static_cast<double>(kReplayMinutes)));
  add_headline({"replay_bearers_requested", static_cast<double>(report.bearers_requested),
                "bearers", /*higher_is_better=*/true, kCountTolerance, /*gate=*/true});
  add_headline({"replay_handovers_requested", static_cast<double>(report.handovers_requested),
                "handovers", /*higher_is_better=*/true, kCountTolerance, /*gate=*/true});
  // Event-arena health (satellite of the memory overhaul): fresh slot
  // allocations are the pool's high-water mark — flat across a steady-state
  // window, so growth past tolerance means the recycler regressed. Both are
  // deterministic counts (per-shard pools, fixed op sequence).
  add_headline({"sim_alloc_fresh", static_cast<double>(alloc_fresh), "slots",
                /*higher_is_better=*/false, kCountTolerance, /*gate=*/true});
  add_headline({"sim_alloc_recycled", static_cast<double>(alloc_recycled), "events",
                /*higher_is_better=*/true, kCountTolerance, /*gate=*/true});
  std::printf("takeaway: trace-shaped load runs through §5.1/§5.2 unmodified — most "
              "bearers resolve at the leaves, the remainder climbs exactly as far as its "
              "QoS requires, and every installed path still delivers with at most one "
              "label on the wire.\n");
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
