// Slicing — multi-tenant rule compression and isolation.
//
// N virtual operators share the physical WAN, each with its own subscriber
// population, bearer mix and budget share. Three questions, three sections:
//
//  1. Rule compression: SoftCell-style policy tags (slice x clause x egress
//     aggregate share one transit rule) against the paper's §4.3 per-path
//     label swapping, swept over 1/2/4/8 slices. Tags must win at >= 4
//     slices — transit state scales with aggregates, not bearers.
//  2. Per-slice bearer-setup latency under skewed load (slice 0 offers ~4x
//     the bearers of the others), modeled through the §7.3 queueing stations
//     of the controllers that handled each setup — never wall clock.
//  3. Isolation: the static verifier (slice-annotated) and the rule/probe
//     audit must report zero cross-tenant violations; a forged rogue
//     classifier must be flagged with its exact (switch, cookie, slice)
//     triple and the self-healing plane must remove it again.
//
//   $ ./slicing --encap tags --slices 4
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "mgmt/audit.h"

namespace softmow::bench {
namespace {

using slice::EncapMode;
using slice::SliceManager;
using slice::SliceSpec;

/// Canonical tenant templates, cycled when more slices are requested.
std::vector<SliceSpec> tenant_templates() {
  std::vector<SliceSpec> specs(4);
  specs[0].name = "broadband";
  specs[0].tier = apps::SubscriberClass::kPremium;
  specs[0].bearer_mix = {apps::ApplicationClass::kVideo, apps::ApplicationClass::kDefault};
  specs[1].name = "iot";
  specs[1].tier = apps::SubscriberClass::kBasic;
  specs[1].bearer_mix = {apps::ApplicationClass::kDefault};
  specs[2].name = "voice";
  specs[2].tier = apps::SubscriberClass::kBasic;
  specs[2].bearer_mix = {apps::ApplicationClass::kVoip};
  specs[3].name = "enterprise";
  specs[3].tier = apps::SubscriberClass::kPremium;
  specs[3].bearer_mix = {apps::ApplicationClass::kBulk, apps::ApplicationClass::kVideo};
  return specs;
}

struct RuleCount {
  std::size_t total = 0;
  std::size_t max_per_switch = 0;
};

RuleCount count_rules(dataplane::PhysicalNetwork& net) {
  RuleCount rc;
  for (SwitchId sw_id : net.all_switches()) {
    const dataplane::Switch* sw = net.sw(sw_id);
    if (sw == nullptr) continue;
    std::size_t n = sw->table().rules().size();
    rc.total += n;
    if (n > rc.max_per_switch) rc.max_per_switch = n;
  }
  return rc;
}

/// Registers `n` tenants, provisions their subscribers and opens each
/// slice's bearers (round-robin over destinations). `skew_first` gives
/// slice 0 four times the bearer load of the others.
std::unique_ptr<SliceManager> build_tenants(topo::Scenario& scenario, EncapMode mode,
                                            std::size_t n, std::size_t subs_per_slice,
                                            std::size_t bearers_per_slice,
                                            bool skew_first) {
  SliceManager::Options mgr_opts;
  mgr_opts.encap = mode;
  mgr_opts.seed = current_bench_options().seed;
  auto mgr = std::make_unique<SliceManager>(scenario, mgr_opts);

  std::vector<SliceSpec> templates = tenant_templates();
  for (std::size_t i = 0; i < n; ++i) {
    SliceSpec spec = templates[i % templates.size()];
    if (i >= templates.size()) {
      spec.name += '-';
      spec.name += std::to_string(i / templates.size());
    }
    spec.share = 1.0 / static_cast<double>(n);
    auto id = mgr->add_slice(spec);
    if (!id.ok()) {
      std::fprintf(stderr, "add_slice(%s): %s\n", spec.name.c_str(),
                   id.error().message.c_str());
      std::exit(1);
    }
    (void)mgr->provision(*id, subs_per_slice);
  }

  for (SliceId id : mgr->slices()) {
    std::size_t want = bearers_per_slice;
    if (skew_first && id.value == 0) want *= 4;
    const std::vector<UeId>& subs = mgr->subscribers(id);
    if (subs.empty()) continue;
    for (std::size_t b = 0; b < want; ++b) {
      UeId ue = subs[b % subs.size()];
      PrefixId dst{(b * 7 + id.value) % 50 + 1};
      (void)mgr->open_bearer(id, ue, dst);
    }
  }
  return mgr;
}

std::string fmt_pct(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", x);
  return buf;
}

/// Section 1 — transit-state compression, tags vs labels at 1/2/4/8 slices.
void run_compression_sweep(std::size_t subs_per_slice, std::size_t bearers_per_slice) {
  std::printf("\n--- rule-table compression: policy tags vs §4.3 labels ---\n");
  TextTable table({"slices", "bearers", "labels rules", "tags rules", "saved",
                   "labels max/sw", "tags max/sw"});
  obs::MetricsRegistry& reg = obs::default_registry();

  for (std::size_t n : {1, 2, 4, 8}) {
    std::size_t baseline = 0;
    std::uint64_t bearers = 0;
    RuleCount by_mode[2];
    for (EncapMode mode : {EncapMode::kLabels, EncapMode::kTags}) {
      auto scenario = build_scenario_timed(paper_scale_params());
      baseline = count_rules(scenario->net).total;
      auto mgr = build_tenants(*scenario, mode, n, subs_per_slice,
                               bearers_per_slice, /*skew_first=*/false);
      RuleCount rc = count_rules(scenario->net);
      rc.total -= baseline;  // bootstrap rules are encap-independent
      by_mode[mode == EncapMode::kTags ? 1 : 0] = rc;
      if (mode == EncapMode::kTags) {
        bearers = 0;
        for (SliceId id : mgr->slices()) bearers += mgr->stats(id).bearers_admitted;
      }
      reg.gauge("slicing_rules_installed",
                {{"encap", slice::to_string(mode)}, {"slices", std::to_string(n)}})
          ->set(static_cast<double>(rc.total));
    }
    const RuleCount& labels = by_mode[0];
    const RuleCount& tags = by_mode[1];
    double saved = labels.total == 0
                       ? 0.0
                       : 100.0 * (1.0 - static_cast<double>(tags.total) /
                                            static_cast<double>(labels.total));
    table.add_row({std::to_string(n), std::to_string(bearers),
                   std::to_string(labels.total), std::to_string(tags.total),
                   fmt_pct(saved), std::to_string(labels.max_per_switch),
                   std::to_string(tags.max_per_switch)});
  }
  table.print();
  std::printf("(rule counts exclude the encap-independent bootstrap state; "
              "'saved' is the tag scheme's reduction in bearer-driven rules)\n");
}

/// Section 2 — per-slice setup latency under skewed load, modeled through
/// per-level queueing stations (§7.3): each admitted bearer queues at the
/// station of the level that handled it plus a 1 ms control-channel RTT per
/// level it climbed.
void run_skewed_load(topo::Scenario& scenario, SliceManager& mgr) {
  std::printf("\n--- per-slice bearer-setup latency under skewed load ---\n");
  std::map<int, sim::QueueingStation> stations;
  auto station_for = [&](int level) -> sim::QueueingStation& {
    auto it = stations.find(level);
    if (it == stations.end()) {
      std::string name = "slice-setup-L";
      name += std::to_string(level);
      it = stations.emplace(level, sim::QueueingStation(sim::Duration::micros(80),
                                                        name, level))
               .first;
    }
    return it->second;
  };

  TextTable table({"slice", "subs", "admitted", "rejected", "mean ms", "p95 ms",
                   "by-level"});
  obs::MetricsRegistry& reg = obs::default_registry();
  sim::TimePoint arrival = sim::TimePoint::zero();
  for (SliceId id : mgr.slices()) {
    slice::SliceStats stats = mgr.stats(id);
    SampleSet latency;
    // Replay this slice's admitted bearers through the stations in the
    // deterministic order the levels recorded them.
    for (const auto& [level, count] : stats.bearers_by_level) {
      for (std::uint64_t i = 0; i < count; ++i) {
        arrival = arrival + sim::Duration::micros(200);
        sim::TimePoint done = station_for(level).submit(arrival);
        sim::Duration climb = sim::Duration::millis(2.0 * (level - 1));
        latency.add((done - arrival + climb).to_millis());
      }
    }
    std::string by_level;
    for (const auto& [level, count] : stats.bearers_by_level) {
      if (!by_level.empty()) by_level += ' ';
      by_level += 'L';
      by_level += std::to_string(level);
      by_level += ':';
      by_level += std::to_string(count);
    }
    table.add_row({stats.name, std::to_string(stats.subscribers),
                   std::to_string(stats.bearers_admitted),
                   std::to_string(stats.bearers_rejected),
                   latency.empty() ? "-" : TextTable::num(latency.mean(), 3),
                   latency.empty() ? "-" : TextTable::num(latency.percentile(95), 3),
                   by_level});
    reg.gauge("slicing_setup_latency_ms_mean", {{"slice", stats.name}})
        ->set(latency.empty() ? 0.0 : latency.mean());
  }
  table.print();
  std::printf("(latency is modeled: queueing at the handling level's station "
              "plus a 1 ms control RTT per level climbed — slice 0 offers 4x "
              "the load but pays only its own queue)\n");
  (void)scenario;
}

void print_slice_audit(const mgmt::SliceAuditReport& report, const char* when) {
  std::printf("%s: %zu rules scanned, %zu probes, %zu tagged hops, %zu violations\n",
              when, report.rules_scanned, report.probes_sent,
              report.tagged_hops_checked, report.findings.size());
  for (const mgmt::SliceAuditFinding& f : report.findings) {
    std::printf("  VIOLATION sw=%s cookie=0x%llx expected slice %llu got %llu\n",
                f.sw.str().c_str(), (unsigned long long)f.cookie,
                (unsigned long long)f.expected.value,
                (unsigned long long)f.found.value);
  }
}

/// Section 3 — isolation invariants, then a forged rogue classifier through
/// the self-healing plane.
void run_isolation(topo::Scenario& scenario, SliceManager& mgr) {
  const BenchOptions& opts = current_bench_options();
  std::printf("\n--- tenant isolation: verifier + rule/probe audit ---\n");
  mgr.install_annotator();
  verify::VerifyReport report = scenario.mgmt->verify_data_plane();
  std::printf("static verifier: %zu findings, %zu isolation violations\n",
              report.findings.size(), report.isolation_violations());

  mgmt::SliceAuditReport audit =
      mgmt::audit_slice_isolation(scenario.net, mgr.ue_slices());
  print_slice_audit(audit, "baseline audit");

  std::size_t baseline_violations = report.isolation_violations() + audit.findings.size();

  // Forge the rogue rule the fault plan would install and prove both
  // detectors pin it to the exact (switch, cookie, slice) triple.
  faults::FaultScenario plan =
      faults::make_fault_plan("rogue-rule", scenario, opts.fault_seed);
  std::size_t detected = 0;
  if (plan.events.empty()) {
    std::printf("rogue-rule plan empty (no tagged classifier — labels mode); "
                "skipping seeded-fault detection\n");
  } else {
    const faults::FaultEvent& ev = plan.events.front();
    dataplane::Switch* sw = scenario.net.sw(ev.sw);
    (void)sw->table().install(ev.rogue);
    mgmt::SliceAuditReport dirty =
        mgmt::audit_slice_isolation(scenario.net, mgr.ue_slices());
    print_slice_audit(dirty, "audit with rogue classifier");
    for (const mgmt::SliceAuditFinding& f : dirty.findings) {
      if (f.sw == ev.sw && f.cookie == ev.rogue.cookie) ++detected;
    }
    std::printf("rogue rule pinned by audit: %s\n", detected > 0 ? "yes" : "NO");
    (void)sw->table().remove_by_cookie(ev.rogue.cookie);

    // Now let the injector install it at an engine barrier and the recovery
    // coordinator detect + remove it through the southbound channel.
    ShardedRun sharded(scenario);
    faults::RecoveryCoordinator coord(scenario, &sharded.engine());
    coord.harden();
    faults::FaultInjector injector(scenario, &sharded.engine());
    std::vector<faults::FaultRecord> records = injector.run(plan, coord);
    for (const faults::FaultRecord& rec : records) {
      std::printf("self-heal: %s repaired=%llu mttr=%.1fms\n",
                  rec.event.str().c_str(), (unsigned long long)rec.repaired,
                  rec.mttr_ms);
    }
  }

  // Optional chaos phase: run any requested fault plan (e.g. --faults mixed)
  // with the tenants live, then require the isolation SLO to survive it. A
  // controller failover replaces a leaf instance, so the tag-allocator
  // wiring is reapplied before re-auditing.
  if (!opts.faults.empty() && opts.faults != "rogue-rule") {
    faults::FaultScenario chaos =
        faults::make_fault_plan(opts.faults, scenario, opts.fault_seed);
    if (chaos.events.empty()) {
      std::fprintf(stderr, "unknown or empty fault plan '%s'; known plans:",
                   opts.faults.c_str());
      for (const auto& name : faults::fault_plan_names())
        std::fprintf(stderr, " %s", name.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    ShardedRun sharded(scenario);
    faults::RecoveryCoordinator coord(scenario, &sharded.engine());
    coord.harden();
    faults::FaultInjector injector(scenario, &sharded.engine());
    std::vector<faults::FaultRecord> records = injector.run(chaos, coord);
    mgr.rewire_encapsulation();
    std::printf("chaos plan '%s': %zu faults injected, %zu recoveries\n",
                chaos.name.c_str(), chaos.events.size(), records.size());
  }

  mgmt::SliceAuditReport healed =
      mgmt::audit_slice_isolation(scenario.net, mgr.ue_slices());
  print_slice_audit(healed, "post-recovery audit");
  verify::VerifyReport after = scenario.mgmt->verify_data_plane();
  std::size_t residual = after.isolation_violations() + healed.findings.size();

  obs::MetricsRegistry& reg = obs::default_registry();
  reg.gauge("slicing_isolation_violations", {{"phase", "baseline"}})
      ->set(static_cast<double>(baseline_violations));
  reg.gauge("slicing_isolation_violations", {{"phase", "post-recovery"}})
      ->set(static_cast<double>(residual));
  reg.gauge("slicing_rogue_detected", {})->set(static_cast<double>(detected));

  if (baseline_violations != 0 || residual != 0) {
    std::fprintf(stderr, "ISOLATION FAILURE: baseline=%zu residual=%zu\n",
                 baseline_violations, residual);
    std::exit(1);
  }
  if (!plan.events.empty() && detected == 0) {
    std::fprintf(stderr, "ISOLATION FAILURE: rogue classifier not detected\n");
    std::exit(1);
  }
  std::printf("isolation SLO held: zero cross-tenant violations before and "
              "after the rogue-classifier fault\n");
}

void run() {
  const BenchOptions& opts = current_bench_options();
  print_header("Multi-tenant slicing — tag aggregation and isolation",
               "SoftCell-style policy tags let transit rules scale with "
               "(slice x clause x aggregate), not with bearers; recursive "
               "label translation carries them unchanged (§4.3)");

  double f = opts.scale < 1.0 ? opts.scale : 1.0;
  auto scaled = [f](std::size_t n, std::size_t floor_at) {
    auto s = static_cast<std::size_t>(static_cast<double>(n) * f);
    return s < floor_at ? floor_at : s;
  };
  std::size_t subs_per_slice = scaled(24, 8);
  std::size_t bearers_per_slice = scaled(48, 12);

  run_compression_sweep(subs_per_slice, bearers_per_slice);

  // Sections 2+3 share one scenario at the requested --encap/--slices, with
  // slice 0 under 4x load.
  EncapMode mode = opts.encap == "labels" ? EncapMode::kLabels : EncapMode::kTags;
  auto scenario = build_scenario_timed(paper_scale_params());
  auto mgr = build_tenants(*scenario, mode, opts.slices, subs_per_slice,
                           bearers_per_slice, /*skew_first=*/true);
  std::printf("\nactive scenario: %zu slices, encap=%s\n", opts.slices,
              slice::to_string(mode));

  run_skewed_load(*scenario, *mgr);

  // maybe_verify (--verify) should also see the tenant map.
  SliceManager* raw = mgr.get();
  set_verify_annotator([raw](verify::ControlState& state) {
    state.have_slices = true;
    state.ue_slices = raw->ue_slices();
  });
  run_isolation(*scenario, *mgr);
  maybe_verify(*scenario, "slicing");
  set_verify_annotator(nullptr);

  std::printf("\ntakeaway: tenants share the WAN but not rule state or tag "
              "space — tag aggregation compresses transit tables as slices "
              "multiply, and every delivered packet's tag decodes to its "
              "originating slice.\n");
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
