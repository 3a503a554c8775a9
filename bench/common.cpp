#include "bench/common.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "analysis/shard_check.h"
#include "bench/report.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/timeseries.h"

namespace softmow::bench {

namespace {

bool parse_positive_size(const std::string& value, std::size_t* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || n == 0) return false;
  *out = static_cast<std::size_t>(n);
  return true;
}

}  // namespace

const std::vector<OptionSpec>& bench_option_registry() {
  static const std::vector<OptionSpec> specs = {
      {"--metrics-json", "<path>", "dump metrics registry + trace as JSON",
       [](BenchOptions& o, const std::string& v) {
         o.metrics_json = v;
         return true;
       }},
      {"--metrics-csv", "<path>", "dump metrics registry as CSV",
       [](BenchOptions& o, const std::string& v) {
         o.metrics_csv = v;
         return true;
       }},
      {"--trace-chrome", "<path>",
       "write a Chrome Trace Event file\n(load at ui.perfetto.dev or chrome://tracing)",
       [](BenchOptions& o, const std::string& v) {
         o.trace_chrome = v;
         return true;
       }},
      {"--bench-json", "<path>",
       "write a structured BENCH_<name>.json run\nreport (headlines, wall phases, profile\nsummary; implies --profile)",
       [](BenchOptions& o, const std::string& v) {
         o.bench_json = v;
         return true;
       }},
      {"--profile", nullptr,
       "per-shard engine profiling: busy/stall wall\ntime, event, window and mailbox counts\n(profile_* series + counter tracks)",
       [](BenchOptions& o, const std::string&) {
         o.profile = true;
         return true;
       }},
      {"--latency-budget", nullptr,
       "print the per-operation critical-path\nlatency-budget table after the run",
       [](BenchOptions& o, const std::string&) {
         o.latency_budget = true;
         return true;
       }},
      {"--trace-capacity", "<n>", "cap the trace ring buffer at n spans/events",
       [](BenchOptions& o, const std::string& v) {
         return parse_positive_size(v, &o.trace_capacity);
       }},
      {"--scale", "<f>",
       "scale paper-size scenario parameters by f\n(e.g. 0.25 for CI smoke runs)",
       [](BenchOptions& o, const std::string& v) {
         char* end = nullptr;
         double f = std::strtod(v.c_str(), &end);
         if (v.empty() || end == nullptr || *end != '\0' || f <= 0) return false;
         o.scale = f;
         return true;
       }},
      {"--seed", "<n>",
       "master seed for scenario synthesis\n(default 1; deterministic per seed)",
       [](BenchOptions& o, const std::string& v) {
         std::size_t n = 0;
         if (!parse_positive_size(v, &n)) return false;
         o.seed = n;
         return true;
       }},
      {"--faults", "<name>",
       "fault plan for fault-injection benches:\nlink-flap, switch-crash, controller-crash,\nimpair, mixed, rogue-rule",
       [](BenchOptions& o, const std::string& v) {
         o.faults = v;
         return true;
       }},
      {"--fault-seed", "<n>",
       "seed for fault-plan target selection\n(default 1)",
       [](BenchOptions& o, const std::string& v) {
         std::size_t n = 0;
         if (!parse_positive_size(v, &n)) return false;
         o.fault_seed = n;
         return true;
       }},
      {"--encap", "<mode>",
       "slicing encapsulation: tags (SoftCell\npolicy tags) or labels (per-path §4.3)",
       [](BenchOptions& o, const std::string& v) {
         if (v != "tags" && v != "labels") return false;
         o.encap = v;
         return true;
       }},
      {"--slices", "<n>",
       "tenant count for slicing benches\n(default 4, max 32)",
       [](BenchOptions& o, const std::string& v) {
         std::size_t n = 0;
         if (!parse_positive_size(v, &n) || n > 32) return false;
         o.slices = n;
         return true;
       }},
      {"--verify", nullptr,
       "run the static data-plane verifier on each\nscenario the bench builds",
       [](BenchOptions& o, const std::string&) {
         o.verify = true;
         return true;
       }},
      {"--shard-check", nullptr,
       "audit shard ownership + happens-before\nover the run; non-zero exit on findings\n(engine hooks need -DSOFTMOW_SHARD_CHECK=ON)",
       [](BenchOptions& o, const std::string&) {
         o.shard_check = true;
         return true;
       }},
      {"--help", nullptr, "show this message and exit",
       [](BenchOptions& o, const std::string&) {
         o.help = true;
         return true;
       }},
  };
  return specs;
}

void print_bench_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [options]\n\nOptions shared by every bench binary:\n", argv0);
  constexpr int kHelpColumn = 27;
  for (const OptionSpec& spec : bench_option_registry()) {
    std::string left = "  ";
    left += spec.name;
    if (spec.placeholder != nullptr) {
      left += ' ';
      left += spec.placeholder;
    }
    if (left.size() + 2 < kHelpColumn) left.resize(kHelpColumn, ' ');
    else left += "  ";
    // '\n' in the help text starts a continuation line in the help column.
    std::string help = spec.help;
    for (std::size_t nl = help.find('\n'); nl != std::string::npos; nl = help.find('\n', nl + 1))
      help.replace(nl, 1, "\n" + std::string(kHelpColumn, ' '));
    std::fprintf(out, "%s%s\n", left.c_str(), help.c_str());
  }
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* flag = std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& s : bench_option_registry()) {
      if (std::strcmp(flag, s.name) == 0) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "error: unknown argument '%s' (see --help)\n", argv[i]);
      opts.parse_ok = false;
      continue;
    }
    std::string value;
    if (spec->placeholder != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", spec->name);
        opts.parse_ok = false;
        continue;
      }
      value = argv[++i];
    }
    if (!spec->apply(opts, value)) {
      std::fprintf(stderr, "error: bad value for %s: '%s'\n", spec->name, value.c_str());
      opts.parse_ok = false;
    }
  }
  return opts;
}

bool export_metrics(const BenchOptions& opts) {
  bool ok = true;
  if (!opts.trace_chrome.empty()) {
    // Profiler counter samples (per-window busy-ms/events per shard) render
    // as Perfetto counter tracks next to the span tracks.
    auto counters = sim::ShardedSimulator::drain_profile_samples();
    auto written =
        obs::write_chrome_trace(obs::default_tracer(), opts.trace_chrome, counters);
    if (written.ok()) {
      std::fprintf(stderr, "trace: wrote %s (load at ui.perfetto.dev)\n",
                   opts.trace_chrome.c_str());
    } else {
      std::fprintf(stderr, "trace: %s\n", written.error().message.c_str());
      ok = false;
    }
  }
  if (!opts.metrics_json.empty()) {
    std::string doc = obs::to_json(obs::default_registry(), &obs::default_tracer(),
                                   &obs::default_timeseries());
    auto written = obs::write_file(opts.metrics_json, doc);
    if (written.ok()) {
      std::fprintf(stderr, "metrics: wrote %s\n", opts.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "metrics: %s\n", written.error().message.c_str());
      ok = false;
    }
  }
  if (!opts.metrics_csv.empty()) {
    auto written = obs::write_file(
        opts.metrics_csv, obs::to_csv(obs::default_registry(), &obs::default_timeseries()));
    if (written.ok()) {
      std::fprintf(stderr, "metrics: wrote %s\n", opts.metrics_csv.c_str());
    } else {
      std::fprintf(stderr, "metrics: %s\n", written.error().message.c_str());
      ok = false;
    }
  }
  // Ring overflow is silent data loss for anyone reading the export: name
  // the count and the remedy once, on stderr (stdout stays byte-identical
  // run to run for the determinism diff).
  const obs::MetricsRegistry& reg = obs::default_registry();
  std::uint64_t trace_dropped = 0;
  for (const char* buffer : {"spans", "events"}) {
    const obs::Counter* c =
        reg.find_counter("trace_dropped_total", {{"buffer", buffer}});
    if (c != nullptr) trace_dropped += c->value();
  }
  if (trace_dropped > 0) {
    std::fprintf(stderr,
                 "trace: ring buffer dropped %llu spans/events (trace_dropped_total); "
                 "raise --trace-capacity to keep them\n",
                 static_cast<unsigned long long>(trace_dropped));
  }
  return ok;
}

namespace {
BenchOptions g_options;
double g_setup_wall_ms = 0;
}  // namespace

void add_setup_wall_ms(double ms) { g_setup_wall_ms += ms; }

std::unique_ptr<topo::Scenario> build_scenario_timed(topo::ScenarioParams params) {
  auto started = std::chrono::steady_clock::now();
  auto scenario = topo::build_scenario(std::move(params));
  add_setup_wall_ms(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                              started)
                        .count());
  return scenario;
}

const BenchOptions& current_bench_options() { return g_options; }

bool maybe_verify(topo::Scenario& scenario, const char* tag) {
  if (!current_bench_options().verify) return true;
  verify::ControlState state = scenario.mgmt->control_state();
  if (scenario.apps) state.bearers = scenario.apps->bearer_claims();
  verify::VerifyReport report =
      verify::verify_data_plane(scenario.net, &state, scenario.mgmt->verify_options());
  std::printf("%s%s%s\n", tag, *tag != '\0' ? ": " : "", report.summary().c_str());
  for (const verify::Finding& f : report.findings)
    std::printf("  %s\n", f.str().c_str());
  return report.clean();
}

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

void attach_probes(topo::Scenario& scenario, faults::RecoveryCoordinator& coord,
                   std::uint64_t first_ue) {
  auto& mp = *scenario.mgmt;
  std::uint64_t next_ue = first_ue;
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
        (void)mobility.ue_detach(ue);  // attached just above: cannot miss
        continue;
      }
      coord.add_probe({ue, bs, request.dst_prefix});
      ++added;
    }
  }
}

ShardedRun::ShardedRun(topo::Scenario& scenario, sim::Duration parent_link_delay)
    : scenario_(&scenario) {
  auto started = std::chrono::steady_clock::now();
  const BenchOptions& opts = current_bench_options();
  sim::ShardedSimulator::Options engine_opts;
  // A bench report without profile data answers none of the "which shard is
  // slow" questions it exists for, so --bench-json implies profiling.
  engine_opts.profile = opts.profile || !opts.bench_json.empty();
  engine_ = std::make_unique<sim::ShardedSimulator>(scenario.mgmt->natural_shard_count(),
                                                    engine_opts);
  scenario.mgmt->bind_shards(*engine_, parent_link_delay);
  add_setup_wall_ms(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                              started)
                        .count());
}

ShardedRun::~ShardedRun() { scenario_->mgmt->unbind_shards(); }

int bench_main(int argc, char** argv, void (*run)()) {
  g_options = parse_bench_args(argc, argv);
  if (g_options.help) {
    print_bench_usage(stdout, argv[0]);
    return 0;
  }
  if (!g_options.parse_ok) {
    print_bench_usage(stderr, argv[0]);
    return 2;
  }
  if (g_options.trace_capacity > 0)
    obs::default_tracer().set_capacity(g_options.trace_capacity);
  // The checker session must span run() so engine instrumentation (ownership
  // hooks, handoff scopes, delivery audits) reports into it.
  std::optional<analysis::ShardChecker> checker;
  if (g_options.shard_check) {
    if (!analysis::ShardChecker::instrumented())
      std::fprintf(stderr,
                   "--shard-check: engine hooks compiled out; rebuild with "
                   "-DSOFTMOW_SHARD_CHECK=ON for ownership coverage\n");
    checker.emplace();
  }
  auto started = std::chrono::steady_clock::now();
  run();
  double total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  // Wall-clock gauges for phase attribution. Determinism checks comparing
  // exports of repeated runs must strip bench_wall_ms series.
  obs::MetricsRegistry& reg = obs::default_registry();
  reg.gauge("bench_wall_ms", {{"phase", "total"}})->set(total_ms);
  reg.gauge("bench_wall_ms", {{"phase", "sim"}})
      ->set(sim::ShardedSimulator::process_wall_ms());
  reg.gauge("bench_wall_ms", {{"phase", "setup"}})->set(g_setup_wall_ms);
  if (g_options.latency_budget) {
    std::printf("\n%s",
                obs::latency_budget_table(
                    obs::analyze_root_operations(obs::default_tracer()))
                    .c_str());
  }
  bool shard_check_failed = false;
  if (checker.has_value()) {
    analysis::AnalysisReport report = checker->report();
    for (const analysis::Finding& f : report.findings)
      std::printf("shard-check: %s\n", f.str().c_str());
    std::printf("%s\n", report.summary().c_str());
    shard_check_failed = !report.clean();
    checker.reset();
  }
  bool exported = export_metrics(g_options);
  if (!g_options.bench_json.empty()) {
    // Bench name = binary basename (the BENCH_<name>.json convention).
    std::string name = argv[0];
    std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    if (!write_bench_report(name, g_options.bench_json, g_options)) exported = false;
  }
  if (shard_check_failed) return 3;
  return exported ? 0 : 1;
}

InternalCostTable compute_internal_costs(topo::Scenario& scenario) {
  InternalCostTable table;
  table.groups = scenario.trace.groups;
  table.egresses = scenario.egresses;

  auto& mp = *scenario.mgmt;
  auto& root = mp.root();
  const Graph& root_graph = root.routing().port_graph();

  // Root-graph trees from every egress node (metrics are symmetric, so the
  // tree from the egress equals the cost *to* the egress from every node).
  std::vector<core::FlatMap<NodeKey, EdgeMetrics>> to_egress;
  std::vector<NodeKey> egress_nodes;
  for (EgressId egress : table.egresses) {
    Endpoint attach = scenario.net.egress(egress)->attach;
    // Find the owning leaf and translate to the root's ID space.
    NodeKey node = 0;
    for (reca::Controller* leaf : mp.leaves()) {
      if (leaf->nib().sw(attach.sw) == nullptr) continue;
      leaf->abstraction().refresh();
      auto exposed = leaf->abstraction().to_exposed(attach);
      if (exposed)
        node = nos::port_key(leaf->abstraction().gswitch_id(), *exposed);
      break;
    }
    egress_nodes.push_back(node);
    to_egress.push_back(node != 0 ? root_graph.shortest_tree(node, Metric::kHops)
                                  : core::FlatMap<NodeKey, EdgeMetrics>{});
  }

  table.cost.assign(table.groups.size(),
                    std::vector<EdgeMetrics>(table.egresses.size(),
                                             EdgeMetrics{InternalCostTable::kUnreachable,
                                                         InternalCostTable::kUnreachable, 0}));

  for (reca::Controller* leaf : mp.leaves()) {
    leaf->abstraction().refresh();
    SwitchId gswitch = leaf->abstraction().gswitch_id();
    // Exposed ports of this leaf, as (local endpoint, root node key).
    std::vector<std::pair<Endpoint, NodeKey>> exposures;
    for (const southbound::PortDesc& pd : leaf->abstraction().features().ports) {
      auto local = leaf->abstraction().to_local(pd.port);
      if (local) exposures.emplace_back(*local, nos::port_key(gswitch, pd.port));
    }

    for (GBsId gbs_id : leaf->nib().gbs_list()) {
      const southbound::GBsAnnounce* gbs = leaf->nib().gbs(gbs_id);
      BsGroupId group = mgmt::group_for_gbs_id(gbs_id);
      auto git = scenario.trace.group_index.find(group);
      if (git == scenario.trace.group_index.end()) continue;
      std::size_t gi = git->second;

      auto tree = leaf->routing().reachability(
          Endpoint{gbs->attached_switch, gbs->attached_port}, Metric::kHops);

      for (std::size_t e = 0; e < table.egresses.size(); ++e) {
        EdgeMetrics best{InternalCostTable::kUnreachable, InternalCostTable::kUnreachable, 0};
        for (const auto& [local, root_node] : exposures) {
          auto lit = tree.find(nos::port_key(local.sw, local.port));
          if (lit == tree.end()) continue;
          auto rit = to_egress[e].find(root_node);
          if (rit == to_egress[e].end()) continue;
          EdgeMetrics total = lit->second.then(rit->second);
          if (best.hop_count < 0 || total.hop_count < best.hop_count ||
              (total.hop_count == best.hop_count && total.latency_us < best.latency_us)) {
            best = total;
          }
        }
        table.cost[gi][e] = best;
      }
    }
  }
  return table;
}

EgressEvaluation evaluate_egress(topo::Scenario& scenario, const InternalCostTable& internal,
                                 EgressMetric metric, int snapshots) {
  EgressEvaluation out;
  const std::size_t groups = internal.groups.size();
  const std::size_t egresses = internal.egresses.size();
  if (egresses == 0) return out;
  const bool hops = metric == EgressMetric::kHops;
  // A missing internal or external leg costs +inf: it never wins a min and
  // never passes the kNoPath test, exactly like skipping it.
  constexpr double kNoPath = 1e18;
  constexpr double kMissing = std::numeric_limits<double>::infinity();
  auto sample = [hops](double best) { return hops ? best : 2.0 * best / 1000.0; };

  // [group][egress] internal cost, and the PGW by mean internal cost.
  std::vector<double> in(groups * egresses, kMissing);
  std::vector<std::pair<double, std::size_t>> by_mean;
  for (std::size_t e = 0; e < egresses; ++e) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const EdgeMetrics& m = internal.cost[g][e];
      if (m.hop_count < 0) continue;
      double& c = in[g * egresses + e];
      c = hops ? m.hop_count : m.latency_us;
      sum += c;
      ++n;
    }
    by_mean.emplace_back(n > 0 ? sum / static_cast<double>(n) : kNoPath, e);
  }
  std::sort(by_mean.begin(), by_mean.end());
  out.pgw_index = by_mean[by_mean.size() / 2].second;

  topo::IPlaneModel& iplane = *scenario.iplane;
  const int prior_snapshot = iplane.snapshot();
  const std::vector<PrefixId> prefixes = iplane.prefixes();
  std::vector<double> ext(prefixes.size() * egresses);  // [prefix][egress]
  SampleSet* const softmow[] = {&out.egress2, &out.egress4, &out.egress8};
  const std::size_t first_n[] = {std::min<std::size_t>(2, egresses),
                                 std::min<std::size_t>(4, egresses),
                                 std::min<std::size_t>(8, egresses)};
  for (int snap = 0; snap < snapshots; ++snap) {
    iplane.set_snapshot(snap);
    for (std::size_t p = 0; p < prefixes.size(); ++p) {
      for (std::size_t e = 0; e < egresses; ++e) {
        auto c = iplane.cost(internal.egresses[e], prefixes[p]);
        ext[p * egresses + e] = !c ? kMissing : hops ? c->hops : c->latency_us;
      }
    }
    for (std::size_t g = 0; g < groups; ++g) {
      const double* in_g = &in[g * egresses];
      for (std::size_t p = 0; p < prefixes.size(); ++p) {
        const double* ext_p = &ext[p * egresses];
        double best = kNoPath;
        std::size_t e = 0;
        for (std::size_t k = 0; k < 3; ++k) {
          for (; e < first_n[k]; ++e) best = std::min(best, in_g[e] + ext_p[e]);
          if (best < kNoPath) softmow[k]->add(sample(best));
        }
        const double lte = in_g[out.pgw_index] + ext_p[out.pgw_index];
        if (lte < kNoPath) out.lte.add(sample(lte));
      }
    }
  }
  iplane.set_snapshot(prior_snapshot);
  return out;
}

}  // namespace softmow::bench
