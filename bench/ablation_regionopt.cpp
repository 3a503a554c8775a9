// Ablation (§5.3.1): behaviour of the greedy region-optimization algorithm
// across constraint tightness and region counts — moves until convergence,
// per-move gain monotonicity (the paper's termination argument), and the
// price of the LB/UB load envelope. A second section executes the
// reconfiguration protocol on a real (small) scenario and reports the §5.3
// east-west control-plane load through the obs metrics pipeline.
#include "bench/common.h"

#include "obs/trace.h"

namespace softmow::bench {
namespace {

struct SyntheticInput {
  apps::RegionOptInput input;
};

/// Random geometric handover graph partitioned into `regions` slabs.
SyntheticInput make_synthetic(std::size_t groups, std::size_t regions, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticInput out;
  std::vector<std::pair<double, double>> at(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    at[g] = {rng.uniform(0, 100), rng.uniform(0, 100)};
    GBsId id{g};
    out.input.attach[id] = SwitchId{static_cast<std::uint64_t>(at[g].first * regions / 100.0)};
    out.input.load[id] = rng.uniform(50, 150);
    out.input.graph.add_node(id);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t o = g + 1; o < groups; ++o) {
      double dx = at[g].first - at[o].first, dy = at[g].second - at[o].second;
      double d2 = dx * dx + dy * dy;
      if (d2 < 60.0) out.input.graph.add(GBsId{g}, GBsId{o}, rng.uniform(10, 500));
    }
  }
  for (std::size_t r = 0; r + 1 < regions; ++r)
    out.input.gswitch_links.insert({SwitchId{r}, SwitchId{r + 1}});
  // All groups with cross-region edges are movable.
  for (const auto& [key, w] : out.input.graph.edges()) {
    if (out.input.attach[key.first] != out.input.attach[key.second]) {
      out.input.movable.insert(key.first);
      out.input.movable.insert(key.second);
    }
  }
  return out;
}

/// Total southbound/east-west message volume from the one pipeline every
/// bench reports through (§5.3 east-west load = controller<->controller and
/// controller<->device messages on the channels).
std::uint64_t southbound_total() {
  obs::MetricsRegistry& reg = obs::default_registry();
  std::uint64_t total = 0;
  for (const char* direction : {"to_device", "to_controller"}) {
    const obs::Counter* c =
        reg.find_counter("southbound_messages_total", {{"direction", direction}});
    if (c != nullptr) total += c->value();
  }
  return total;
}

/// Executes the §5.3.2 reconfiguration protocol on a real (small) scenario
/// and reports its east-west cost through the metrics registry: message
/// deltas per phase, controller queue waits for processing them, and a span
/// per phase on the trace timeline.
void eastwest_load() {
  std::printf("\n--- east-west load of an executed reconfiguration (§5.3) ---\n");
  obs::Tracer& tracer = obs::default_tracer();

  auto scenario = build_scenario_timed(topo::small_scenario_params(current_bench_options().seed * 3));
  auto& mp = *scenario->mgmt;

  // Phase 1 — drive real handovers so the root accumulates a handover graph.
  std::uint64_t phase_start = southbound_total();
  sim::TimePoint clock = sim::TimePoint::zero();
  sim::QueueingStation station(sim::kControllerServiceTime, "regionopt");
  auto close_phase = [&](const char* name) {
    std::uint64_t messages = southbound_total() - phase_start;
    // The §7.3 queuing model: the control plane processes this phase's
    // east-west burst through a FIFO station, which also feeds the
    // sim_queue_wait_us histogram the JSON export carries.
    sim::TimePoint done = station.submit_burst(clock, messages);
    tracer.span_under(tracer.current(), clock, done, name, mp.root().level(), "root",
                      obs::SpanKind::kOperation, std::to_string(messages) + " messages");
    clock = done;
    phase_start = southbound_total();
    return messages;
  };

  std::uint64_t ue_seq = 1;
  for (const auto& [key, weight] : scenario->trace.group_adjacency.edges()) {
    auto [a, b] = key;
    for (int r = 0; r < (weight > 1.0 ? 3 : 1); ++r) {
      BsGroupId from = r % 2 == 0 ? a : b;
      BsGroupId to = r % 2 == 0 ? b : a;
      if (mp.leaf_of_group(from) == nullptr || mp.leaf_of_group(to) == nullptr) continue;
      apps::MobilityApp& mobility = scenario->apps->mobility(*mp.leaf_of_group(from));
      UeId ue{1000 + ue_seq++};
      if (!mobility.ue_attach(ue, scenario->net.bs_group(from)->members.front()).ok())
        continue;
      // Carry a real bearer through the handover so the post-reconfiguration
      // data plane is non-trivial (and --verify checks actual installed state).
      apps::BearerRequest bearer;
      bearer.ue = ue;
      bearer.bs = scenario->net.bs_group(from)->members.front();
      bearer.dst_prefix = PrefixId{(ue_seq * 7) % 50};
      (void)mobility.request_bearer(bearer);
      (void)mobility.handover(ue, scenario->net.bs_group(to)->members.front());
    }
  }
  std::uint64_t handover_messages = close_phase("regionopt.drive-handovers");

  // Phase 2 — one greedy round, executed through the §5.3.2 protocol.
  apps::RegionOptApp* opt = scenario->apps->region_opt(mp.root());
  apps::RegionOptConstraints constraints;  // ±30% load envelopes (§7.4)
  std::map<GBsId, double> loads;
  for (const auto& [group, load] : scenario->trace.group_load)
    loads[mgmt::gbs_id_for_group(group)] = load;
  auto result = opt->optimize_round(constraints, loads, /*execute=*/true);
  std::uint64_t reconfig_messages = close_phase("regionopt.reconfigure");
  maybe_verify(*scenario, "post-reconfiguration verify");

  TextTable ew({"phase", "east-west messages", "moves"});
  ew.add_row({"drive handovers", std::to_string(handover_messages), "-"});
  ew.add_row({"reconfigure", std::to_string(reconfig_messages),
              result.ok() ? std::to_string(result->moves.size()) : "failed"});
  ew.print();
  if (result.ok() && !result->moves.empty()) {
    std::printf("per-move east-west cost: %.0f messages (cross weight %.0f -> %.0f)\n",
                static_cast<double>(reconfig_messages) /
                    static_cast<double>(result->moves.size()),
                result->initial_cross_weight, result->final_cross_weight);
  }
  std::printf("east-west load is reported through the obs registry "
              "(southbound_messages_total, controller_messages_total per level); pass "
              "--metrics-json to dump it.\n");
}

void run() {
  print_header("Ablation — greedy region optimization (§5.3.1)",
               "strictly positive per-move gain, convergence, LB/UB trade-off");

  TextTable table({"regions", "LB/UB", "groups", "moves", "cross before", "cross after",
                   "reduction %", "monotone gains"});

  for (std::size_t regions : {std::size_t{4}, std::size_t{8}}) {
    for (auto [lb, ub] : std::vector<std::pair<double, double>>{
             {0.9, 1.1}, {0.7, 1.3}, {0.0, 10.0}}) {
      auto synthetic = make_synthetic(400, regions, 17 + regions);
      apps::RegionOptConstraints constraints;
      constraints.lb_factor = lb;
      constraints.ub_factor = ub;
      auto result = apps::greedy_region_optimization(synthetic.input, constraints);

      bool positive = true;
      for (const apps::Move& move : result.moves) positive &= move.gain > 0;
      double reduction = result.initial_cross_weight > 0
                             ? 100.0 * (result.initial_cross_weight - result.final_cross_weight) /
                                   result.initial_cross_weight
                             : 0.0;
      char bounds[32];
      std::snprintf(bounds, sizeof(bounds), "%.1f/%.1f", lb, ub);
      table.add_row({std::to_string(regions), bounds, "400",
                     std::to_string(result.moves.size()),
                     TextTable::num(result.initial_cross_weight, 0),
                     TextTable::num(result.final_cross_weight, 0),
                     TextTable::num(reduction, 1), positive ? "yes" : "NO"});
    }
  }
  table.print();
  std::printf("\ntakeaway: looser load envelopes buy larger handover reductions; every "
              "accepted move has strictly positive gain, so the §5.3.1 argument that the "
              "sequential-parallel schedule converges holds.\n");

  eastwest_load();
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
