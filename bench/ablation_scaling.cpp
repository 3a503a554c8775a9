// Ablation: control-plane scaling with the number of leaf regions.
//
// The motivation of the hierarchy (§1, §2.2): a flat control plane must
// absorb the entire network's signaling; partitioning into R regions divides
// both the discovery workload and the cellular signaling per controller,
// at the price of more inter-region handovers for the ancestors to mediate
// (which region optimization then reduces — Fig. 12). This bench sweeps R.
#include "bench/common.h"

namespace softmow::bench {
namespace {

void run() {
  print_header("Ablation — scaling with the number of leaf regions",
               "per-controller load shrinks with R; inter-region coupling grows");

  TextTable table({"regions", "max leaf msgs", "max leaf conv (s)", "root msgs",
                   "cross links", "inter-region HO share"});

  std::uint64_t sustained_events = 0, sustained_windows = 0;
  std::size_t sustained_shards = 0;

  for (std::size_t regions : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    auto scenario = build_scenario_timed(paper_scale_params(0, regions, /*originate=*/false));
    auto& mp = *scenario->mgmt;
    for (reca::Controller* c : mp.all_controllers())
      c->discovery().stats_mutable() = nos::DiscoveryStats{};
    // The steady-state round runs on the sharded engine (leaves drain, then
    // the root).
    {
      ShardedRun sharded(*scenario);
      sim::ShardedSimulator& engine = sharded.engine();
      for (reca::Controller* leaf : mp.leaves())
        engine.schedule(leaf->shard(), sim::Duration{},
                        [leaf] { leaf->run_link_discovery(); });
      engine.run();
      reca::Controller* root = &mp.root();
      engine.schedule(root->shard(), sim::Duration{},
                      [root] { root->run_link_discovery(); });
      engine.run();

      // Sustained load on the widest sweep point: several staggered periodic
      // rounds per leaf region — the wall-clock of this phase is exported as
      // bench_wall_ms{phase=sim}.
      if (regions == 8) {
        constexpr int kSustainedRounds = 8;
        for (reca::Controller* leaf : mp.leaves()) {
          for (int r = 0; r < kSustainedRounds; ++r)
            engine.schedule(leaf->shard(), sim::Duration::millis(100.0 * r),
                            [leaf] { leaf->run_link_discovery(); });
        }
        sustained_events = engine.run();
        sustained_windows = engine.windows_executed();
        sustained_shards = engine.shard_count();
        // Counts below reflect one steady-state round, as before the
        // sustained phase.
        for (reca::Controller* c : mp.all_controllers())
          c->discovery().stats_mutable() = nos::DiscoveryStats{};
        for (reca::Controller* leaf : mp.leaves())
          engine.schedule(leaf->shard(), sim::Duration{},
                          [leaf] { leaf->run_link_discovery(); });
        engine.run();
        engine.schedule(root->shard(), sim::Duration{},
                        [root] { root->run_link_discovery(); });
        engine.run();
      }
    }
    maybe_verify(*scenario);

    std::uint64_t max_leaf = 0;
    for (reca::Controller* leaf : mp.leaves())
      max_leaf = std::max(max_leaf, leaf->discovery().stats().messages_processed());
    sim::QueueingStation station(sim::kControllerServiceTime);
    sim::TimePoint done = station.submit_burst(sim::TimePoint::zero(), max_leaf);

    // Handover coupling: share of all trace handovers that cross regions.
    double cross = 0, total = 0;
    for (const auto& [key, w] : scenario->trace.group_adjacency.edges()) {
      total += w;
      if (mp.leaf_index_of_group(key.first) != mp.leaf_index_of_group(key.second)) cross += w;
    }

    table.add_row({std::to_string(regions), std::to_string(max_leaf),
                   TextTable::num((done - sim::TimePoint::zero()).to_seconds(), 2),
                   std::to_string(mp.root().discovery().stats().messages_processed()),
                   std::to_string(mp.root().nib().links().size()),
                   TextTable::num(total > 0 ? 100 * cross / total : 0, 1) + "%"});
  }
  table.print();
  std::printf("\nsustained engine load (8 regions): %llu events in %llu windows over "
              "%zu shards\n",
              static_cast<unsigned long long>(sustained_events),
              static_cast<unsigned long long>(sustained_windows), sustained_shards);
  std::printf("\ntakeaway: doubling the regions roughly halves the busiest leaf's "
              "discovery workload while the root's stays tiny — the scalability the "
              "hierarchy buys; the growing inter-region handover share is the cost that "
              "§5.3's region optimization then attacks (Fig. 12).\n");
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
