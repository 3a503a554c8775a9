// The Fig. 8/9 egress evaluator (bench/common: evaluate_egress) against a
// plain nested-loop oracle: the per-figure PGW median and group × prefix ×
// egress join it replaced, calling IPlaneModel::cost for every candidate.
// The kernel must pick the same PGW and produce the same samples, bit for
// bit and in the same (snapshot, group, prefix) order.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench/common.h"

namespace softmow::bench {
namespace {

struct Oracle {
  std::size_t pgw_index = 0;
  std::vector<double> egress2, egress4, egress8, lte;
};

Oracle nested_loop_oracle(topo::Scenario& scenario, const InternalCostTable& internal,
                          EgressMetric metric, int snapshots) {
  const bool hops = metric == EgressMetric::kHops;
  auto internal_of = [hops](const EdgeMetrics& m) { return hops ? m.hop_count : m.latency_us; };
  auto external_of = [hops](const apps::ExternalCost& c) { return hops ? c.hops : c.latency_us; };

  Oracle out;
  std::vector<std::pair<double, std::size_t>> by_mean;
  for (std::size_t e = 0; e < internal.egresses.size(); ++e) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t g = 0; g < internal.groups.size(); ++g) {
      if (internal.cost[g][e].hop_count < 0) continue;
      sum += internal_of(internal.cost[g][e]);
      ++n;
    }
    by_mean.emplace_back(n > 0 ? sum / static_cast<double>(n) : 1e18, e);
  }
  std::sort(by_mean.begin(), by_mean.end());
  out.pgw_index = by_mean[by_mean.size() / 2].second;

  const auto prefixes = scenario.iplane->prefixes();
  auto evaluate = [&](std::size_t egress_count, bool lte) {
    std::vector<double> samples;
    for (int snap = 0; snap < snapshots; ++snap) {
      scenario.iplane->set_snapshot(snap);
      for (std::size_t g = 0; g < internal.groups.size(); ++g) {
        for (PrefixId prefix : prefixes) {
          double best = 1e18;
          if (lte) {
            const EdgeMetrics& in = internal.cost[g][out.pgw_index];
            auto ext = scenario.iplane->cost(internal.egresses[out.pgw_index], prefix);
            if (in.hop_count >= 0 && ext) best = internal_of(in) + external_of(*ext);
          } else {
            for (std::size_t e = 0; e < egress_count && e < internal.egresses.size(); ++e) {
              const EdgeMetrics& in = internal.cost[g][e];
              if (in.hop_count < 0) continue;
              auto ext = scenario.iplane->cost(internal.egresses[e], prefix);
              if (!ext) continue;
              best = std::min(best, internal_of(in) + external_of(*ext));
            }
          }
          if (best < 1e18) samples.push_back(hops ? best : 2.0 * best / 1000.0);
        }
      }
    }
    scenario.iplane->set_snapshot(0);
    return samples;
  };
  out.egress2 = evaluate(2, false);
  out.egress4 = evaluate(4, false);
  out.egress8 = evaluate(8, false);
  out.lte = evaluate(0, true);
  return out;
}

TEST(EgressEvaluator, MatchesNestedLoopOracle) {
  auto scenario = topo::build_scenario(topo::small_scenario_params());
  InternalCostTable internal = compute_internal_costs(*scenario);
  ASSERT_FALSE(internal.egresses.empty());

  for (EgressMetric metric : {EgressMetric::kHops, EgressMetric::kLatency}) {
    SCOPED_TRACE(metric == EgressMetric::kHops ? "hops" : "latency");
    constexpr int kSnapshots = 2;
    Oracle want = nested_loop_oracle(*scenario, internal, metric, kSnapshots);
    EgressEvaluation got = evaluate_egress(*scenario, internal, metric, kSnapshots);

    EXPECT_EQ(got.pgw_index, want.pgw_index);
    EXPECT_EQ(scenario->iplane->snapshot(), 0);
    ASSERT_FALSE(want.egress2.empty());
    EXPECT_EQ(got.egress2.samples(), want.egress2);
    EXPECT_EQ(got.egress4.samples(), want.egress4);
    EXPECT_EQ(got.egress8.samples(), want.egress8);
    EXPECT_EQ(got.lte.samples(), want.lte);
  }
}

}  // namespace
}  // namespace softmow::bench
