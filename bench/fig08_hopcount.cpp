// Figure 8: end-to-end hop counts vs number of egress points.
//
// Paper setup (§7.2): two-level SoftMoW, 4 leaf regions, 321 switches,
// 11 590 Internet destinations from iPlane; the root implements internal
// shortest paths accounting for internal + external hop counts. Reported:
// mean hop count falls from 20.83 (2 egress points) to 16 (8 egress
// points); 8-egress SoftMoW beats the rigid LTE baseline by ~36%.
#include "bench/common.h"

namespace softmow::bench {
namespace {

void run() {
  print_header("Figure 8 — end-to-end hop count vs egress points",
               "mean 20.83 (2-egrs) -> 16 (8-egrs); 8-egrs ~36% below LTE");

  auto scenario = build_scenario_timed(paper_scale_params(0, 4, /*originate=*/false));
  maybe_verify(*scenario);
  auto internal = compute_internal_costs(*scenario);
  // LTE baseline: one rigid region whose single centralized PGW complex sits
  // at the median egress by mean internal hop count (see evaluate_egress).
  EgressEvaluation eval = evaluate_egress(*scenario, internal, EgressMetric::kHops, 1);

  TextTable table({"config", "min", "p25", "median", "p75", "max", "mean"});
  auto add_row = [&](const std::string& name, const SampleSet& hops) {
    BoxStats box = box_stats(hops);
    table.add_row({name, TextTable::num(box.min, 1), TextTable::num(box.p25, 1),
                   TextTable::num(box.median, 1), TextTable::num(box.p75, 1),
                   TextTable::num(box.max, 1), TextTable::num(box.mean, 2)});
    return box.mean;
  };
  double softmow2_mean = add_row("2-egrs", eval.egress2);
  add_row("4-egrs", eval.egress4);
  double softmow8_mean = add_row("8-egrs", eval.egress8);
  double lte_mean = add_row("LTE", eval.lte);
  table.print();

  std::printf("\nmeasured: mean %.2f (2-egrs) -> %.2f (8-egrs)\n", softmow2_mean,
              softmow8_mean);
  std::printf("measured: 8-egrs SoftMoW reduces mean end-to-end hop count by %.1f%% vs LTE "
              "(paper: ~36%%)\n",
              100.0 * (lte_mean - softmow8_mean) / lte_mean);
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
