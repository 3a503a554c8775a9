// Figure 9: CDF of end-to-end RTT latency for 2/4/8-egress SoftMoW vs LTE,
// replaying multiple iPlane snapshots for route churn (§7.2).
//
// Paper: "the 75th and 85th percentile RTT latencies reduce by 43% and 60%
// when we switch from the LTE network to the 8-egress point SoftMoW."
#include "bench/common.h"

namespace softmow::bench {
namespace {

constexpr int kSnapshots = 3;

// Control-plane bearer-setup model (§5.1): a burst of bearer requests per
// leaf, each serviced by its leaf controller, delegated up one RTT/2 to the
// root (whose single queue is shared by every region — the bottleneck), and
// answered back down. Each request is one "bearer.setup" span tree crossing
// both controller levels, so --latency-budget splits the end-to-end setup
// time into per-level queueing / processing / propagation.
constexpr int kBearerBurstPerLeaf = 25;
const sim::Duration kLeafService = sim::Duration::micros(500);
const sim::Duration kHopOneWay = sim::Duration::millis(5.0);

void traced_bearer_setups(mgmt::ManagementPlane& mp) {
  obs::Tracer& tracer = obs::default_tracer();
  const sim::TimePoint t0 = sim::TimePoint::zero();
  const int root_level = mp.root().level();

  std::vector<reca::Controller*> leaves = mp.leaves();
  std::vector<std::unique_ptr<sim::QueueingStation>> leaf_q;
  for (reca::Controller* leaf : leaves)
    leaf_q.push_back(std::make_unique<sim::QueueingStation>(kLeafService, leaf->name(),
                                                            leaf->level()));
  sim::QueueingStation root_q(sim::kControllerServiceTime, "root", root_level);

  SampleSet setup_ms;
  // Round-robin across leaves so the shared root queue sees requests in
  // arrival order (every leaf's i-th request reaches the root together).
  for (int i = 0; i < kBearerBurstPerLeaf; ++i) {
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      reca::Controller* leaf = leaves[l];
      obs::TraceContext op =
          tracer.open_span_under({}, t0, "bearer.setup", leaf->level(), leaf->name());
      sim::TimePoint at_leaf = leaf_q[l]->submit(t0, kLeafService, op);
      tracer.span_under(op, at_leaf, at_leaf + kHopOneWay, "delegate.up", leaf->level(),
                        leaf->name(), obs::SpanKind::kPropagate);
      sim::TimePoint at_root =
          root_q.submit(at_leaf + kHopOneWay, sim::kControllerServiceTime, op);
      tracer.span_under(op, at_root, at_root + kHopOneWay, "respond.down", root_level,
                        "root", obs::SpanKind::kPropagate);
      sim::TimePoint done = at_root + kHopOneWay;
      tracer.close_span(op, done, "delegated L" + std::to_string(root_level));
      setup_ms.add((done - t0).to_millis());
    }
  }
  // p95 first: it sorts the samples, and mean() then sums them in sorted order.
  const double p95 = setup_ms.percentile(95);
  const double mean = setup_ms.mean();
  std::printf("\ncontrol plane: %zu modeled bearer setups delegated to the root — mean "
              "%.1f ms, p95 %.1f ms (span trees: --trace-chrome; breakdown: "
              "--latency-budget)\n",
              static_cast<std::size_t>(kBearerBurstPerLeaf) * leaves.size(), mean, p95);
}

void run() {
  print_header("Figure 9 — end-to-end RTT latency CDF",
               "75th/85th pct RTT down 43%/60% from LTE to 8-egress SoftMoW");

  auto scenario = build_scenario_timed(paper_scale_params(0, 4, /*originate=*/false));
  maybe_verify(*scenario);
  auto internal = compute_internal_costs(*scenario);
  // The same PGW model as Fig. 8 (typical, median placement), by latency.
  EgressEvaluation eval =
      evaluate_egress(*scenario, internal, EgressMetric::kLatency, kSnapshots);
  const SampleSet& lte = eval.lte;
  const SampleSet& e2 = eval.egress2;
  const SampleSet& e4 = eval.egress4;
  const SampleSet& e8 = eval.egress8;

  TextTable cdf({"RTT percentile", "LTE (ms)", "2-egrs", "4-egrs", "8-egrs"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 85.0, 95.0, 99.0}) {
    cdf.add_row({TextTable::num(p, 0) + "th", TextTable::num(lte.percentile(p), 1),
                 TextTable::num(e2.percentile(p), 1), TextTable::num(e4.percentile(p), 1),
                 TextTable::num(e8.percentile(p), 1)});
  }
  cdf.print();

  double p75_cut = 100.0 * (lte.percentile(75) - e8.percentile(75)) / lte.percentile(75);
  double p85_cut = 100.0 * (lte.percentile(85) - e8.percentile(85)) / lte.percentile(85);
  std::printf("\nmeasured: 75th pct RTT down %.1f%% (paper: 43%%), 85th pct down %.1f%% "
              "(paper: 60%%) from LTE to 8-egress\n",
              p75_cut, p85_cut);
  std::printf("headline (§1): path inflation reduced by up to %.0f%% (paper: up to 60%%)\n",
              std::max(p75_cut, p85_cut));

  traced_bearer_setups(*scenario->mgmt);
}

}  // namespace
}  // namespace softmow::bench

int main(int argc, char** argv) {
  return softmow::bench::bench_main(argc, argv, softmow::bench::run);
}
