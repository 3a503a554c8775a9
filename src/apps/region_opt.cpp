#include "apps/region_opt.h"

#include <algorithm>

#include "core/log.h"
#include "reca/abstraction.h"

namespace softmow::apps {

double cross_region_weight(const WeightedAdjacency<GBsId>& graph,
                           const std::map<GBsId, SwitchId>& attach) {
  double total = 0;
  for (const auto& [key, weight] : graph.edges()) {
    auto a = attach.find(key.first);
    auto b = attach.find(key.second);
    if (a == attach.end() || b == attach.end()) continue;
    if (a->second != b->second) total += weight;
  }
  return total;
}

namespace {

std::pair<SwitchId, SwitchId> ordered(SwitchId a, SwitchId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// Gain of moving `b` from region `s` to region `t` (§5.3.1): handovers to
/// t-nodes stop crossing, handovers to s-nodes start crossing; edges to any
/// third region cross either way and cancel.
double move_gain(const WeightedAdjacency<GBsId>& graph,
                 const std::map<GBsId, SwitchId>& attach, GBsId b, SwitchId s, SwitchId t) {
  double gain = 0;
  for (const auto& [n, w] : graph.neighbors(b)) {
    auto it = attach.find(n);
    if (it == attach.end()) continue;
    if (it->second == t) gain += w;
    else if (it->second == s) gain -= w;
  }
  return gain;
}

}  // namespace

RegionOptResult greedy_region_optimization(RegionOptInput input,
                                           const RegionOptConstraints& c) {
  RegionOptResult result;
  result.initial_cross_weight = cross_region_weight(input.graph, input.attach);

  // Initial per-region loads define the LB/UB envelopes.
  std::map<SwitchId, double> region_load;
  auto load_of = [&](GBsId g) {
    auto it = input.load.find(g);
    return it == input.load.end() ? 0.0 : it->second;
  };
  for (const auto& [g, sw] : input.attach) region_load[sw] += load_of(g);
  std::map<SwitchId, double> lb, ub;
  for (const auto& [sw, load] : region_load) {
    lb[sw] = load * c.lb_factor;
    ub[sw] = load * c.ub_factor;
  }

  // Candidate target regions per source region: neighbors via links.
  std::map<SwitchId, std::set<SwitchId>> neighbors;
  for (const auto& [a, b] : input.gswitch_links) {
    neighbors[a].insert(b);
    neighbors[b].insert(a);
  }

  while (result.moves.size() < c.max_moves) {
    Move best{GBsId{}, SwitchId{}, SwitchId{}, 0.0};
    for (GBsId b : input.movable) {
      auto sit = input.attach.find(b);
      if (sit == input.attach.end()) continue;
      SwitchId s = sit->second;
      auto nit = neighbors.find(s);
      if (nit == neighbors.end()) continue;
      for (SwitchId t : nit->second) {
        double gain = move_gain(input.graph, input.attach, b, s, t);
        if (gain <= best.gain) continue;
        // LB/UB load constraints (§5.3.1 "Constraints").
        double moved = load_of(b);
        if (region_load[s] - moved + 1e-9 < lb[s]) continue;
        if (region_load[t] + moved - 1e-9 > ub[t]) continue;
        best = Move{b, s, t, gain};
      }
    }
    if (!best.gbs.valid() || best.gain <= 0) break;  // §5.3.1 termination
    input.attach[best.gbs] = best.to;
    region_load[best.from] -= load_of(best.gbs);
    region_load[best.to] += load_of(best.gbs);
    result.moves.push_back(best);
  }

  result.final_cross_weight = cross_region_weight(input.graph, input.attach);
  result.final_attach = std::move(input.attach);
  return result;
}

Result<RegionOptResult> RegionOptApp::optimize_round(
    const RegionOptConstraints& constraints, const std::map<GBsId, double>& loads,
    bool execute) {
  if (controller_->is_leaf())
    return Error{ErrorCode::kInvalidArgument, "leaf controllers have no sub-regions"};

  RegionOptInput input;
  input.graph = mobility_->collect_handover_graph();

  for (GBsId id : controller_->nib().gbs_list()) {
    const southbound::GBsAnnounce* rec = controller_->nib().gbs(id);
    input.attach[id] = rec->attached_switch;
    // Border G-BSes (exposed 1:1 by children with exactly one constituent
    // group) are movable; internal aggregates are not (§5.3.1).
    if (rec->is_border && rec->constituent_groups.size() == 1) input.movable.insert(id);
  }
  for (const nos::LinkRecord& link : controller_->nib().links()) {
    if (!link.up) continue;
    input.gswitch_links.insert(ordered(link.a.sw, link.b.sw));
  }
  if (loads.empty()) {
    for (GBsId id : controller_->nib().gbs_list())
      input.load[id] = input.graph.degree_weight(id);
  } else {
    input.load = loads;
  }

  RegionOptResult result = greedy_region_optimization(std::move(input), constraints);

  if (execute) {
    for (const Move& move : result.moves) {
      auto done = mgmt_->reassign_gbs(*controller_, move.gbs, move.from, move.to);
      if (!done.ok()) {
        SOFTMOW_LOG(LogLevel::kWarn, "region-opt")
            << controller_->name() << " reassign failed: " << done.error().message;
      }
    }
  }
  return result;
}

}  // namespace softmow::apps
