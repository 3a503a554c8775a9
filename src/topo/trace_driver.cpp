#include "topo/trace_driver.h"

#include <cmath>

namespace softmow::topo {

TraceDriver::TraceDriver(Scenario& scenario, TraceDriverParams params)
    : scenario_(scenario),
      params_(params),
      rng_(params.seed),
      bearers_requested_(obs::default_registry().counter("replay_bearers_requested_total")),
      bearers_failed_(obs::default_registry().counter("replay_bearers_failed_total")),
      handovers_requested_(obs::default_registry().counter("replay_handovers_requested_total")),
      handovers_failed_(obs::default_registry().counter("replay_handovers_failed_total")),
      idle_cycles_(obs::default_registry().counter("replay_idle_cycles_total")),
      rules_installed_(obs::default_registry().gauge("replay_rules_installed")) {
  groups_.resize(scenario_.trace.groups.size());
}

UeId TraceDriver::ue_for(std::size_t group_index, std::size_t slot) {
  GroupState& state = groups_[group_index];
  while (state.ues.size() <= slot) state.ues.push_back(UeId{next_ue_++});
  return state.ues[slot];
}

void TraceDriver::ensure_attached(std::size_t group_index) {
  GroupState& state = groups_[group_index];
  if (state.attached) return;
  BsGroupId group = scenario_.trace.groups[group_index];
  const dataplane::BsGroup* rec = scenario_.net.bs_group(group);
  auto& mobility = scenario_.apps->leaf_mobility_of_group(group);
  // ue_attach fails only for an unknown base station; a group member is
  // always known.
  for (std::size_t slot = 0; slot < params_.ues_per_group; ++slot) {
    (void)mobility.ue_attach(ue_for(group_index, slot), rec->members.front());
  }
  state.attached = true;
}

TraceDriverReport TraceDriver::replay(std::size_t first_minute, std::size_t count) {
  TraceDriverReport report;
  const LteTrace& trace = scenario_.trace;
  auto& mp = *scenario_.mgmt;

  // Baselines so the per-level mediation counts cover only this replay.
  std::map<int, std::uint64_t> mediation_before;
  for (reca::Controller* c : mp.all_controllers()) {
    auto& mobility = scenario_.apps->mobility(*c);
    mediation_before[c->level()] += c->is_leaf() ? mobility.stats().intra_region_handovers
                                                 : mobility.stats().inter_region_handled;
  }

  auto scaled = [&](std::uint64_t events) {
    double expected = static_cast<double>(events) * params_.event_scale;
    std::uint64_t base = static_cast<std::uint64_t>(expected);
    if (rng_.bernoulli(expected - static_cast<double>(base))) ++base;
    return base;
  };

  for (std::size_t minute = first_minute;
       minute < std::min(first_minute + count, trace.bins.size()); ++minute) {
    const TraceBin& bin = trace.bins[minute];
    ++report.minutes_replayed;

    // Bearer arrivals: round-robin over the group's parked UEs.
    for (std::size_t g = 0; g < trace.groups.size(); ++g) {
      std::uint64_t n = scaled(bin.bearer_arrivals[g]);
      if (n == 0) continue;
      ensure_attached(g);
      auto& mobility = scenario_.apps->leaf_mobility_of_group(trace.groups[g]);
      for (std::uint64_t k = 0; k < n; ++k) {
        GroupState& state = groups_[g];
        UeId ue = ue_for(g, state.next++ % params_.ues_per_group);
        apps::BearerRequest request;
        request.ue = ue;
        request.bs = scenario_.net.bs_group(trace.groups[g])->members.front();
        request.dst_prefix = PrefixId{(minute + k) % 50};
        ++report.bearers_requested;
        bearers_requested_->inc();
        auto bearer = mobility.request_bearer(request);
        if (!bearer.ok()) {
          ++report.bearers_failed;
          bearers_failed_->inc();
          continue;
        }
        // Radio bearers time out within seconds (§7.1): cycle idle/active
        // or tear down, so state does not accumulate unboundedly. These
        // calls fail only for a UE or bearer this app does not hold, and the
        // bearer was granted to the attached `ue` just above.
        if (rng_.bernoulli(params_.idle_probability)) {
          (void)mobility.ue_idle(ue);
          (void)mobility.ue_active(ue);
          ++report.idle_cycles;
          idle_cycles_->inc();
        } else {
          (void)mobility.deactivate_bearer(ue, *bearer);
        }
      }
    }

    // Handover events along the bin's group-pair edges.
    for (const auto& [ga, gb, events] : bin.handovers) {
      std::uint64_t n = scaled(events);
      for (std::uint64_t k = 0; k < n; ++k) {
        std::size_t from = k % 2 == 0 ? ga : gb;
        std::size_t to = k % 2 == 0 ? gb : ga;
        ensure_attached(from);
        auto& mobility = scenario_.apps->leaf_mobility_of_group(trace.groups[from]);
        GroupState& state = groups_[from];
        UeId ue = ue_for(from, state.next++ % params_.ues_per_group);
        if (mobility.ue(ue) == nullptr) continue;  // moved away earlier
        ++report.handovers_requested;
        handovers_requested_->inc();
        auto moved = mobility.handover(
            ue, scenario_.net.bs_group(trace.groups[to])->members.front());
        if (!moved.ok()) {
          ++report.handovers_failed;
          handovers_failed_->inc();
          continue;
        }
        // Park a replacement UE at the source so later events still fire
        // (a fresh UE at a group member: ue_attach cannot fail).
        state.ues[(state.next - 1) % params_.ues_per_group] = UeId{next_ue_++};
        (void)mobility.ue_attach(state.ues[(state.next - 1) % params_.ues_per_group],
                                 scenario_.net.bs_group(trace.groups[from])->members.front());
      }
    }

    // One sample per replayed minute at the minute's *end* boundary: the
    // recorded curves show the state after this bin's events, in sim time.
    if (params_.recorder != nullptr) {
      rules_installed_->set(static_cast<double>(scenario_.net.total_rules()));
      params_.recorder->sample(sim::TimePoint::zero() +
                               sim::Duration::minutes(static_cast<double>(minute + 1)));
    }
  }

  for (reca::Controller* c : mp.all_controllers()) {
    auto& mobility = scenario_.apps->mobility(*c);
    std::uint64_t now = c->is_leaf() ? mobility.stats().intra_region_handovers
                                     : mobility.stats().inter_region_handled;
    report.handovers_by_level[c->level()] += now;
  }
  for (auto& [level, count_before] : mediation_before)
    report.handovers_by_level[level] -= count_before;

  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].attached) report.attaches += groups_[g].ues.size();
  }
  report.rules_at_end = scenario_.net.total_rules();
  return report;
}

}  // namespace softmow::topo
