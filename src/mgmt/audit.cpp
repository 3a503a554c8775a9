#include "mgmt/audit.h"

#include <algorithm>
#include <set>

#include "dataplane/policy_tag.h"

namespace softmow::mgmt {

using dataplane::DeliveryReport;

namespace {

/// Injects one probe per classification rule on an access switch's radio
/// port (port 1), in table order: rules that match subscriber-facing fields
/// there (not transit/label rules, rules pinned to other ports or rules for
/// another BS group) and that `accept(match)` takes. `visit(sw, rule,
/// result)` sees each probe's delivery. Both audits probe through here.
template <class Accept, class Visit>
void probe_classifiers(dataplane::PhysicalNetwork& net, Accept&& accept, Visit&& visit) {
  for (SwitchId sw_id : net.all_switches()) {
    if (!net.is_access_switch(sw_id)) continue;
    const dataplane::Switch* access = net.sw(sw_id);
    const dataplane::Port* radio = access->port(PortId{1});
    if (radio == nullptr || radio->peer != dataplane::PeerKind::kBsGroup) continue;
    const BsGroupId group = radio->bs_group;

    for (const dataplane::FlowRule& rule : access->table().rules()) {
      const dataplane::Match& match = rule.match;
      if (match.label.has_value()) continue;
      if (match.in_port && !(*match.in_port == PortId{1})) continue;
      if (!match.ue && !match.dst_prefix && !match.bs_group) continue;
      if (match.bs_group && !(*match.bs_group == group)) continue;  // unmatchable here
      if (!accept(match)) continue;

      Packet probe;
      probe.ue = match.ue.value_or(UeId{0});
      probe.dst_prefix = match.dst_prefix.value_or(PrefixId{0});
      if (match.version) probe.version = *match.version;
      visit(sw_id, rule, net.inject_at(probe, Endpoint{sw_id, PortId{1}}, group));
    }
  }
}

/// The slice a rule's actions tag packets with, if any action applies a
/// policy tag.
std::optional<SliceId> tag_slice_of(const dataplane::FlowRule& rule) {
  for (const dataplane::Action& a : rule.actions) {
    if (a.type != dataplane::ActionType::kPushLabel &&
        a.type != dataplane::ActionType::kSwapLabel)
      continue;
    if (auto tag = dataplane::decode_tag(a.label.value)) return tag->slice;
  }
  return std::nullopt;
}

/// Finds the rule on `sw` that applies tag `tag` (the culprit behind a
/// mid-flight tag observation). Falls back to cookie 0 when the rule was
/// removed between probe and scan.
std::uint64_t cookie_applying_tag(const dataplane::Switch* sw, std::uint32_t tag) {
  if (sw == nullptr) return 0;
  for (const dataplane::FlowRule& rule : sw->table().rules()) {
    for (const dataplane::Action& a : rule.actions) {
      if ((a.type == dataplane::ActionType::kPushLabel ||
           a.type == dataplane::ActionType::kSwapLabel) &&
          a.label.value == tag)
        return rule.cookie;
    }
  }
  return 0;
}

}  // namespace

AuditReport audit_data_plane(dataplane::PhysicalNetwork& net) {
  AuditReport report;
  auto every_classifier = [](const dataplane::Match&) { return true; };
  probe_classifiers(net, every_classifier, [&](SwitchId sw_id, const dataplane::FlowRule& rule,
                                               const DeliveryReport& result) {
    ++report.classifiers_probed;
    bool ok = result.outcome == DeliveryReport::Outcome::kExternal ||
              result.outcome == DeliveryReport::Outcome::kDeliveredToRan;
    std::size_t depth = result.packet.max_depth_seen();
    switch (result.outcome) {
      case DeliveryReport::Outcome::kExternal:
      case DeliveryReport::Outcome::kDeliveredToRan:
        ++report.delivered;
        break;
      case DeliveryReport::Outcome::kToController:
        ++report.punted;
        break;
      case DeliveryReport::Outcome::kDropped:
        ++report.dropped;
        break;
      case DeliveryReport::Outcome::kLooped:
        ++report.looped;
        break;
      case DeliveryReport::Outcome::kError:
        ++report.action_errors;
        break;
    }
    // §4.3: never more than one label on the wire, and push/pop balanced —
    // a packet delivered with labels still stacked escaped its region.
    bool stack_residue = ok && !result.packet.labels.empty();
    if (depth > 1 || stack_residue) ++report.label_violations;
    if (!ok || depth > 1 || stack_residue) {
      report.findings.push_back(AuditFinding{sw_id, rule.cookie, result.outcome, depth});
    }
  });
  return report;
}

SliceAuditReport audit_slice_isolation(dataplane::PhysicalNetwork& net,
                                       const core::FlatMap<UeId, SliceId>& ue_slices) {
  SliceAuditReport report;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;  // (sw, cookie) dedup
  auto add_finding = [&](SwitchId sw, std::uint64_t cookie, SliceId expected, SliceId found) {
    if (!seen.insert({sw.value, cookie}).second) return;
    report.findings.push_back(SliceAuditFinding{sw, cookie, expected, found});
  };

  // Pass 1 — static scan: a rule that pins a subscriber of slice A but tags
  // with slice B is a cross-tenant leak regardless of whether traffic hits it.
  for (SwitchId sw_id : net.all_switches()) {
    const dataplane::Switch* sw = net.sw(sw_id);
    if (sw == nullptr) continue;
    for (const dataplane::FlowRule& rule : sw->table().rules()) {
      ++report.rules_scanned;
      if (!rule.match.ue) continue;
      auto it = ue_slices.find(*rule.match.ue);
      if (it == ue_slices.end()) continue;
      std::optional<SliceId> tagged = tag_slice_of(rule);
      if (tagged && !(*tagged == it->second))
        add_finding(sw_id, rule.cookie, it->second, *tagged);
    }
  }

  // Pass 2 — probe walk: inject from every access classifier of a known
  // tenant and verify each tag the packet carries decodes to that tenant.
  auto known_tenant = [&](const dataplane::Match& match) {
    return match.ue && ue_slices.find(*match.ue) != ue_slices.end();
  };
  probe_classifiers(net, known_tenant, [&](SwitchId, const dataplane::FlowRule& rule,
                                           const DeliveryReport& result) {
    const SliceId expected = *ue_slices.find_value(*rule.match.ue);
    ++report.probes_sent;
    for (const Packet::HopRecord& hop : result.packet.trace) {
      auto tag = dataplane::decode_tag(hop.top_label_on_entry.value);
      if (!tag) continue;
      ++report.tagged_hops_checked;
      SliceId found = tag->slice;
      if (!(found == expected))
        add_finding(hop.sw, cookie_applying_tag(net.sw(hop.sw), hop.top_label_on_entry.value),
                    expected, found);
    }
  });
  return report;
}

}  // namespace softmow::mgmt
