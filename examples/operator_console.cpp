// Interactive operator console: drive a live SoftMoW deployment from the
// command line — attach subscribers, open bearers, send packets, fail and
// heal links, trigger repair and region optimization, inspect the
// hierarchy.
//
//   $ ./operator_console              # runs the built-in demo script
//   $ ./operator_console -            # read commands from stdin
//
// Commands: help | stats | links | attach <ue> <bs> | bearer <ue> <prefix>
//           [min_kbps] | send <ue> <prefix> | handover <ue> <bs> |
//           fail-link <id> | heal-link <id> | repair | optimize | quit
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "softmow/softmow.h"

using namespace softmow;

namespace {

class Console {
 public:
  Console() : scenario_(topo::build_scenario(topo::small_scenario_params(21))) {}

  bool dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") return help();
    if (cmd == "stats") return stats();
    if (cmd == "links") return links();
    if (cmd == "attach") return attach(in);
    if (cmd == "bearer") return bearer(in);
    if (cmd == "send") return send(in);
    if (cmd == "handover") return handover(in);
    if (cmd == "fail-link") return set_link(in, false);
    if (cmd == "heal-link") return set_link(in, true);
    if (cmd == "repair") return repair();
    if (cmd == "optimize") return optimize();
    if (cmd == "audit") return audit();
    std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
    return true;
  }

 private:
  bool help() {
    std::printf(
        "commands:\n"
        "  stats                    controller hierarchy summary\n"
        "  links                    physical links (id, endpoints, state)\n"
        "  attach <ue> <bs>         attach subscriber <ue> at base station <bs>\n"
        "  bearer <ue> <prefix> [kbps]   open a bearer (optionally guaranteed-rate)\n"
        "  send <ue> <prefix>       inject an uplink packet and report its fate\n"
        "  handover <ue> <bs>       hand the UE over (intra- or inter-region)\n"
        "  fail-link <id> / heal-link <id>\n"
        "  repair                   re-route broken paths at every controller\n"
        "  optimize                 one region-optimization round at the root\n"
        "  audit                    probe every installed classifier end to end\n"
        "  quit\n");
    return true;
  }

  bool stats() {
    auto& mp = *scenario_->mgmt;
    std::printf("%zu leaves under %s; %zu base stations in %zu groups; %zu rules installed\n",
                mp.leaf_count(), mp.root().name().c_str(),
                scenario_->net.base_stations().size(), scenario_->trace.groups.size(),
                scenario_->net.total_rules());
    for (reca::Controller* c : mp.all_controllers()) {
      auto s = c->abstraction().stats();
      std::printf("  %-10s level %d: %3zu switches, %3zu links, %3zu ports exposed, "
                  "%3zu active paths\n",
                  c->name().c_str(), c->level(), s.switches, s.links, s.exposed_ports,
                  c->paths().paths().size());
    }
    return true;
  }

  bool links() {
    for (LinkId id : scenario_->net.links()) {
      const dataplane::Link* l = scenario_->net.link(id);
      if (scenario_->net.is_access_switch(l->a.sw) ||
          scenario_->net.is_access_switch(l->b.sw))
        continue;
      std::printf("  %-5s %s <-> %s  %s\n", id.str().c_str(), l->a.sw.str().c_str(),
                  l->b.sw.str().c_str(), l->up ? "up" : "DOWN");
    }
    return true;
  }

  bool attach(std::istringstream& in) {
    std::uint64_t ue = 0, bs = 0;
    if (!(in >> ue >> bs)) return usage("attach <ue> <bs>");
    const auto* station = scenario_->net.base_station(BsId{bs});
    if (station == nullptr) return complain("no such base station");
    auto& mobility = scenario_->apps->mobility(*scenario_->mgmt->leaf_of_group(station->group));
    auto result = mobility.ue_attach(UeId{ue}, BsId{bs});
    std::printf(result.ok() ? "ue%llu attached at bs%llu (%s)\n" : "attach failed\n",
                (unsigned long long)ue, (unsigned long long)bs,
                scenario_->mgmt->leaf_of_group(station->group)->name().c_str());
    return true;
  }

  apps::MobilityApp* mobility_of(UeId ue) {
    for (reca::Controller* leaf : scenario_->mgmt->leaves()) {
      auto& mobility = scenario_->apps->mobility(*leaf);
      if (mobility.ue(ue) != nullptr) return &mobility;
    }
    return nullptr;
  }

  bool bearer(std::istringstream& in) {
    std::uint64_t ue = 0, prefix = 0;
    double kbps = 0;
    if (!(in >> ue >> prefix)) return usage("bearer <ue> <prefix> [kbps]");
    in >> kbps;
    apps::MobilityApp* mobility = mobility_of(UeId{ue});
    if (mobility == nullptr) return complain("UE not attached anywhere");
    apps::BearerRequest request;
    request.ue = UeId{ue};
    request.bs = mobility->ue(UeId{ue})->bs;
    request.dst_prefix = PrefixId{prefix};
    request.qos.min_bandwidth_kbps = kbps;
    auto result = mobility->request_bearer(request);
    if (!result.ok()) {
      std::printf("bearer failed: %s\n", result.error().message.c_str());
      return true;
    }
    const auto& rec = mobility->ue(UeId{ue})->bearers.at(*result);
    std::printf("bearer %s up: handled at level %d (%s)\n", result->str().c_str(),
                rec.handled_level, rec.handled_locally ? "local" : "delegated");
    return true;
  }

  bool send(std::istringstream& in) {
    std::uint64_t ue = 0, prefix = 0;
    if (!(in >> ue >> prefix)) return usage("send <ue> <prefix>");
    apps::MobilityApp* mobility = mobility_of(UeId{ue});
    if (mobility == nullptr) return complain("UE not attached anywhere");
    Packet pkt;
    pkt.ue = UeId{ue};
    pkt.dst_prefix = PrefixId{prefix};
    auto report = scenario_->net.inject_uplink(pkt, mobility->ue(UeId{ue})->bs);
    switch (report.outcome) {
      case dataplane::DeliveryReport::Outcome::kExternal:
        std::printf("delivered via %s: %.0f hops, %.1f ms, max label depth %zu\n",
                    scenario_->net.egress(report.egress)->peer_name.c_str(), report.hops,
                    report.latency.to_millis(), report.packet.max_depth_seen());
        break;
      case dataplane::DeliveryReport::Outcome::kToController:
        std::printf("punted to the controller (no matching path)\n");
        break;
      default:
        std::printf("packet lost (outcome %d)\n", static_cast<int>(report.outcome));
    }
    return true;
  }

  bool handover(std::istringstream& in) {
    std::uint64_t ue = 0, bs = 0;
    if (!(in >> ue >> bs)) return usage("handover <ue> <bs>");
    apps::MobilityApp* mobility = mobility_of(UeId{ue});
    if (mobility == nullptr) return complain("UE not attached anywhere");
    auto result = mobility->handover(UeId{ue}, BsId{bs});
    std::printf(result.ok() ? "handover complete\n" : "handover failed: %s\n",
                result.ok() ? "" : result.error().message.c_str());
    return true;
  }

  bool set_link(std::istringstream& in, bool up) {
    std::uint64_t id = 0;
    if (!(in >> id)) return usage("fail-link|heal-link <id>");
    auto result = scenario_->net.set_link_up(LinkId{id}, up);
    std::printf(result.ok() ? "link %llu is now %s\n" : "no such link\n",
                (unsigned long long)id, up ? "up" : "down");
    return true;
  }

  bool repair() {
    std::size_t repaired = 0, failed = 0;
    scenario_->mgmt->refresh_topology();
    for (reca::Controller* c : scenario_->mgmt->all_controllers()) {
      auto [r, f] = c->repair_paths();
      repaired += r;
      failed += f;
    }
    std::printf("repair: %zu paths re-routed, %zu beyond repair\n", repaired, failed);
    return true;
  }

  bool optimize() {
    auto* opt = scenario_->apps->region_opt(scenario_->mgmt->root());
    apps::RegionOptConstraints constraints;
    constraints.lb_factor = 0;
    constraints.ub_factor = 100;
    auto result = opt->optimize_round(constraints, {}, /*execute=*/true);
    if (!result.ok()) {
      std::printf("optimize failed: %s\n", result.error().message.c_str());
      return true;
    }
    std::printf("optimize: %zu moves, inter-region handover weight %.0f -> %.0f\n",
                result->moves.size(), result->initial_cross_weight,
                result->final_cross_weight);
    return true;
  }

  bool audit() {
    auto report = mgmt::audit_data_plane(scenario_->net);
    std::printf("audit: %zu classifiers probed — %zu delivered, %zu punted, %zu dropped, "
                "%zu looped, %zu errors, %zu label violations -> %s\n",
                report.classifiers_probed, report.delivered, report.punted, report.dropped,
                report.looped, report.action_errors, report.label_violations,
                report.clean() ? "CLEAN" : "FINDINGS");
    for (const auto& finding : report.findings) {
      std::printf("  finding: %s cookie %llu outcome %d depth %zu\n",
                  finding.access_switch.str().c_str(),
                  (unsigned long long)finding.cookie, static_cast<int>(finding.outcome),
                  finding.max_label_depth);
    }
    return true;
  }

  bool usage(const char* text) {
    std::printf("usage: %s\n", text);
    return true;
  }
  bool complain(const char* text) {
    std::printf("%s\n", text);
    return true;
  }

  std::unique_ptr<topo::Scenario> scenario_;
};

}  // namespace

int main(int argc, char** argv) {
  Console console;
  bool from_stdin = argc > 1 && std::string(argv[1]) == "-";

  if (!from_stdin) {
    // Scripted demo: a subscriber's day, including a link failure.
    const char* script[] = {
        "help",    "stats",        "attach 1 0",   "bearer 1 5", "send 1 5",
        "audit",   "links",        "fail-link 0",  "repair",     "send 1 5",
        "heal-link 0", "optimize", "audit",        "stats",
    };
    for (const char* line : script) {
      std::printf("\nsoftmow> %s\n", line);
      if (!console.dispatch(line)) break;
    }
    return 0;
  }

  std::string line;
  std::printf("softmow> ");
  while (std::getline(std::cin, line)) {
    if (!console.dispatch(line)) break;
    std::printf("softmow> ");
  }
  return 0;
}
