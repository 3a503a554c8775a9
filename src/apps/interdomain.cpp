#include "apps/interdomain.h"

#include "core/log.h"

namespace softmow::apps {

using nos::ExternalRoute;
using southbound::AppMessage;

InterdomainApp::InterdomainApp(reca::Controller* controller) : controller_(controller) {
  register_handlers();
}

void InterdomainApp::rebind(reca::Controller* controller) {
  controller_ = controller;
  register_handlers();
}

void InterdomainApp::register_handlers() {
  // Routes arriving from children (already translated into this
  // controller's ID space by the child's RecA before sending).
  controller_->register_child_app_handler(
      kInterdomainRouteMsg, [this](SwitchId /*child*/, const AppMessage& msg) {
        if (const auto* route = std::any_cast<ExternalRoute>(&msg.body)) {
          install_and_propagate(*route);
        }
      });
}

void InterdomainApp::originate(const ExternalPathProvider& provider) {
  // §4.2: leaf controllers run route selection on behalf of their gateway
  // switches, one session per eBGP-speaking neighbor.
  auto prefixes = provider.prefixes();
  for (SwitchId sw : controller_->nib().switches()) {
    const nos::SwitchRecord* rec = controller_->nib().sw(sw);
    for (const auto& [pid, desc] : rec->ports) {
      if (desc.peer != dataplane::PeerKind::kExternal || !desc.egress.valid()) continue;
      for (PrefixId prefix : prefixes) {
        auto cost = provider.cost(desc.egress, prefix);
        if (!cost) continue;
        install_and_propagate(
            ExternalRoute{Endpoint{sw, pid}, prefix, cost->hops, cost->latency_us});
      }
    }
  }
}

void InterdomainApp::install_and_propagate(ExternalRoute route) {
  controller_->nib().upsert_external_route(route);

  if (!controller_->reca().has_parent()) return;
  // Translate the egress endpoint into the parent's view: it is a border
  // port of our G-switch (egress ports are always exposed).
  controller_->abstraction().refresh();
  auto exposed = controller_->abstraction().to_exposed(route.egress);
  if (!exposed) {
    SOFTMOW_LOG(LogLevel::kWarn, "interdomain")
        << controller_->name() << " egress endpoint not exposed; route not propagated";
    return;
  }
  ExternalRoute up = route;
  up.egress = Endpoint{controller_->abstraction().gswitch_id(), *exposed};
  AppMessage msg;
  msg.type = kInterdomainRouteMsg;
  msg.body = up;
  controller_->reca().send_up(std::move(msg));
}

}  // namespace softmow::apps
