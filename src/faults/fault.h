// Deterministic fault-injection model (paper §6, "Failure Recovery").
//
// A fault plan is a declarative, seeded list of timed events against a built
// scenario: link flaps, switch crashes/restarts, leaf controller crashes and
// southbound channel impairments. The injector applies each event at an
// engine barrier (between sim::ShardedSimulator::run() windows) and the
// recovery coordinator drives the control plane back to a verified-clean
// state, so a fixed (plan, seed) replays event-for-event identically on every
// run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ids.h"
#include "dataplane/flow_table.h"
#include "sim/time.h"
#include "southbound/channel.h"

namespace softmow::faults {

enum class FaultKind : std::uint8_t {
  kLinkDown,         ///< physical link fails (PortStatus at both ends, §6)
  kLinkUp,           ///< the link heals
  kSwitchCrash,      ///< switch dies: volatile TCAM wiped, agent unreachable
  kSwitchRestart,    ///< switch boots: fresh Hello, controller resyncs rules
  kControllerCrash,  ///< leaf controller dies: hot standby promotes (§6)
  kChannelImpair,    ///< southbound channels of one leaf drop/dup/delay
  kChannelClear,     ///< impairment lifted
  kRogueRule,        ///< rule injected into a switch TCAM behind the
                     ///< controller's back (e.g. a cross-tenant policy tag);
                     ///< the owning leaf removes it by cookie once audited
};

/// Stable metric/label tag ("link-down", "switch-crash", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// One timed fault. Only the fields relevant to `kind` are meaningful.
struct FaultEvent {
  sim::TimePoint at;
  FaultKind kind = FaultKind::kLinkDown;
  LinkId link;           ///< kLinkDown / kLinkUp
  SwitchId sw;           ///< kSwitchCrash / kSwitchRestart / kRogueRule target
  std::size_t leaf = 0;  ///< kControllerCrash / kChannelImpair / kChannelClear
  southbound::Impairment impair;  ///< kChannelImpair profile
  dataplane::FlowRule rogue;      ///< kRogueRule payload (installed verbatim)

  [[nodiscard]] std::string str() const;
};

/// A named, seeded fault plan. Events are applied in `at` order (ties keep
/// list order). Every catalog plan ends with the network restored — links
/// up, switches running, impairments cleared — so post-plan verification
/// must come back clean.
struct FaultScenario {
  std::string name;
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;
};

}  // namespace softmow::faults
