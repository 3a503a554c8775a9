// Shared controller checkpoint format (paper §6): the "reliable storage
// system ... shared between the master and standby" holds everything a
// replacement instance cannot re-derive from the data plane — the
// management-configured G-BS/middlebox inventory, learned interdomain
// routes, border sets, the installed-path book (labels, cookies,
// reservations) and the RecA agent's map from parent rules to the local
// paths translating them.
//
// Both consumers speak this one format:
//  - crash failover (`HotStandby`, mgmt/failover.h) keeps a warm checkpoint
//    and promotes from it after a detected failure;
//  - planned migration (`migrate::MigrationManager`, src/migrate) streams a
//    checkpoint to the target instance and re-syncs it while the source
//    keeps serving (the dual-control catch-up window).
//
// A sync is a fresh capture priced against the stored checkpoint, which it
// then replaces: unchanged entries cost nothing on the wire, changed G-BS,
// middlebox, path, tag-aggregate and parent-cookie entries are priced
// individually, and every sync pays a fixed header. The price is modeled
// (deterministic arithmetic over entry counts, never wall clock), and is
// what the `migration_bytes_transferred` metric and the failover checkpoint
// accounting report.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/ids.h"
#include "nos/nib.h"
#include "nos/path_impl.h"
#include "reca/controller.h"
#include "southbound/messages.h"

namespace softmow::mgmt {

/// What one `Checkpoint::sync` shipped.
struct SyncCost {
  /// False when every section matched the stored checkpoint (the allocator
  /// cursors, always shipped, do not count as a change).
  bool changed = false;
  /// Modeled wire bytes, fixed header included. Against an empty checkpoint
  /// this is the size of the whole capture.
  std::uint64_t bytes = 0;
};

/// A full copy of one controller's non-derivable state.
struct Checkpoint {
  /// Devices the controller had adopted (the replacement re-adopts these).
  std::vector<SwitchId> devices;
  std::vector<southbound::GBsAnnounce> gbs;
  std::vector<southbound::GMiddleboxAnnounce> middleboxes;
  std::vector<nos::ExternalRoute> routes;
  std::set<GBsId> border_gbs;
  /// Installed paths + label/cookie allocators: without this the restored
  /// controller could not tear down, repair, or resync the rules its
  /// predecessor left in the data plane (and would re-mint colliding labels).
  nos::PathImplementer::Snapshot paths;
  /// The RecA agent's parent-cookie map: which local paths translate each
  /// rule the parent installed on this controller's G-switch. Without it
  /// the restored controller would translate the parent's resync again and
  /// could not remove the parent's rules by cookie.
  reca::RecAAgent::ParentCookies parent_cookies;

  /// Captures `master` (non-const: the NIB's list accessors refresh
  /// version-keyed caches), prices the change against the state held here
  /// and replaces it with the capture. G-BS, middlebox and parent-cookie
  /// entries compare by equality, paths and tag aggregates by content
  /// fingerprint; devices, routes and borders ship whole when they differ;
  /// each vanished entry costs a removal record.
  SyncCost sync(reca::Controller& master);
};

/// Restores the non-discoverable state of `c` from `ckpt`: NIB inventory,
/// border set, the path book and the parent-cookie map. Device adoption is
/// deliberately left to the caller — failover seizes kMaster immediately,
/// migration pre-warms sessions as kEqual during the dual-control window.
void restore_checkpoint(reca::Controller& c, const Checkpoint& ckpt);

}  // namespace softmow::mgmt
