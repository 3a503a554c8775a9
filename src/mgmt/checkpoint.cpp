#include "mgmt/checkpoint.h"

#include <functional>
#include <iterator>

namespace softmow::mgmt {

namespace {

// --- modeled wire sizes (bytes) ---------------------------------------------
// Fixed per-record costs chosen to track the real serialized footprint of
// each section: ids and doubles at 8 bytes, plus a small framing overhead.
constexpr std::uint64_t kHeaderBytes = 64;
constexpr std::uint64_t kDeviceBytes = 8;
constexpr std::uint64_t kRouteBytes = 40;
constexpr std::uint64_t kBorderBytes = 8;
constexpr std::uint64_t kMiddleboxBytes = 48;
constexpr std::uint64_t kAllocatorBytes = 24;
constexpr std::uint64_t kRemovalBytes = 8;

std::uint64_t gbs_bytes(const southbound::GBsAnnounce& g) {
  return 56 + 8 * g.constituent_groups.size();
}

std::uint64_t path_bytes(const nos::InstalledPath& p) {
  return 72 + 16 * p.rules.size() + 16 * p.reserved_links.size() +
         16 * p.reserved_middleboxes.size() + 24 * p.route.hops.size();
}

std::uint64_t aggregate_bytes(const nos::TagAggregate& a) {
  return 40 + 16 * a.rules.size() + 24 * a.route.hops.size();
}

std::uint64_t parent_cookie_bytes(const std::vector<PathId>& paths) {
  return 16 + 8 * paths.size();
}

// Content fingerprint of a path/aggregate entry (FNV-1a over the fields a
// resync cares about: label, installed rules, reservations and the
// route skeleton). Two entries with equal fingerprints restore identically.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

std::uint64_t fingerprint(const nos::InstalledPath& p) {
  std::uint64_t h = 1469598103934665603ull;
  mix(h, p.id.value);
  mix(h, p.label.value);
  mix(h, p.label.owner_level);
  mix(h, static_cast<std::uint64_t>(p.options.priority));
  for (const auto& [sw, cookie] : p.rules) {
    mix(h, sw.value);
    mix(h, cookie);
  }
  for (const Endpoint& e : p.reserved_links) {
    mix(h, e.sw.value);
    mix(h, e.port.value);
  }
  for (const auto& [mb, frac] : p.reserved_middleboxes) {
    mix(h, mb.value);
    mix(h, static_cast<std::uint64_t>(frac * 1e6));
  }
  for (const nos::RouteHop& hop : p.route.hops) mix(h, hop.sw.value);
  return h;
}

std::uint64_t fingerprint(const nos::TagAggregate& a) {
  std::uint64_t h = 1469598103934665603ull;
  mix(h, a.tag.value);
  mix(h, a.refs);
  for (const auto& [sw, cookie] : a.rules) {
    mix(h, sw.value);
    mix(h, cookie);
  }
  for (const nos::RouteHop& hop : a.route.hops) mix(h, hop.sw.value);
  return h;
}

/// Bytes that move a keyed section from `old` to `fresh`, both in ascending
/// key order: an entry that is new or not `same` as the stored one ships
/// whole (`size`), a key that vanished ships as a removal record.
template <class Section, class Key, class Same, class Size>
std::uint64_t keyed_bytes(const Section& old, const Section& fresh, Key key, Same same,
                          Size size) {
  std::uint64_t bytes = 0;
  auto o = old.begin();
  for (const auto& e : fresh) {
    for (; o != old.end() && key(*o) < key(e); ++o) bytes += kRemovalBytes;
    if (o != old.end() && key(*o) == key(e)) {
      if (!same(*o, e)) bytes += size(e);
      ++o;
    } else {
      bytes += size(e);
    }
  }
  return bytes + kRemovalBytes * static_cast<std::uint64_t>(std::distance(o, old.end()));
}

Checkpoint capture_checkpoint(reca::Controller& master) {
  Checkpoint c;
  c.devices = master.devices();
  for (GBsId id : master.nib().gbs_list()) c.gbs.push_back(*master.nib().gbs(id));
  for (MiddleboxId id : master.nib().middleboxes())
    c.middleboxes.push_back(*master.nib().middlebox(id));
  c.routes = master.nib().all_external_routes();
  c.border_gbs = master.abstraction().border_gbs();
  c.paths = master.paths().snapshot();
  c.parent_cookies = master.reca().parent_cookies();
  return c;
}

}  // namespace

SyncCost Checkpoint::sync(reca::Controller& master) {
  Checkpoint fresh = capture_checkpoint(master);
  auto by_first = [](const auto& entry) { return entry.first; };
  auto same_content = [](const auto& a, const auto& b) {
    return fingerprint(a.second) == fingerprint(b.second);
  };
  SyncCost cost;
  cost.bytes =
      keyed_bytes(gbs, fresh.gbs, [](const auto& g) { return g.gbs; }, std::equal_to<>{},
                  gbs_bytes) +
      keyed_bytes(middleboxes, fresh.middleboxes, [](const auto& m) { return m.gmb; },
                  std::equal_to<>{}, [](const auto&) { return kMiddleboxBytes; }) +
      keyed_bytes(paths.paths, fresh.paths.paths, by_first, same_content,
                  [](const auto& p) { return path_bytes(p.second); }) +
      keyed_bytes(paths.aggregates, fresh.paths.aggregates, by_first, same_content,
                  [](const auto& a) { return aggregate_bytes(a.second); }) +
      keyed_bytes(parent_cookies, fresh.parent_cookies, by_first, std::equal_to<>{},
                  [](const auto& c) { return parent_cookie_bytes(c.second); });
  cost.changed = cost.bytes != 0;
  // The small unkeyed sections ship whole when they differ at all.
  auto whole = [&](bool differs, std::uint64_t bytes) {
    if (!differs) return;
    cost.changed = true;
    cost.bytes += bytes;
  };
  whole(fresh.devices != devices, kDeviceBytes * fresh.devices.size());
  whole(fresh.routes != routes, kRouteBytes * fresh.routes.size());
  whole(fresh.border_gbs != border_gbs, kBorderBytes * fresh.border_gbs.size());
  cost.bytes += kHeaderBytes + kAllocatorBytes;
  *this = std::move(fresh);
  return cost;
}

void restore_checkpoint(reca::Controller& c, const Checkpoint& ckpt) {
  for (const southbound::GBsAnnounce& g : ckpt.gbs) c.nib().upsert_gbs(g);
  for (const southbound::GMiddleboxAnnounce& m : ckpt.middleboxes) c.nib().upsert_middlebox(m);
  for (const nos::ExternalRoute& r : ckpt.routes) c.nib().upsert_external_route(r);
  c.abstraction().set_border_gbs(ckpt.border_gbs);
  c.paths().restore(ckpt.paths);
  c.reca().restore_parent_cookies(ckpt.parent_cookies);
}

}  // namespace softmow::mgmt
