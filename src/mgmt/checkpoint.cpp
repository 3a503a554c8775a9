#include "mgmt/checkpoint.h"

#include <algorithm>

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

// --- section equality --------------------------------------------------------
bool eq(const southbound::GBsAnnounce& a, const southbound::GBsAnnounce& b) {
  return a.gbs == b.gbs && a.attached_switch == b.attached_switch &&
         a.attached_port == b.attached_port && a.is_border == b.is_border &&
         a.coverage_radius == b.coverage_radius && a.centroid.x == b.centroid.x &&
         a.centroid.y == b.centroid.y && a.constituent_groups == b.constituent_groups &&
         a.withdrawn == b.withdrawn;
}

bool eq(const southbound::GMiddleboxAnnounce& a, const southbound::GMiddleboxAnnounce& b) {
  return a.gmb == b.gmb && a.type == b.type &&
         a.total_capacity_kbps == b.total_capacity_kbps && a.utilization == b.utilization &&
         a.attached_switch == b.attached_switch && a.attached_port == b.attached_port &&
         a.withdrawn == b.withdrawn;
}

bool eq(const nos::ExternalRoute& a, const nos::ExternalRoute& b) {
  return a.egress == b.egress && a.prefix == b.prefix && a.hops == b.hops &&
         a.latency_us == b.latency_us;
}

bool eq(const std::vector<nos::ExternalRoute>& a, const std::vector<nos::ExternalRoute>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!eq(a[i], b[i])) return false;
  return true;
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

}  // namespace

std::uint64_t Checkpoint::estimated_bytes() const {
  std::uint64_t bytes = kHeaderBytes + kAllocatorBytes;
  bytes += kDeviceBytes * devices.size();
  for (const southbound::GBsAnnounce& g : gbs) bytes += gbs_bytes(g);
  bytes += kMiddleboxBytes * middleboxes.size();
  bytes += kRouteBytes * routes.size();
  bytes += kBorderBytes * border_gbs.size();
  for (const auto& [id, p] : paths.paths) bytes += path_bytes(p);
  for (const auto& [tag, a] : paths.aggregates) bytes += aggregate_bytes(a);
  return bytes;
}

Checkpoint capture_checkpoint(reca::Controller& master) {
  Checkpoint c;
  c.nib_version = master.nib().version();
  c.devices = master.devices();
  for (GBsId id : master.nib().gbs_list()) c.gbs.push_back(*master.nib().gbs(id));
  for (MiddleboxId id : master.nib().middleboxes())
    c.middleboxes.push_back(*master.nib().middlebox(id));
  c.routes = master.nib().all_external_routes();
  c.border_gbs = master.abstraction().border_gbs();
  c.paths = master.paths().snapshot();
  return c;
}

void restore_checkpoint(reca::Controller& c, const Checkpoint& ckpt) {
  for (const southbound::GBsAnnounce& g : ckpt.gbs) c.nib().upsert_gbs(g);
  for (const southbound::GMiddleboxAnnounce& m : ckpt.middleboxes) c.nib().upsert_middlebox(m);
  for (const nos::ExternalRoute& r : ckpt.routes) c.nib().upsert_external_route(r);
  c.abstraction().set_border_gbs(ckpt.border_gbs);
  c.paths().restore(ckpt.paths);
}

bool CheckpointDelta::empty() const {
  return !devices_changed && gbs_upserts.empty() && gbs_removals.empty() &&
         middlebox_upserts.empty() && middlebox_removals.empty() && !routes_changed &&
         !borders_changed && path_upserts.empty() && path_removals.empty() &&
         aggregate_upserts.empty() && aggregate_removals.empty();
}

std::uint64_t CheckpointDelta::estimated_bytes() const {
  std::uint64_t bytes = kHeaderBytes + kAllocatorBytes;
  if (devices_changed) bytes += kDeviceBytes * devices.size();
  for (const southbound::GBsAnnounce& g : gbs_upserts) bytes += gbs_bytes(g);
  bytes += kBorderBytes * gbs_removals.size();
  bytes += kMiddleboxBytes * middlebox_upserts.size();
  bytes += kBorderBytes * middlebox_removals.size();
  if (routes_changed) bytes += kRouteBytes * routes.size();
  if (borders_changed) bytes += kBorderBytes * border_gbs.size();
  for (const nos::InstalledPath& p : path_upserts) bytes += path_bytes(p);
  bytes += kBorderBytes * path_removals.size();
  for (const auto& [tag, a] : aggregate_upserts) bytes += aggregate_bytes(a);
  bytes += kBorderBytes * aggregate_removals.size();
  return bytes;
}

CheckpointDelta delta_since(const Checkpoint& base, reca::Controller& master) {
  Checkpoint fresh = capture_checkpoint(master);
  CheckpointDelta d;
  d.base_nib_version = base.nib_version;
  d.nib_version = fresh.nib_version;

  if (fresh.devices != base.devices) {
    d.devices_changed = true;
    d.devices = fresh.devices;
  }

  // Keyed sections: upsert what is new or changed, remove what vanished.
  // Both sides are in ascending id order (NIB list accessors sort), so a
  // linear merge stays deterministic.
  {
    std::map<GBsId, const southbound::GBsAnnounce*> old;
    for (const auto& g : base.gbs) old[g.gbs] = &g;
    for (const auto& g : fresh.gbs) {
      auto it = old.find(g.gbs);
      if (it == old.end() || !eq(*it->second, g)) d.gbs_upserts.push_back(g);
      if (it != old.end()) old.erase(it);
    }
    for (const auto& [id, g] : old) d.gbs_removals.push_back(id);
  }
  {
    std::map<MiddleboxId, const southbound::GMiddleboxAnnounce*> old;
    for (const auto& m : base.middleboxes) old[m.gmb] = &m;
    for (const auto& m : fresh.middleboxes) {
      auto it = old.find(m.gmb);
      if (it == old.end() || !eq(*it->second, m)) d.middlebox_upserts.push_back(m);
      if (it != old.end()) old.erase(it);
    }
    for (const auto& [id, m] : old) d.middlebox_removals.push_back(id);
  }

  if (!eq(fresh.routes, base.routes)) {
    d.routes_changed = true;
    d.routes = fresh.routes;
  }
  if (fresh.border_gbs != base.border_gbs) {
    d.borders_changed = true;
    d.border_gbs = fresh.border_gbs;
  }

  for (const auto& [id, p] : fresh.paths.paths) {
    auto it = base.paths.paths.find(id);
    if (it == base.paths.paths.end() || fingerprint(it->second) != fingerprint(p))
      d.path_upserts.push_back(p);
  }
  for (const auto& [id, p] : base.paths.paths) {
    if (!fresh.paths.paths.contains(id)) d.path_removals.push_back(id);
  }
  for (const auto& [tag, a] : fresh.paths.aggregates) {
    auto it = base.paths.aggregates.find(tag);
    if (it == base.paths.aggregates.end() || fingerprint(it->second) != fingerprint(a))
      d.aggregate_upserts.emplace(tag, a);
  }
  for (const auto& [tag, a] : base.paths.aggregates) {
    if (!fresh.paths.aggregates.contains(tag)) d.aggregate_removals.push_back(tag);
  }
  d.next_label = fresh.paths.next_label;
  d.next_cookie = fresh.paths.next_cookie;
  d.next_path = fresh.paths.next_path;
  return d;
}

void apply_delta(Checkpoint& base, const CheckpointDelta& delta) {
  base.nib_version = delta.nib_version;
  if (delta.devices_changed) base.devices = delta.devices;

  auto upsert_by = [](auto& vec, const auto& item, auto key) {
    auto it = std::find_if(vec.begin(), vec.end(),
                           [&](const auto& existing) { return key(existing) == key(item); });
    if (it != vec.end())
      *it = item;
    else
      vec.push_back(item);
  };
  auto remove_by = [](auto& vec, const auto& id, auto key) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const auto& existing) { return key(existing) == id; }),
              vec.end());
  };

  auto gbs_key = [](const southbound::GBsAnnounce& g) { return g.gbs; };
  for (const auto& g : delta.gbs_upserts) upsert_by(base.gbs, g, gbs_key);
  for (GBsId id : delta.gbs_removals) remove_by(base.gbs, id, gbs_key);
  std::sort(base.gbs.begin(), base.gbs.end(),
            [](const auto& a, const auto& b) { return a.gbs < b.gbs; });

  auto mb_key = [](const southbound::GMiddleboxAnnounce& m) { return m.gmb; };
  for (const auto& m : delta.middlebox_upserts) upsert_by(base.middleboxes, m, mb_key);
  for (MiddleboxId id : delta.middlebox_removals) remove_by(base.middleboxes, id, mb_key);
  std::sort(base.middleboxes.begin(), base.middleboxes.end(),
            [](const auto& a, const auto& b) { return a.gmb < b.gmb; });

  if (delta.routes_changed) base.routes = delta.routes;
  if (delta.borders_changed) base.border_gbs = delta.border_gbs;

  for (const nos::InstalledPath& p : delta.path_upserts) base.paths.paths[p.id] = p;
  for (PathId id : delta.path_removals) base.paths.paths.erase(id);
  for (const auto& [tag, a] : delta.aggregate_upserts) base.paths.aggregates[tag] = a;
  for (std::uint32_t tag : delta.aggregate_removals) base.paths.aggregates.erase(tag);
  base.paths.next_label = delta.next_label;
  base.paths.next_cookie = delta.next_cookie;
  base.paths.next_path = delta.next_path;
}

}  // namespace softmow::mgmt
