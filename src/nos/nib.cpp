#include "nos/nib.h"

#include <algorithm>

namespace softmow::nos {

const southbound::PortDesc* SwitchRecord::port(PortId p) const {
  auto it = ports.find(p);
  return it == ports.end() ? nullptr : &it->second;
}

void Nib::bump() {
  SHARD_CHECKED(guard_, kWrite);
  ++version_;
  if (notifying_) return;  // avoid re-entrant notification storms
  notifying_ = true;
  for (auto& s : subscribers_) s();
  notifying_ = false;
}

void Nib::stamp_bandwidth(LinkRecord& l) {
  SHARD_CHECKED(guard_, kWrite);
  l.bandwidth_epoch = ++bandwidth_epoch_;
}

template <class IdT, class MapT>
std::span<const IdT> Nib::cached_ids(IdCache<IdT>& cache, const MapT& map,
                                     std::uint64_t version) {
  if (cache.version != version) {
    cache.ids.clear();
    cache.ids.reserve(map.size());
    for (const auto& [id, rec] : map) cache.ids.push_back(id);
    std::sort(cache.ids.begin(), cache.ids.end());
    cache.version = version;
  }
  return cache.ids;
}

void Nib::upsert_switch(SwitchRecord rec) {
  const SwitchId id = rec.id;
  switches_.insert_or_assign(id, std::move(rec));
  bump();
}

Result<void> Nib::remove_switch(SwitchId id) {
  if (switches_.erase(id) == 0) return {ErrorCode::kNotFound, "no such switch " + id.str()};
  remove_links_of(id);
  bump();
  return Ok();
}

Result<void> Nib::set_vfabric(SwitchId id, std::vector<southbound::VFabricEntry> entries) {
  SwitchRecord* rec = switches_.find_value(id);
  if (rec == nullptr) return {ErrorCode::kNotFound, "no such switch"};
  rec->vfabric = std::move(entries);
  bump();
  return Ok();
}

const SwitchRecord* Nib::sw(SwitchId id) const { return switches_.find_value(id); }

SwitchRecord* Nib::sw_mutable(SwitchId id) {
  SHARD_CHECKED(guard_, kWrite);  // mutable escape hatch: callers intend to write
  return switches_.find_value(id);
}

std::span<const SwitchId> Nib::switches() const {
  return cached_ids(switch_ids_, switches_, version_);
}

std::size_t Nib::total_ports() const {
  std::size_t n = 0;
  for (const auto& [id, rec] : switches_) n += rec.ports.size();
  return n;
}

namespace {
// Normalized endpoint order so (a,b) and (b,a) describe the same link.
void normalize(Endpoint& a, Endpoint& b) {
  if (b < a) std::swap(a, b);
}
}  // namespace

void Nib::index_link(std::uint32_t slot) {
  const LinkRecord& l = links_[slot];
  // try_emplace keeps the *first* link at each endpoint, matching the old
  // first-match linear scan.
  link_at_.try_emplace(l.a, slot);
  link_at_.try_emplace(l.b, slot);
  link_by_pair_.try_emplace(std::pair{l.a, l.b}, slot);
}

void Nib::rebuild_link_indexes() {
  link_at_.clear();
  link_by_pair_.clear();
  for (std::uint32_t i = 0; i < links_.size(); ++i) index_link(i);
}

void Nib::upsert_link(Endpoint a, Endpoint b, EdgeMetrics metrics) {
  normalize(a, b);
  if (const std::uint32_t* slot = link_by_pair_.find_value(std::pair{a, b})) {
    LinkRecord& l = links_[*slot];
    const double available = std::max(0.0, metrics.bandwidth_kbps - l.reserved_kbps);
    if (l.up && l.metrics.latency_us == metrics.latency_us &&
        l.metrics.hop_count == metrics.hop_count && l.metrics.bandwidth_kbps == available) {
      // Rediscovery of an unchanged link: no topology change to report.
      SHARD_CHECKED(guard_, kWrite);
      return;
    }
    l.metrics = metrics;
    l.metrics.bandwidth_kbps = available;
    l.up = true;
    bump();
    return;
  }
  links_.push_back(LinkRecord{a, b, metrics, true});
  index_link(static_cast<std::uint32_t>(links_.size() - 1));
  bump();
}

Result<void> Nib::remove_link(Endpoint a, Endpoint b) {
  normalize(a, b);
  const std::uint32_t* slot = link_by_pair_.find_value(std::pair{a, b});
  if (slot == nullptr)
    return {ErrorCode::kNotFound,
            "no link " + a.sw.str() + ":" + a.port.str() + " <-> " + b.sw.str() + ":" +
                b.port.str()};
  // Ordered erase (not swap-pop): links() iteration order is discovery order.
  links_.erase(links_.begin() + *slot);
  rebuild_link_indexes();
  bump();
  return Ok();
}

void Nib::remove_links_of(SwitchId sw) {
  auto before = links_.size();
  std::erase_if(links_, [&](const LinkRecord& l) { return l.a.sw == sw || l.b.sw == sw; });
  if (links_.size() != before) {
    rebuild_link_indexes();
    bump();
  }
}

void Nib::remove_links_at(Endpoint e) {
  auto before = links_.size();
  std::erase_if(links_, [&](const LinkRecord& l) { return l.a == e || l.b == e; });
  if (links_.size() != before) {
    rebuild_link_indexes();
    bump();
  }
}

Result<void> Nib::set_link_up(Endpoint a, Endpoint b, bool up) {
  normalize(a, b);
  if (const std::uint32_t* slot = link_by_pair_.find_value(std::pair{a, b})) {
    LinkRecord& l = links_[*slot];
    if (l.up != up) {
      l.up = up;
      bump();
    }
    return Ok();
  }
  return {ErrorCode::kNotFound, "no such link in NIB"};
}

void Nib::set_links_at_up(Endpoint e, bool up) {
  // Multi-match (every link touching e): stays a scan; port-status storms
  // are rare relative to the admission path.
  bool changed = false;
  for (LinkRecord& l : links_) {
    if ((l.a == e || l.b == e) && l.up != up) {
      l.up = up;
      changed = true;
    }
  }
  if (changed) bump();
}

Result<void> Nib::reserve_link_bandwidth(Endpoint at, double kbps) {
  const std::uint32_t* slot = link_at_.find_value(at);
  if (slot == nullptr) return {ErrorCode::kNotFound, "no link at endpoint"};
  LinkRecord& l = links_[*slot];
  if (l.metrics.bandwidth_kbps + 1e-9 < kbps)
    return {ErrorCode::kExhausted, "insufficient bandwidth on the link"};
  // Floored: the admission test tolerates 1e-9 kbps of overdraw, and
  // available bandwidth stays non-negative (a 0 kbps routing floor then
  // admits every link, which keeps vFabric trees bandwidth-independent).
  l.metrics.bandwidth_kbps = std::max(0.0, l.metrics.bandwidth_kbps - kbps);
  l.reserved_kbps += kbps;
  stamp_bandwidth(l);
  return Ok();
}

Result<void> Nib::release_link_bandwidth(Endpoint at, double kbps) {
  const std::uint32_t* slot = link_at_.find_value(at);
  if (slot == nullptr)
    return {ErrorCode::kNotFound, "no link at " + at.sw.str() + ":" + at.port.str()};
  LinkRecord& l = links_[*slot];
  l.metrics.bandwidth_kbps += kbps;
  // Floored: a release may outlive its reservation when the link was
  // removed and rediscovered in between (failure recovery).
  l.reserved_kbps = std::max(0.0, l.reserved_kbps - kbps);
  stamp_bandwidth(l);
  return Ok();
}

Result<void> Nib::adjust_middlebox_utilization(MiddleboxId id, double capacity_fraction) {
  southbound::GMiddleboxAnnounce* mb = middleboxes_.find_value(id);
  if (mb == nullptr) return {ErrorCode::kNotFound, "no such middlebox"};
  mb->utilization = std::clamp(mb->utilization + capacity_fraction, 0.0, 1.0);
  bump();
  return Ok();
}

const LinkRecord* Nib::link_at(Endpoint e) const {
  const std::uint32_t* slot = link_at_.find_value(e);
  return slot == nullptr ? nullptr : &links_[*slot];
}

void Nib::upsert_gbs(southbound::GBsAnnounce info) {
  if (info.withdrawn) {
    // A withdrawal only applies if the withdrawer still owns the record —
    // after a region reconfiguration the new region may have (re-)announced
    // the same G-BS before the old region's withdrawal arrives.
    const southbound::GBsAnnounce* cur = gbs_.find_value(info.gbs);
    if (cur == nullptr) return;
    if (info.attached_switch.valid() && !(cur->attached_switch == info.attached_switch))
      return;
    gbs_.erase(info.gbs);
    bump();
    return;
  }
  const GBsId id = info.gbs;
  gbs_.insert_or_assign(id, std::move(info));
  bump();
}

Result<void> Nib::remove_gbs(GBsId id) {
  if (gbs_.erase(id) == 0) return {ErrorCode::kNotFound, "no such G-BS " + id.str()};
  bump();
  return Ok();
}

const southbound::GBsAnnounce* Nib::gbs(GBsId id) const { return gbs_.find_value(id); }

std::span<const GBsId> Nib::gbs_list() const { return cached_ids(gbs_ids_, gbs_, version_); }

void Nib::upsert_middlebox(southbound::GMiddleboxAnnounce info) {
  if (info.withdrawn) {
    // Withdrawing a middlebox this NIB never learned leaves nothing to remove.
    if (middleboxes_.erase(info.gmb) != 0) bump();
    return;
  }
  const MiddleboxId id = info.gmb;
  middleboxes_.insert_or_assign(id, std::move(info));
  bump();
}

const southbound::GMiddleboxAnnounce* Nib::middlebox(MiddleboxId id) const {
  return middleboxes_.find_value(id);
}

std::span<const MiddleboxId> Nib::middleboxes() const {
  return cached_ids(middlebox_ids_, middleboxes_, version_);
}

std::vector<MiddleboxId> Nib::middleboxes_of_type(dataplane::MiddleboxType t) const {
  std::vector<MiddleboxId> out;
  for (const auto& [id, m] : middleboxes_) {
    if (m.type == t) out.push_back(id);
  }
  // Ascending-ID order, as the old sorted store produced: instance choice on
  // routing ties must not depend on announcement order.
  std::sort(out.begin(), out.end());
  return out;
}

void Nib::upsert_external_route(ExternalRoute r) {
  SHARD_CHECKED(guard_, kWrite);  // route upserts bypass bump() by design
  auto& routes = external_routes_[r.prefix];
  for (ExternalRoute& e : routes) {
    if (e.egress == r.egress) {
      e = r;
      return;
    }
  }
  routes.push_back(r);
}

std::span<const ExternalRoute> Nib::external_routes(PrefixId prefix) const {
  const std::vector<ExternalRoute>* routes = external_routes_.find_value(prefix);
  return routes == nullptr ? std::span<const ExternalRoute>{} : std::span(*routes);
}

std::vector<ExternalRoute> Nib::all_external_routes() const {
  std::vector<ExternalRoute> out;
  for (const auto& [prefix, routes] : external_routes_)
    out.insert(out.end(), routes.begin(), routes.end());
  return out;
}

std::size_t Nib::external_route_count() const {
  std::size_t n = 0;
  for (const auto& [prefix, routes] : external_routes_) n += routes.size();
  return n;
}

void Nib::subscribe(std::function<void()> on_change) {
  subscribers_.push_back(std::move(on_change));
}

}  // namespace softmow::nos
