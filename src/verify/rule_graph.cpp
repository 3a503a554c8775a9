#include "verify/rule_graph.h"

#include <algorithm>
#include <sstream>

namespace softmow::verify {

bool SymValue::can_be(std::uint64_t v) const {
  if (!any) return value == v;
  return std::find(excluded.begin(), excluded.end(), v) == excluded.end();
}

void SymValue::bind(std::uint64_t v) {
  any = false;
  value = v;
  excluded.clear();
}

void SymValue::exclude(std::uint64_t v) {
  if (!any) return;
  if (std::find(excluded.begin(), excluded.end(), v) == excluded.end()) excluded.push_back(v);
}

std::string SymValue::str() const {
  if (!any) return std::to_string(value);
  if (excluded.empty()) return "*";
  std::ostringstream os;
  os << "*\\{";
  for (std::size_t i = 0; i < excluded.size(); ++i) {
    if (i != 0) os << ",";
    os << excluded[i];
  }
  os << "}";
  return os.str();
}

namespace {

/// Evaluates one (constraint, field) pair; folds the verdict and records
/// the field needing a bind on kMay.
MatchVerdict field_verdict(const std::optional<std::uint64_t>& constraint, const SymValue& field) {
  if (!constraint) return MatchVerdict::kMust;
  if (field.is(*constraint)) return MatchVerdict::kMust;
  if (field.can_be(*constraint)) return MatchVerdict::kMay;
  return MatchVerdict::kNo;
}

std::optional<std::uint64_t> id_constraint(const std::optional<UeId>& c) {
  if (!c) return std::nullopt;
  return c->value;
}
std::optional<std::uint64_t> id_constraint(const std::optional<BsGroupId>& c) {
  if (!c) return std::nullopt;
  return c->value;
}
std::optional<std::uint64_t> id_constraint(const std::optional<PrefixId>& c) {
  if (!c) return std::nullopt;
  return c->value;
}
std::optional<std::uint64_t> u32_constraint(const std::optional<std::uint32_t>& c) {
  if (!c) return std::nullopt;
  return *c;
}

}  // namespace

MatchVerdict evaluate_match(const dataplane::Match& match, const SymHeader& header,
                            PortId arrival_port, MatchNeeds* needs) {
  // in_port and the label stack are always concrete along a walk.
  if (match.in_port && *match.in_port != arrival_port) return MatchVerdict::kNo;
  if (match.label) {
    if (header.labels.empty() || header.labels.back().value != *match.label)
      return MatchVerdict::kNo;
  }

  MatchVerdict out = MatchVerdict::kMust;
  auto fold = [&](MatchVerdict v, bool* need) {
    if (v == MatchVerdict::kNo) out = MatchVerdict::kNo;
    if (out == MatchVerdict::kNo) return;
    if (v == MatchVerdict::kMay) {
      out = MatchVerdict::kMay;
      if (need != nullptr) *need = true;
    }
  };
  MatchNeeds local;
  fold(field_verdict(id_constraint(match.ue), header.ue), &local.ue);
  fold(field_verdict(id_constraint(match.bs_group), header.bs_group), &local.bs_group);
  fold(field_verdict(id_constraint(match.dst_prefix), header.dst_prefix), &local.dst_prefix);
  fold(field_verdict(u32_constraint(match.version), header.version), &local.version);
  if (out == MatchVerdict::kMay && needs != nullptr) *needs = local;
  return out;
}

void bind_to_match(SymHeader& header, const dataplane::Match& match) {
  if (match.ue && !header.ue.is(match.ue->value)) header.ue.bind(match.ue->value);
  if (match.bs_group && !header.bs_group.is(match.bs_group->value))
    header.bs_group.bind(match.bs_group->value);
  if (match.dst_prefix && !header.dst_prefix.is(match.dst_prefix->value))
    header.dst_prefix.bind(match.dst_prefix->value);
  if (match.version && !header.version.is(*match.version)) header.version.bind(*match.version);
}

void exclude_match(SymHeader& header, const dataplane::Match& match) {
  // Excluding any single constrained wildcard field suffices to make the
  // residue miss the rule; excluding all of them keeps sub-classes
  // disjoint without enumerating cross products.
  if (match.ue) header.ue.exclude(match.ue->value);
  if (match.bs_group) header.bs_group.exclude(match.bs_group->value);
  if (match.dst_prefix) header.dst_prefix.exclude(match.dst_prefix->value);
  if (match.version) header.version.exclude(*match.version);
}

bool dominates(const dataplane::Match& outer, const dataplane::Match& inner) {
  // outer must be no more constrained than inner, on every field.
  auto covers = [](const auto& o, const auto& i) {
    if (!o) return true;       // outer wildcards the field
    if (!i) return false;      // outer tests a field inner leaves open
    return *o == *i;
  };
  return covers(outer.in_port, inner.in_port) && covers(outer.label, inner.label) &&
         covers(outer.ue, inner.ue) && covers(outer.bs_group, inner.bs_group) &&
         covers(outer.dst_prefix, inner.dst_prefix) && covers(outer.version, inner.version);
}

}  // namespace softmow::verify
