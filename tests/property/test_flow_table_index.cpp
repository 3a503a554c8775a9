// FlowTable match-index oracle (DESIGN §6, §12). Random tables over all six
// match fields, drawn from a few masks and small value domains so buckets
// collide, with tied priorities and same-match rules at several priorities,
// are driven through install, conflicting install, replace-by-cookie,
// remove-by-cookie and remove-by-match churn; swap-pop removal then moves
// rules that sit mid-chain. After every operation the index must agree with
// a model of the installed cookies and two oracles that scan the ordered
// table:
//   - rules() holds exactly the installed cookies, each ranked strictly
//     before the next (the order is total), however removals, which only
//     mark the order stale, interleave with installs;
//   - FlowTable::lookup returns the cookie of the first rule of rules() that
//     matches the packet (or nothing);
//   - the verifier's shadowed-rule findings equal the all-pairs loop: for
//     each rule in order, the first earlier rule that dominates it, named in
//     the finding's detail.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "dataplane/network.h"
#include "verify/rule_graph.h"
#include "verify/verifier.h"

namespace softmow {
namespace {

using dataplane::FlowRule;
using dataplane::FlowTable;
using dataplane::Match;

std::uint64_t small(Rng& rng, int lo, int hi) {
  return static_cast<std::uint64_t>(rng.uniform_int(lo, hi));
}

Match random_match(Rng& rng, const std::vector<std::uint32_t>& masks) {
  const std::uint32_t mask = rng.choice(masks);
  Match m;
  if (mask & (1u << 0)) m.in_port = PortId{small(rng, 1, 3)};
  if (mask & (1u << 1)) m.label = static_cast<std::uint32_t>(small(rng, 1, 3));
  if (mask & (1u << 2)) m.ue = UeId{small(rng, 1, 3)};
  if (mask & (1u << 3)) m.bs_group = BsGroupId{small(rng, 1, 2)};
  if (mask & (1u << 4)) m.dst_prefix = PrefixId{small(rng, 1, 3)};
  if (mask & (1u << 5)) m.version = static_cast<std::uint32_t>(small(rng, 0, 2));
  return m;
}

struct Probe {
  Packet pkt;
  PortId port;
  BsGroupId group;
};

Probe random_probe(Rng& rng) {
  Probe p;
  p.pkt.ue = UeId{small(rng, 1, 3)};
  p.pkt.dst_prefix = PrefixId{small(rng, 1, 3)};
  p.pkt.version = static_cast<std::uint32_t>(small(rng, 0, 2));
  const int depth = rng.uniform_int(0, 2);
  for (int i = 0; i < depth; ++i)
    p.pkt.labels.push_back(Label{static_cast<std::uint32_t>(small(rng, 1, 3)), 1});
  p.port = PortId{small(rng, 1, 3)};
  p.group = BsGroupId{small(rng, 1, 2)};
  return p;
}

/// Oracle: the first rule in lookup order that matches, or 0 on a miss
/// (cookies start at 1).
std::uint64_t scan_lookup(const FlowTable& table, const Probe& p) {
  for (const FlowRule& r : table.rules())
    if (r.match.matches(p.pkt, p.port, p.group)) return r.cookie;
  return 0;
}

/// Oracle: the all-pairs shadow check, as (cookie, detail) in table order.
std::vector<std::string> scan_shadowed(const FlowTable& table) {
  std::vector<std::string> out;
  const FlowTable::RuleView rules = table.rules();
  for (std::size_t j = 1; j < rules.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (!verify::dominates(rules[i].match, rules[j].match)) continue;
      out.push_back(std::to_string(rules[j].cookie) + ": unreachable: dominated by cookie " +
                    std::to_string(rules[i].cookie) + " at priority " +
                    std::to_string(rules[i].priority));
      break;
    }
  }
  return out;
}

std::vector<std::string> indexed_shadowed(const dataplane::PhysicalNetwork& net) {
  std::vector<std::string> out;
  for (const verify::Finding& f : verify::verify_data_plane(net).findings) {
    if (f.invariant == verify::Invariant::kShadowedRule)
      out.push_back(std::to_string(f.cookie) + ": " + f.detail);
  }
  return out;
}

/// Oracle for install's conflict check: another cookie at equal priority
/// and match.
bool scan_conflicts(const FlowTable& table, const FlowRule& rule) {
  for (const FlowRule& r : table.rules())
    if (r.cookie != rule.cookie && r.priority == rule.priority && r.match == rule.match)
      return true;
  return false;
}

void churn(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  dataplane::PhysicalNetwork net;
  const SwitchId sw = net.add_switch();
  FlowTable& table = net.sw(sw)->table();

  // A handful of masks per table, so buckets and chains are shared.
  std::vector<std::uint32_t> masks;
  const int mask_kinds = rng.uniform_int(1, 6);
  for (int i = 0; i < mask_kinds; ++i)
    masks.push_back(static_cast<std::uint32_t>(small(rng, 0, 63)));
  const std::vector<int> priorities = {0, 10, 10, 20};

  std::uint64_t next_cookie = 1;
  std::set<std::uint64_t> installed;  // the model rules() must list
  auto some_rule = [&]() -> const FlowRule& {
    const int last = static_cast<int>(table.size()) - 1;
    return table.rules()[static_cast<std::size_t>(rng.uniform_int(0, last))];
  };

  for (int step = 0; step < 160; ++step) {
    const int op = rng.uniform_int(0, 9);
    if (table.size() == 0 || op <= 3) {
      // Fresh rule; half the time reusing a resident match at another
      // priority (a second link in that bucket's chain).
      FlowRule rule;
      rule.cookie = next_cookie++;
      rule.priority = rng.choice(priorities);
      const bool shared = table.size() != 0 && rng.bernoulli(0.5);
      rule.match = shared ? some_rule().match : random_match(rng, masks);
      const bool conflict = scan_conflicts(table, rule);
      const std::size_t before = table.size();
      Result<void> r = table.install(rule);
      ASSERT_EQ(r.ok(), !conflict) << rule.str();
      if (!r.ok()) {
        EXPECT_EQ(r.code(), ErrorCode::kConflict);
      }
      EXPECT_EQ(table.size(), before + (conflict ? 0 : 1));
      if (r.ok()) installed.insert(rule.cookie);
    } else if (op <= 5) {
      // Replace by cookie: same cookie, new priority and match.
      FlowRule rule = some_rule();
      rule.priority = rng.choice(priorities);
      if (rng.bernoulli(0.5)) rule.match = random_match(rng, masks);
      const bool conflict = scan_conflicts(table, rule);
      ASSERT_EQ(table.install(rule).ok(), !conflict) << rule.str();
    } else if (op <= 7) {
      const std::uint64_t cookie = some_rule().cookie;
      ASSERT_TRUE(table.remove_by_cookie(cookie).ok());
      EXPECT_EQ(table.find_by_cookie(cookie), nullptr);
      installed.erase(cookie);
    } else {
      const Match match = rng.bernoulli(0.8) ? some_rule().match : random_match(rng, masks);
      std::vector<std::uint64_t> matching;
      for (const FlowRule& r : table.rules())
        if (r.match == match) matching.push_back(r.cookie);
      const std::size_t expected = matching.size();
      Result<std::size_t> removed = table.remove_by_match(match);
      ASSERT_EQ(removed.ok(), expected != 0);
      if (removed.ok()) {
        EXPECT_EQ(*removed, expected);
      }
      for (std::uint64_t cookie : matching) installed.erase(cookie);
      for (const FlowRule& r : table.rules()) EXPECT_FALSE(r.match == match);
    }

    const FlowTable::RuleView view = table.rules();
    std::set<std::uint64_t> listed;
    for (std::size_t i = 0; i < view.size(); ++i) {
      listed.insert(view[i].cookie);
      if (i > 0) {
        ASSERT_TRUE(FlowTable::ranks_before(view[i - 1], view[i])) << "step " << step;
      }
    }
    ASSERT_EQ(view.size(), installed.size()) << "step " << step;
    ASSERT_EQ(listed, installed) << "step " << step;
    for (const FlowRule& r : table.rules()) {
      const FlowRule* found = table.find_by_cookie(r.cookie);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->cookie, r.cookie);
    }
    for (int i = 0; i < 12; ++i) {
      const Probe p = random_probe(rng);
      const std::uint64_t expected = scan_lookup(table, p);
      const FlowRule* hit = table.lookup(p.pkt, p.port, p.group);
      ASSERT_EQ(hit == nullptr ? 0 : hit->cookie, expected) << "step " << step;
    }
    if (step % 4 == 0) {
      ASSERT_EQ(indexed_shadowed(net), scan_shadowed(table)) << "step " << step;
    }
  }
  ASSERT_EQ(indexed_shadowed(net), scan_shadowed(table));
}

TEST(FlowTableIndex, LookupAndShadowCheckAgreeWithTheOrderedScan) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    churn(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace softmow
