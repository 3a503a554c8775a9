// Incremental vFabric upkeep oracle (§3.2): under randomized reservation
// churn on every leaf and mid controller of a three-level hierarchy, the
// bandwidth-only TopologyAbstraction::refresh() must expose a vFabric
// bit-equal to a full recompute of the same NIB state.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "softmow/softmow.h"

namespace softmow {
namespace {

/// One vFabric entry keyed by local endpoints, so abstractions with
/// different exposed-port numbering compare.
struct LocalEntry {
  Endpoint from;
  Endpoint to;
  EdgeMetrics metrics;
};

std::vector<LocalEntry> local_vfabric(const reca::TopologyAbstraction& abs) {
  std::vector<LocalEntry> out;
  for (const southbound::VFabricEntry& e : abs.features().vfabric)
    out.push_back({*abs.to_local(e.from), *abs.to_local(e.to), e.metrics});
  return out;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_bit_equal(const std::vector<LocalEntry>& incremental,
                      const std::vector<LocalEntry>& full, const std::string& where) {
  ASSERT_EQ(incremental.size(), full.size()) << where;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const LocalEntry& a = incremental[i];
    const LocalEntry& b = full[i];
    ASSERT_EQ(a.from, b.from) << where << " entry " << i;
    ASSERT_EQ(a.to, b.to) << where << " entry " << i;
    EXPECT_TRUE(bit_equal(a.metrics.bandwidth_kbps, b.metrics.bandwidth_kbps))
        << where << " entry " << i << ": " << a.metrics.bandwidth_kbps << " vs "
        << b.metrics.bandwidth_kbps;
    EXPECT_TRUE(bit_equal(a.metrics.hop_count, b.metrics.hop_count)) << where;
    EXPECT_TRUE(bit_equal(a.metrics.latency_us, b.metrics.latency_us)) << where;
  }
}

class IncrementalVfabricTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    topo::ScenarioParams params = topo::small_scenario_params(5);
    params.regions = 4;
    params.with_mid_level = true;
    scenario_ = topo::build_scenario(std::move(params)).release();
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static topo::Scenario* scenario_;
};

topo::Scenario* IncrementalVfabricTest::scenario_ = nullptr;

TEST_P(IncrementalVfabricTest, RefreshMatchesFullRecomputeUnderChurn) {
  auto& mp = *scenario_->mgmt;
  std::vector<reca::Controller*> churned = mp.leaves();
  for (reca::Controller* mid : mp.mids()) churned.push_back(mid);
  ASSERT_FALSE(mp.mids().empty());

  struct Held {
    reca::Controller* owner;
    Endpoint at;
    double kbps;
  };
  std::vector<Held> held;
  // A shadow abstraction per controller over the same NIB and routing: its
  // full recompute is the oracle while the real one stays incremental.
  std::vector<std::unique_ptr<reca::TopologyAbstraction>> shadows;
  for (reca::Controller* c : churned) {
    c->abstraction().refresh();
    shadows.push_back(std::make_unique<reca::TopologyAbstraction>(
        c->id(), c->level(), &c->nib(), &c->routing()));
    shadows.back()->set_border_gbs(c->abstraction().border_gbs());
  }

  auto bandwidth_refreshes = [](int level) {
    return obs::default_registry()
        .find_counter("abstraction_refresh_total",
                      {{"kind", "bandwidth"}, {"level", std::to_string(level)}})
        ->value();
  };
  const std::uint64_t leaf_before = bandwidth_refreshes(1);
  const std::uint64_t mid_before = bandwidth_refreshes(2);

  Rng rng(GetParam());
  for (int step = 0; step < 40; ++step) {
    for (reca::Controller* c : churned) {
      const std::vector<nos::LinkRecord>& links = c->nib().links();
      if (links.empty()) continue;
      int ops = rng.uniform_int(1, 4);
      for (int op = 0; op < ops; ++op) {
        if (!held.empty() && rng.bernoulli(0.4)) {
          std::size_t i = rng.uniform_u64(0, held.size() - 1);
          ASSERT_TRUE(held[i].owner->nib().release_link_bandwidth(held[i].at, held[i].kbps).ok());
          EXPECT_TRUE(held[i].owner->abstraction().dirty());
          held.erase(held.begin() + static_cast<long>(i));
          continue;
        }
        const nos::LinkRecord& l = links[rng.uniform_u64(0, links.size() - 1)];
        Endpoint at = rng.bernoulli(0.5) ? l.a : l.b;
        double cap = std::isfinite(l.metrics.bandwidth_kbps) ? l.metrics.bandwidth_kbps : 1e4;
        double kbps = rng.uniform(0.0, 0.6) * cap + 1.0;
        if (c->nib().reserve_link_bandwidth(at, kbps).ok()) {
          EXPECT_TRUE(c->abstraction().dirty());
          held.push_back({c, at, kbps});
        }
      }
    }
    // Leaves first: their threshold-crossing updates re-announce to the
    // mids, which makes the mids' next refresh a full recompute.
    for (reca::Controller* c : churned) {
      c->reca().maybe_announce_vfabric();
      c->abstraction().refresh();
      EXPECT_FALSE(c->abstraction().dirty());
    }
    for (std::size_t k = 0; k < churned.size(); ++k) {
      reca::Controller* c = churned[k];
      shadows[k]->mark_dirty();
      shadows[k]->recompute();
      std::string where = c->name() + " step " + std::to_string(step);
      expect_bit_equal(local_vfabric(c->abstraction()), local_vfabric(*shadows[k]), where);
      if (step % 10 == 9) {
        // The same abstraction, fully recomputed, agrees too.
        std::vector<LocalEntry> incremental = local_vfabric(c->abstraction());
        c->abstraction().mark_dirty();
        c->abstraction().recompute();
        expect_bit_equal(incremental, local_vfabric(c->abstraction()), where + " (self)");
      }
    }
  }
  // Both levels took the incremental path, not only full recomputes.
  EXPECT_GT(bandwidth_refreshes(1), leaf_before);
  EXPECT_GT(bandwidth_refreshes(2), mid_before);

  for (const Held& h : held) ASSERT_TRUE(h.owner->nib().release_link_bandwidth(h.at, h.kbps).ok());
  for (reca::Controller* c : churned) c->reca().maybe_announce_vfabric();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVfabricTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace softmow
