// Event arena coverage: SmallFn move/destroy semantics (inline and boxed),
// EventPool recycle/reset behavior, and the headline steady-state property —
// an engine replaying a self-sustaining event pattern allocates a bounded
// number of slots up front and then recycles forever.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>

#include "sim/event_slot.h"
#include "sim/sharded.h"

namespace softmow::sim {
namespace {

TEST(SmallFn, InlineLambdaInvokes) {
  int hits = 0;
  SmallFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, MoveTransfersOwnership) {
  int hits = 0;
  SmallFn a([&hits] { ++hits; });
  SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  SmallFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, CapturedStateDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    SmallFn fn([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // capture keeps it alive
    SmallFn moved(std::move(fn));
    EXPECT_FALSE(watch.expired());  // relocation must not double-free
    moved();
  }
  EXPECT_TRUE(watch.expired());  // destroyed with the callable
}

TEST(SmallFn, OversizedCaptureBoxesAndStillWorks) {
  // > kInlineBytes of capture forces the heap fallback path.
  std::array<std::uint64_t, 32> big{};
  big[0] = 7;
  big[31] = 11;
  std::uint64_t out = 0;
  SmallFn fn([big, &out] { out = big[0] + big[31]; });
  SmallFn moved(std::move(fn));
  moved();
  EXPECT_EQ(out, 18u);
}

TEST(EventPool, RecyclesLifo) {
  obs::TraceContext ctx{};
  EventPool pool;
  std::uint32_t a = pool.acquire([] {}, ctx);
  std::uint32_t b = pool.acquire([] {}, ctx);
  EXPECT_EQ(pool.fresh_count(), 2u);
  EXPECT_EQ(pool.recycled_count(), 0u);
  EXPECT_EQ(pool.live(), 2u);
  pool.release(b);
  pool.release(a);
  // LIFO: the most recently released slot is reissued first.
  EXPECT_EQ(pool.acquire([] {}, ctx), a);
  EXPECT_EQ(pool.acquire([] {}, ctx), b);
  EXPECT_EQ(pool.fresh_count(), 2u);
  EXPECT_EQ(pool.recycled_count(), 2u);
}

TEST(EventPool, ClearDropsSlabsKeepsMonotonicTotals) {
  obs::TraceContext ctx{};
  EventPool pool;
  for (int i = 0; i < 10; ++i) pool.acquire([] {}, ctx);
  EXPECT_GE(pool.capacity(), 10u);
  pool.clear();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);
  EXPECT_EQ(pool.fresh_count(), 10u);  // counters never go backwards
  std::uint32_t slot = pool.acquire([] {}, ctx);
  EXPECT_EQ(slot, 0u);  // handle space restarts after reset
  EXPECT_EQ(pool.fresh_count(), 11u);
}

TEST(EventPool, SlotStateSurvivesSlabGrowth) {
  obs::TraceContext ctx{1, 2};
  EventPool pool;
  int hits = 0;
  std::uint32_t first = pool.acquire([&hits] { ++hits; }, ctx);
  // Push past one slab so chunks_ grows; the first slot must stay valid
  // (slabs are chunked precisely to avoid relocation).
  for (std::uint32_t i = 0; i < EventPool::kChunkSize + 5; ++i) pool.acquire([] {}, ctx);
  pool.at(first).fn();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(pool.at(first).ctx.trace_id, 1u);
}

// The steady-state property on the sequential (1-shard) engine: a fixed
// population of self-rescheduling events reaches its slot high-water mark
// in a warmup run() and never allocates again.
TEST(EventPoolSteadyState, SequentialEngineAllocationsGoFlat) {
  ShardedSimulator engine(1);
  constexpr int kChains = 16;
  std::uint64_t executed = 0;
  std::uint64_t limit = 0;
  std::function<void(int)> hop = [&](int chain) {
    ++executed;
    if (executed < limit)
      engine.schedule(0, Duration::micros(10 + chain), [&hop, chain] { hop(chain); });
  };
  auto run_chains = [&](std::uint64_t hops) {
    executed = 0;
    limit = hops;
    for (int c = 0; c < kChains; ++c)
      engine.schedule(0, Duration::micros(c + 1), [&hop, c] { hop(c); });
    engine.run();
  };
  // Warmup: a first run, then note the high-water mark.
  run_chains(1000);
  const std::uint64_t fresh_after_warmup = engine.alloc_fresh_total();
  const std::uint64_t recycled_after_warmup = engine.alloc_recycled_total();
  run_chains(10000);
  // The stop condition is checked inside the handler, so the other chains'
  // in-flight hops still drain: 10000 plus at most one tail hop per chain.
  EXPECT_GE(executed, 10000u);
  EXPECT_LT(executed, 10000u + kChains);
  // Steady state must be pure recycling: zero fresh slots after warmup.
  EXPECT_EQ(engine.alloc_fresh_total(), fresh_after_warmup);
  EXPECT_GT(engine.alloc_recycled_total(), recycled_after_warmup);
  EXPECT_LE(fresh_after_warmup, 2u * kChains);
}

// Same property on the sharded engine, including cross-shard mail traffic,
// and alloc counts must repeat exactly on a fresh engine.
TEST(EventPoolSteadyState, ShardedEngineAllocationsGoFlatAndRepeatExactly) {
  auto run_engine = [] {
    ShardedSimulator::Options opts;
    opts.lookahead = Duration::micros(50);
    ShardedSimulator engine(4, opts);
    auto counters = std::make_shared<std::array<std::uint64_t, 4>>();
    counters->fill(0);
    std::shared_ptr<std::function<void(ShardId)>> hop =
        std::make_shared<std::function<void(ShardId)>>();
    *hop = [&engine, counters, hop](ShardId shard) {
      std::uint64_t n = ++(*counters)[shard];
      if (n >= 2000) return;
      // Mostly local ticks, a periodic cross-shard post.
      if (n % 10 == 0) {
        engine.schedule((shard + 1) % 4, Duration::micros(60),
                        [hop, shard] { (*hop)((shard + 1) % 4); });
      } else {
        engine.schedule(shard, Duration::micros(5), [hop, shard] { (*hop)(shard); });
      }
    };
    for (ShardId s = 0; s < 4; ++s)
      engine.schedule(s, Duration::micros(1), [hop, s] { (*hop)(s); });
    engine.run();
    *hop = nullptr;  // `hop` captures itself; break the cycle so it is freed
    return std::pair<std::uint64_t, std::uint64_t>{engine.alloc_fresh_total(),
                                                   engine.alloc_recycled_total()};
  };
  auto [fresh1, recycled1] = run_engine();
  auto [fresh2, recycled2] = run_engine();
  // The arena never grows past the tiny live population...
  EXPECT_LE(fresh1, 64u);
  EXPECT_GT(recycled1, 1000u);
  // ...and the fresh/recycled split is a pure function of the timeline.
  EXPECT_EQ(fresh1, fresh2);
  EXPECT_EQ(recycled1, recycled2);
}

}  // namespace
}  // namespace softmow::sim
