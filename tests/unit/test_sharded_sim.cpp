// ShardedSimulator: window math, mailbox ordering, lookahead clamping, and
// equivalence of a multi-shard engine with the 1-shard sequential oracle.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/timeseries.h"

namespace softmow::sim {
namespace {

TEST(ShardedSim, SingleShardRunsInScheduleOrder) {
  ShardedSimulator engine(1);
  std::vector<int> order;
  engine.schedule(0, Duration::millis(2), [&] { order.push_back(2); });
  engine.schedule(0, Duration::millis(1), [&] { order.push_back(1); });
  engine.schedule(0, Duration::millis(1), [&] { order.push_back(10); });  // FIFO tie
  engine.schedule(0, Duration::millis(3), [&] { order.push_back(3); });
  EXPECT_EQ(engine.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 3}));
  EXPECT_TRUE(engine.idle());
}

TEST(ShardedSim, OneShardMatchesSequentialSimulatorOracle) {
  // A 1-shard engine is the sequential oracle: the same self-rescheduling
  // workload on one shard of a 3-shard engine must execute the same number
  // of events and reach the same final clock.
  auto drive = [](ShardedSimulator& eng, ShardId shard) {
    std::uint64_t ticks = 0;
    std::function<void()> tick = [&] {
      if (++ticks < 50) eng.schedule(shard, Duration::millis(7), tick);
    };
    eng.schedule(shard, Duration::millis(7), tick);
    eng.run();
    return ticks;
  };

  ShardedSimulator oracle(1);
  std::uint64_t oracle_ticks = drive(oracle, 0);

  ShardedSimulator sharded(3);
  std::uint64_t sharded_ticks = drive(sharded, 1);

  EXPECT_EQ(oracle_ticks, sharded_ticks);
  EXPECT_EQ(oracle.events_executed(), sharded.events_executed());
  EXPECT_EQ(oracle.now(0), sharded.now(1));
  EXPECT_EQ(sharded.events_executed(), 50u);
}

TEST(ShardedSim, CrossShardPostDelaysByAtLeastLookahead) {
  ShardedSimulator::Options opts;
  opts.lookahead = Duration::millis(5);
  ShardedSimulator engine(2, opts);
  TimePoint delivered_at;
  engine.schedule(0, Duration::millis(1), [&] {
    // Zero-delay cross-shard post: must be clamped up to the lookahead.
    engine.schedule(1, Duration{}, [&] { delivered_at = engine.now(1); });
  });
  engine.run();
  EXPECT_EQ(delivered_at, TimePoint::zero() + Duration::millis(6));
  EXPECT_EQ(engine.lookahead_clamps(), 1u);
  EXPECT_EQ(engine.cross_shard_posts(), 1u);
}

TEST(ShardedSim, CrossShardPostAtOrBeyondLookaheadIsNotClamped) {
  ShardedSimulator::Options opts;
  opts.lookahead = Duration::millis(5);
  ShardedSimulator engine(2, opts);
  TimePoint delivered_at;
  engine.schedule(0, Duration::millis(1), [&] {
    engine.schedule(1, Duration::millis(9), [&] { delivered_at = engine.now(1); });
  });
  engine.run();
  EXPECT_EQ(delivered_at, TimePoint::zero() + Duration::millis(10));
  EXPECT_EQ(engine.lookahead_clamps(), 0u);
}

TEST(ShardedSim, MailboxDeliversInSenderOrderAtEqualTimes) {
  // Two senders post mail to shard 2 for the same delivery instant; the
  // barrier sorts by (when, src shard, src send-seq), so execution order is
  // shard 0's messages (in send order), then shard 1's.
  ShardedSimulator::Options opts;
  opts.lookahead = Duration::millis(1);
  ShardedSimulator engine(3, opts);
  std::vector<std::string> order;
  engine.schedule(0, Duration{}, [&] {
    engine.schedule(2, Duration::millis(1), [&] { order.push_back("a0"); });
    engine.schedule(2, Duration::millis(1), [&] { order.push_back("a1"); });
  });
  engine.schedule(1, Duration{}, [&] {
    engine.schedule(2, Duration::millis(1), [&] { order.push_back("b0"); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "a1", "b0"}));
}

TEST(ShardedSim, WindowNeverExecutesEventsPastHorizon) {
  // With lookahead L, a window starting at W may only run events < W + L.
  // An event at t=0 posting to its own shard at t=0.5L must run before the
  // neighbor's event at t=2L (windows advance monotonically).
  ShardedSimulator::Options opts;
  opts.lookahead = Duration::millis(10);
  ShardedSimulator engine(2, opts);
  std::vector<int> order;
  engine.schedule(0, Duration{}, [&] {
    order.push_back(0);
    engine.schedule(0, Duration::millis(5), [&] { order.push_back(1); });
  });
  engine.schedule(1, Duration::millis(20), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GE(engine.windows_executed(), 2u);
}

TEST(ShardedSim, RepeatRunsExecuteIdenticalPerShardSequences) {
  // A ping-pong workload across 4 shards: the executed (shard, time, tag)
  // sequence collected per shard must be identical on a fresh engine.
  auto run_once = [] {
    ShardedSimulator::Options opts;
    opts.lookahead = Duration::millis(1);
    ShardedSimulator engine(4, opts);
    std::vector<std::vector<std::string>> per_shard(4);
    for (std::size_t s = 0; s < 4; ++s) {
      engine.schedule(s, Duration::millis(static_cast<double>(s)), [&, s] {
        per_shard[s].push_back("start@" + std::to_string(engine.now(s).since_start().to_micros()));
        for (std::size_t peer = 0; peer < 4; ++peer) {
          if (peer == s) continue;
          engine.schedule(peer, Duration::millis(2), [&, s, peer] {
            per_shard[peer].push_back("from" + std::to_string(s) + "@" +
                                      std::to_string(engine.now(peer).since_start().to_micros()));
          });
        }
      });
    }
    engine.run();
    return per_shard;
  };
  auto baseline = run_once();
  EXPECT_EQ(baseline[0].size(), 4u);  // its own start plus one from each peer
  EXPECT_EQ(run_once(), baseline);
}

TEST(ShardedSim, EveryEventRunsOnTheCallingThread) {
  // Options::threads is ignored: shards, and the mail between them, run on
  // the thread that called run().
  ShardedSimulator::Options opts;
  opts.threads = 4;
  opts.lookahead = Duration::millis(1);
  ShardedSimulator engine(3, opts);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  for (std::size_t s = 0; s < 3; ++s) {
    engine.schedule(s, Duration::millis(static_cast<double>(s)), [&, s] {
      ran_on.push_back(std::this_thread::get_id());
      for (std::size_t peer = 0; peer < 3; ++peer) {
        if (peer != s)
          engine.schedule(peer, Duration{}, [&] { ran_on.push_back(std::this_thread::get_id()); });
      }
    });
  }
  EXPECT_EQ(engine.run(), 9u);
  EXPECT_EQ(engine.cross_shard_posts(), 6u);
  ASSERT_EQ(ran_on.size(), 9u);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ShardedSim, RunReturnsDeltaNotTotal) {
  ShardedSimulator engine(2);
  engine.schedule(0, Duration{}, [] {});
  EXPECT_EQ(engine.run(), 1u);
  engine.schedule(1, Duration{}, [] {});
  engine.schedule(1, Duration::millis(1), [] {});
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(engine.events_executed(), 3u);
}

TEST(ShardedSim, ShardClocksNeverRegress) {
  ShardedSimulator::Options opts;
  opts.lookahead = Duration::millis(1);
  ShardedSimulator engine(2, opts);
  std::vector<TimePoint> times;
  engine.schedule(0, Duration::millis(3), [&] {
    times.push_back(engine.now(0));
    engine.schedule(1, Duration::millis(1), [&] { times.push_back(engine.now(1)); });
  });
  engine.schedule(1, Duration::millis(1), [&] { times.push_back(engine.now(1)); });
  engine.run();
  ASSERT_EQ(times.size(), 3u);
  // Windows execute in global time order: shard 1's 1ms event, shard 0's 3ms
  // event, then the cross-shard delivery at 4ms.
  EXPECT_EQ(times[0], TimePoint::zero() + Duration::millis(1));
  EXPECT_EQ(times[1], TimePoint::zero() + Duration::millis(3));
  EXPECT_EQ(times[2], TimePoint::zero() + Duration::millis(4));
}

}  // namespace

// --- Shard profiler ---------------------------------------------------------

namespace {

/// Per-shard profile_* count deltas from one profiled run (wall-derived
/// profile_wall_* gauges excluded: those vary run to run).
using ProfileCounts = std::vector<std::vector<std::uint64_t>>;

constexpr const char* kProfileCounters[] = {
    "profile_events_total",         "profile_mail_sent_total",
    "profile_mail_recv_total",      "profile_windows_total",
    "profile_bounded_windows_total"};

ProfileCounts profile_counter_values(std::size_t shards) {
  const obs::MetricsRegistry& reg = obs::default_registry();
  ProfileCounts out(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const obs::Labels labels{{"shard", std::to_string(s)}};
    for (const char* name : kProfileCounters) {
      const obs::Counter* c = reg.find_counter(name, labels);
      out[s].push_back(c != nullptr ? c->value() : 0);
    }
  }
  return out;
}

/// Cross-shard ping-pong workload: every shard fans mail out to its
/// neighbour across several windows, and the deliveries schedule follow-ups.
void profiled_workload(ShardedSimulator& engine, std::size_t shards) {
  for (std::size_t s = 0; s < shards; ++s) {
    engine.schedule(s, Duration::millis(1.0 + static_cast<double>(s)), [&engine, s, shards] {
      for (int k = 0; k < 3; ++k) {
        engine.schedule((s + 1) % shards, Duration::millis(1.0 + k), [&engine] {
          engine.schedule(ShardedSimulator::current_shard(), Duration::millis(2), [] {});
        });
      }
    });
  }
}

}  // namespace

namespace {

TEST(ShardedSimProfile, CountSeriesIdenticalAcrossRepeatRuns) {
  constexpr std::size_t kShards = 3;
  auto run_once = [] {
    ProfileCounts before = profile_counter_values(kShards);
    ShardedSimulator::Options opts;
    opts.lookahead = Duration::millis(1);
    opts.profile = true;
    ShardedSimulator engine(kShards, opts);
    profiled_workload(engine, kShards);
    engine.run();

    // Keep only the deterministic per-window event tracks from the global
    // sample ring (busy-ms tracks are wall time and vary freely).
    std::vector<std::pair<std::string, double>> event_samples;
    for (const obs::CounterSample& c : ShardedSimulator::drain_profile_samples()) {
      if (c.track.find("/events") != std::string::npos)
        event_samples.emplace_back(c.track + "@" + std::to_string(c.at_ns), c.value);
    }

    ProfileCounts delta = profile_counter_values(kShards);
    for (std::size_t s = 0; s < kShards; ++s)
      for (std::size_t i = 0; i < delta[s].size(); ++i) delta[s][i] -= before[s][i];
    return std::pair{delta, event_samples};
  };

  auto baseline = run_once();
  EXPECT_GT(baseline.first[0][0], 0u);  // shard 0 executed events
  EXPECT_GT(baseline.second.size(), 0u);
  auto repeat = run_once();
  EXPECT_EQ(repeat.first, baseline.first);
  EXPECT_EQ(repeat.second, baseline.second);
}

TEST(ShardedSimProfile, OffMeansNoSamplesAndNoFlush) {
  (void)ShardedSimulator::drain_profile_samples();  // clear residue
  ShardedSimulator engine(2);
  EXPECT_FALSE(engine.profiling());
  engine.schedule(0, Duration::millis(1), [] {});
  engine.schedule(1, Duration::millis(2), [] {});
  engine.run();
  std::uint64_t dropped = 0;
  EXPECT_TRUE(ShardedSimulator::drain_profile_samples(&dropped).empty());
  EXPECT_EQ(dropped, 0u);
}

TEST(ShardedSimProfile, SamplerPolledAtWindowBarriers) {
  obs::TimeSeriesRecorder::Options ropts;
  ropts.interval = Duration::millis(1.0);
  ropts.capacity = 64;
  obs::TimeSeriesRecorder recorder(ropts);  // reads the default registry
  recorder.track_counter("sim_events_executed_total");

  ShardedSimulator::Options opts;
  opts.lookahead = Duration::millis(1);
  ShardedSimulator engine(2, opts);
  engine.set_sampler(&recorder);
  for (int i = 1; i <= 5; ++i) {
    engine.schedule(0, Duration::millis(i), [] {});
    engine.schedule(1, Duration::millis(i), [] {});
  }
  engine.run();
  engine.set_sampler(nullptr);

  auto series = recorder.snapshot();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_GT(series[0].points.size(), 0u);
  for (std::size_t i = 1; i < series[0].points.size(); ++i) {
    EXPECT_GT(series[0].points[i].at_ns, series[0].points[i - 1].at_ns);
    EXPECT_GE(series[0].points[i].value, series[0].points[i - 1].value);
  }
}

}  // namespace
}  // namespace softmow::sim
