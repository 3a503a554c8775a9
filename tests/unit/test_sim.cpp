#include <gtest/gtest.h>

#include <vector>

#include "sim/queueing.h"
#include "sim/sharded.h"

namespace softmow::sim {
namespace {

TEST(Duration, UnitConversions) {
  EXPECT_EQ(Duration::millis(5).to_micros(), 5000);
  EXPECT_EQ(Duration::seconds(2).to_millis(), 2000);
  EXPECT_EQ(Duration::minutes(3).to_seconds(), 180);
  EXPECT_EQ(Duration::hours(1).to_minutes(), 60);
  EXPECT_EQ((Duration::millis(1) + Duration::micros(500)).to_micros(), 1500);
  EXPECT_EQ((Duration::millis(10) * 2.5).to_millis(), 25);
}

// The engine's sequential case: one shard runs events in time order, ties
// in scheduling order, and lets events schedule more events.
TEST(Simulator, EventsRunInTimeOrder) {
  ShardedSimulator engine(1);
  std::vector<int> order;
  engine.schedule(0, Duration::millis(30), [&] { order.push_back(3); });
  engine.schedule(0, Duration::millis(10), [&] { order.push_back(1); });
  engine.schedule(0, Duration::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(0).since_start().to_millis(), 30);
}

TEST(Simulator, SameInstantIsFifo) {
  ShardedSimulator engine(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    engine.schedule(0, Duration::millis(1), [&order, i] { order.push_back(i); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  ShardedSimulator engine(1);
  int fired = 0;
  engine.schedule(0, Duration::millis(1), [&] {
    ++fired;
    engine.schedule(0, Duration::millis(1), [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(0).since_start().to_millis(), 2);
}

TEST(QueueingStation, TotalWaitAccumulatesAcrossBusyPeriods) {
  QueueingStation station(Duration::millis(10));
  // Busy period 1: three arrivals at t=0 wait 0, 10, 20 ms.
  (void)station.submit(TimePoint::zero());
  (void)station.submit(TimePoint::zero());
  (void)station.submit(TimePoint::zero());
  EXPECT_EQ(station.total_wait().to_millis(), 30);
  // Idle gap, then busy period 2: arrivals at t=100 wait 0 and 10 ms —
  // total_wait keeps accumulating, it is not per-busy-period.
  (void)station.submit(TimePoint::at(Duration::millis(100)));
  (void)station.submit(TimePoint::at(Duration::millis(100)));
  EXPECT_EQ(station.total_wait().to_millis(), 40);
  EXPECT_EQ(station.processed(), 5u);
}

TEST(QueueingStation, SerializesBackToBackArrivals) {
  QueueingStation station(Duration::millis(10));
  TimePoint t0 = TimePoint::zero();
  EXPECT_EQ(station.submit(t0).since_start().to_millis(), 10);
  EXPECT_EQ(station.submit(t0).since_start().to_millis(), 20);
  EXPECT_EQ(station.submit(t0).since_start().to_millis(), 30);
  EXPECT_EQ(station.processed(), 3u);
  // Second and third waited 10 and 20 ms.
  EXPECT_EQ(station.total_wait().to_millis(), 30);
}

TEST(QueueingStation, IdleServerStartsImmediately) {
  QueueingStation station(Duration::millis(10));
  auto first = station.submit(TimePoint::at(Duration::millis(5)));
  EXPECT_EQ(first.since_start().to_millis(), 15);
  // Arrival after the server went idle: no wait.
  auto second = station.submit(TimePoint::at(Duration::millis(100)));
  EXPECT_EQ(second.since_start().to_millis(), 110);
  EXPECT_EQ(station.total_wait().to_millis(), 0);
}

TEST(QueueingStation, PerMessageServiceOverride) {
  QueueingStation station(Duration::millis(10));
  auto done = station.submit(TimePoint::zero(), Duration::millis(1));
  EXPECT_EQ(done.since_start().to_millis(), 1);
}

TEST(QueueingStation, EmptyBurstReturnsArrival) {
  QueueingStation station(Duration::millis(10));
  TimePoint at = TimePoint::at(Duration::millis(7));
  EXPECT_EQ(station.submit_burst(at, 0), at);
  EXPECT_EQ(station.processed(), 0u);
}

TEST(QueueingStation, BurstOnIdleStationServesBackToBack) {
  QueueingStation station(Duration::millis(10));
  TimePoint done = station.submit_burst(TimePoint::at(Duration::millis(5)), 3);
  EXPECT_EQ(done.since_start().to_millis(), 35);
  EXPECT_EQ(station.processed(), 3u);
  // The second and third messages waited 10 and 20 ms.
  EXPECT_EQ(station.total_wait().to_millis(), 30);
}

TEST(QueueingStation, BurstOnBusyStationQueuesBehindBacklog) {
  QueueingStation station(Duration::millis(10));
  (void)station.submit(TimePoint::zero());
  (void)station.submit(TimePoint::zero());  // busy until t=20
  TimePoint done = station.submit_burst(TimePoint::at(Duration::millis(5)), 2);
  EXPECT_EQ(done.since_start().to_millis(), 40);
  // 10 for the second of the first pair, then 15 and 25 for the burst.
  EXPECT_EQ(station.total_wait().to_millis(), 50);
}

TEST(QueueingStation, BurstCountsEveryMessage) {
  QueueingStation station(Duration::millis(1), "burst-count-test");
  const obs::Counter* messages = obs::default_registry().find_counter(
      "sim_queue_messages_total", {{"station", "burst-count-test"}});
  ASSERT_NE(messages, nullptr);
  std::uint64_t before = messages->value();
  (void)station.submit_burst(TimePoint::zero(), 4);
  EXPECT_EQ(messages->value(), before + 4);
}

TEST(QueueingStation, ResetClearsState) {
  QueueingStation station(Duration::millis(10));
  (void)station.submit(TimePoint::zero());
  station.reset();
  EXPECT_EQ(station.processed(), 0u);
  EXPECT_EQ(station.submit(TimePoint::zero()).since_start().to_millis(), 10);
}

}  // namespace
}  // namespace softmow::sim
