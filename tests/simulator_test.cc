#include "sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "sim/network.h"
#include "sim/worker_pool.h"

namespace hermes::sim {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = 0;
  sim.Schedule(100, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(50, [&] { ++fired; });
  sim.Schedule(150, [&] { ++fired; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100u);
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnIdleQueue) {
  Simulator sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.Now(), 500u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(5, [&] { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.RunAll();
  SimTime seen = 0;
  sim.ScheduleAt(50, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// The digest transcript of a clamped ScheduleAt: a past `when` clamps to
// Now() and the clamped event takes the next sequence number, so the pops
// fed to the decision digest are exactly (100, seq 0), (100, seq 1).
// Pinned by replaying the (when, seq) mixing scheme by hand; a change to
// either the clamp rule or the digest's total order breaks this test.
TEST(SimulatorTest, ScheduleAtPastClampDigestTranscript) {
  Simulator sim;
  DecisionDigest digest;
  sim.set_decision_digest(&digest);
  SimTime clamped_fire = 0;
  sim.Schedule(100, [&] {
    sim.ScheduleAt(40, [&] { clamped_fire = sim.Now(); });  // 40 < now=100
  });
  sim.RunAll();
  EXPECT_EQ(clamped_fire, 100u);

  DecisionDigest expected;
  expected.Mix(100);  // outer event, seq 0
  expected.Mix(0);
  expected.Mix(100);  // clamped event, seq 1
  expected.Mix(1);
  EXPECT_EQ(digest.value(), expected.value());
  EXPECT_EQ(digest.count(), expected.count());
}

// Events at one timestamp fire in the order they were scheduled, whichever
// node they concern: network deliveries to different destinations, worker
// completions on different nodes and plain events interleave strictly
// FIFO.
TEST(SimulatorTest, EqualTimestampsFireFifoWhicheverNodeTheyTarget) {
  Simulator sim;
  CostModel costs;
  costs.net_latency_us = 50;
  costs.net_us_per_byte = 0;
  costs.message_overhead_bytes = 0;
  Network net(&sim, &costs, 4);
  WorkerPool pool0(&sim, 1);
  WorkerPool pool2(&sim, 1);
  std::vector<int> order;
  net.Send(0, 3, 8, [&] { order.push_back(0); });
  pool2.Submit(50, [&] { order.push_back(1); });
  net.Send(2, 1, 8, [&] { order.push_back(2); });
  sim.ScheduleAt(50, [&] { order.push_back(3); });
  pool0.Submit(50, [&] { order.push_back(4); });
  net.Send(3, 0, 8, [&] { order.push_back(5); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.Now(), 50u);
}

// An event scheduled for the current time from inside a handler fires
// after every event already queued for that time — the same rule a past
// time clamped to Now() follows.
TEST(SimulatorTest, ScheduleAtNowFromHandlerFiresAfterQueuedEvents) {
  Simulator sim;
  std::vector<char> order;
  sim.ScheduleAt(100, [&] {
    order.push_back('a');
    sim.Schedule(0, [&] { order.push_back('d'); });
    sim.ScheduleAt(sim.Now(), [&] { order.push_back('e'); });
    sim.ScheduleAt(10, [&] { order.push_back('f'); });  // past: clamps
  });
  sim.ScheduleAt(100, [&] { order.push_back('b'); });
  sim.ScheduleAt(100, [&] { order.push_back('c'); });
  sim.ScheduleAt(101, [&] { order.push_back('g'); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd', 'e', 'f', 'g'}));
}

}  // namespace
}  // namespace hermes::sim
