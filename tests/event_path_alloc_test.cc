// Zero-allocation check for the simulator's event path. This binary
// replaces the global operator new/delete with counting versions (hence
// its own executable), warms a hold model over four nodes up, and then
// asserts that 100k further events — relative, same-time and absolute
// pushes, network deliveries and worker-pool completions — make no heap
// allocation at all.

#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/worker_pool.h"

namespace {

// A plain counter: the simulator is single-threaded and gtest starts no
// threads.
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hermes::sim {
namespace {

constexpr int kNodes = 4;

/// Keeps a fixed number of events in flight. Each firing picks the next
/// hop from a hash of its state and reschedules itself through one of the
/// event paths; every closure is `this` plus a small id, so it fits a
/// Task's inline buffer.
struct HoldModel {
  Simulator* sim;
  Network* net;
  WorkerPool* pools[kNodes];
  uint64_t budget;
  uint64_t fired = 0;
  uint64_t same_time = 0;

  void Fire(int node, uint64_t state) {
    ++fired;
    if (budget == 0) return;
    --budget;
    state = Mix64(state + 1);
    const int next = static_cast<int>(state % kNodes);
    const SimTime delay = 1 + (state >> 40) % 50;
    switch ((state >> 8) % 5) {
      case 0:  // relative push
        sim->Schedule(delay,
                      InlineTask([this, next, state] { Fire(next, state); }));
        break;
      case 1:  // network delivery to the next node
        net->Send(static_cast<NodeId>(node), static_cast<NodeId>(next), 64,
                  InlineTask([this, next, state] { Fire(next, state); }));
        break;
      case 2:  // worker completion on this node
        pools[node]->Submit(delay, InlineTask([this, node, state] {
                              Fire(node, state);
                            }));
        break;
      case 3:  // same-time push, behind the events already queued for now
        ++same_time;
        sim->Schedule(0,
                      InlineTask([this, next, state] { Fire(next, state); }));
        break;
      default:  // absolute-time push
        sim->ScheduleAt(sim->Now() + delay,
                        InlineTask([this, node, state] { Fire(node, state); }));
        break;
    }
  }
};

TEST(EventPathAllocTest, WarmedUpEventsAllocateNothing) {
  constexpr uint64_t kDepth = 256;
  constexpr uint64_t kWarmup = 50'000;
  constexpr uint64_t kMeasured = 100'000;

  Simulator sim;
  CostModel costs;
  Network net(&sim, &costs, kNodes);
  WorkerPool p0(&sim, 2), p1(&sim, 2), p2(&sim, 2), p3(&sim, 2);
  HoldModel model{&sim, &net, {&p0, &p1, &p2, &p3}, kWarmup};

  for (uint64_t i = 0; i < kDepth; ++i) {
    const int node = static_cast<int>(i % kNodes);
    sim.Schedule(1, [&model, node, i] { model.Fire(node, i); });
  }
  // Warm-up: the budget runs dry and the in-flight chains drain, leaving
  // the queue's heap and slab at their high-water marks.
  sim.RunAll();
  ASSERT_GE(model.fired, kWarmup);
  ASSERT_GT(model.same_time, 0u);

  model.budget = kMeasured;
  const uint64_t fired_before = model.fired;
  const uint64_t msgs_before = net.total_messages();
  const uint64_t allocs_before = g_allocs;
  for (uint64_t i = 0; i < kDepth; ++i) {
    const int node = static_cast<int>(i % kNodes);
    sim.Schedule(1, InlineTask([&model, node, i] {
                   model.Fire(node, i + 1'000'000);
                 }));
  }
  sim.RunAll();
  const uint64_t allocs = g_allocs - allocs_before;

  EXPECT_GE(model.fired - fired_before, kMeasured);
  EXPECT_GT(net.total_messages(), msgs_before);
  EXPECT_EQ(allocs, 0u) << "heap allocations on the warmed-up event path";
}

TEST(EventPathAllocTest, CounterSeesBoxedClosures) {
  // Guards the test above against a counter that never counts: an
  // oversize closure must show up as one allocation.
  char pad[128] = {};
  const uint64_t before = g_allocs;
  Task t([pad] { (void)pad; });
  EXPECT_TRUE(t.boxed());
  EXPECT_EQ(g_allocs - before, 1u);
}

}  // namespace
}  // namespace hermes::sim
