#include "sim/event_queue.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "common/rng.h"

namespace hermes::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(30, [&] { fired.push_back(3); });
  q.Push(10, [&] { fired.push_back(1); });
  q.Push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.Pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.Pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Push(42, [] {});
  q.Push(7, [] {});
  EXPECT_EQ(q.NextTime(), 7u);
  q.Pop();
  EXPECT_EQ(q.NextTime(), 42u);
}

TEST(EventQueueTest, SizeTracksContents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.Push(1, [] {});
  q.Push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
}

// The documented total order is (when, insertion sequence): among equal
// virtual times, events fire strictly in the order they were pushed — no
// matter how pushes at other timestamps interleave with them. The
// scheduler, network, and executor all rely on this when they schedule
// work "now".
TEST(EventQueueTest, EqualTimeOrderIndependentOfInsertionPattern) {
  // Three insertion patterns for the same logical event set: events
  // {0..5} at time 100 interleaved with noise at times 50/150/100±0.
  // Within time 100 the push order of the labeled events is identical, so
  // the firing order of the labels must be identical too.
  auto run = [](int pattern) {
    EventQueue q;
    std::vector<int> fired;
    auto label = [&fired](int i) { return [&fired, i] { fired.push_back(i); }; };
    switch (pattern) {
      case 0:  // labels first, then noise
        for (int i = 0; i < 6; ++i) q.Push(100, label(i));
        q.Push(50, [] {});
        q.Push(150, [] {});
        break;
      case 1:  // noise before, between, after
        q.Push(150, [] {});
        q.Push(100, label(0));
        q.Push(50, [] {});
        q.Push(100, label(1));
        q.Push(100, label(2));
        q.Push(150, [] {});
        q.Push(100, label(3));
        q.Push(50, [] {});
        q.Push(100, label(4));
        q.Push(100, label(5));
        break;
      default:  // labels pushed while draining earlier times
        q.Push(50, [&q, &label] {
          for (int i = 0; i < 3; ++i) q.Push(100, label(i));
        });
        q.Push(50, [&q, &label] {
          for (int i = 3; i < 6; ++i) q.Push(100, label(i));
        });
        q.Push(150, [] {});
        break;
    }
    while (!q.empty()) q.Pop()();
    return fired;
  };
  const std::vector<int> want = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(run(0), want);
  EXPECT_EQ(run(1), want);
  EXPECT_EQ(run(2), want);
}

TEST(EventQueueTest, PushDuringPopOfSameTimeFiresAfterAllCurrent) {
  // An event at time T that pushes another event at time T: the new event
  // has a larger sequence number, so it fires after everything already
  // enqueued at T — the queue can never reorder "now" work ahead of
  // earlier "now" work.
  EventQueue q;
  std::vector<int> fired;
  q.Push(10, [&] {
    fired.push_back(0);
    q.Push(10, [&] { fired.push_back(2); });
  });
  q.Push(10, [&] { fired.push_back(1); });
  while (!q.empty()) q.Pop()();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, DigestRecordsPopOrder) {
  // The digest folds every popped (when, seq) pair, in pop order. Two
  // queues that fire the same events in the same order must agree; a
  // queue that fires them in a different order must not.
  auto digest_of = [](const std::vector<SimTime>& push_times) {
    EventQueue q;
    DecisionDigest d;
    q.set_digest(&d);
    for (SimTime t : push_times) q.Push(t, [] {});
    while (!q.empty()) q.Pop()();
    return std::make_pair(d.value(), d.count());
  };
  const auto a = digest_of({30, 10, 20});
  const auto b = digest_of({30, 10, 20});
  EXPECT_EQ(a, b);
  // Each pop mixes two words: when and seq.
  EXPECT_EQ(a.second, 6u);
  // Same multiset of times pushed in a different order assigns different
  // sequence numbers, so the digest differs — the digest is a transcript
  // of the actual firing order, not of the event set.
  const auto c = digest_of({10, 20, 30});
  EXPECT_NE(a.first, c.first);
}

// The slab recycles a popped event's slot for the next push, often while
// that event is still firing. Pops must nonetheless follow (when, seq)
// exactly: this drives random pushes, pops and nested pushes from inside
// firing events, and checks every pop — time, sequence number and
// payload — against a reference std::priority_queue of plain tuples.
TEST(EventQueueTest, SlotReuseMatchesReferenceOrder) {
  using Ref = std::tuple<SimTime, uint64_t, int>;  // (when, seq, payload)
  EventQueue q;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  Rng rng(17);
  uint64_t seq = 0;
  int next_payload = 0;
  int fired_payload = -1;
  SimTime now = 0;

  std::function<void(SimTime)> push = [&](SimTime when) {
    const int payload = next_payload++;
    ref.emplace(when, seq++, payload);
    // Every third event pushes a child when it fires (a nested push into
    // the slab while the parent's slot is already free).
    const bool spawns = payload % 3 == 0;
    q.Push(when, [&, payload, spawns] {
      fired_payload = payload;
      if (spawns) push(now + rng.NextBounded(4));
    });
  };

  size_t max_size = 0;
  for (int step = 0; step < 20'000; ++step) {
    if (rng.NextBounded(100) < 55) {
      push(now + rng.NextBounded(8));
    } else if (!q.empty()) {
      ASSERT_FALSE(ref.empty());
      const auto [when, ref_seq, payload] = ref.top();
      ref.pop();
      EventQueue::Popped e = q.PopEntry();
      ASSERT_EQ(e.when, when);
      ASSERT_EQ(e.seq, ref_seq);
      now = e.when;
      e();
      ASSERT_EQ(fired_payload, payload);
    }
    max_size = std::max(max_size, q.size());
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!q.empty()) {
    const auto [when, ref_seq, payload] = ref.top();
    ref.pop();
    EventQueue::Popped e = q.PopEntry();
    ASSERT_EQ(e.when, when);
    ASSERT_EQ(e.seq, ref_seq);
    now = e.when;
    e();
    ASSERT_EQ(fired_payload, payload);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(q.next_seq(), seq);
  // Slots were recycled: the slab never grew past the peak backlog (+1
  // for a child pushed while its parent's popped slot was free).
  EXPECT_LE(q.slab_capacity(), max_size + 1);
}

}  // namespace
}  // namespace hermes::sim
