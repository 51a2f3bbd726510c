#include "sim/task.h"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hermes::sim {
namespace {

/// Counts live instances, copies and moves of a capture.
struct Tracker {
  static int live;
  static int moves;
  int value;

  explicit Tracker(int v) : value(v) { ++live; }
  Tracker(const Tracker& o) : value(o.value) { ++live; }
  Tracker(Tracker&& o) noexcept : value(o.value) {
    ++live;
    ++moves;
  }
  ~Tracker() { --live; }
};
int Tracker::live = 0;
int Tracker::moves = 0;

class TaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracker::live = 0;
    Tracker::moves = 0;
  }
};

TEST_F(TaskTest, EmptyTaskIsFalse) {
  Task t;
  EXPECT_FALSE(t);
  EXPECT_FALSE(t.boxed());
  Task n = nullptr;
  EXPECT_FALSE(n);
}

TEST_F(TaskTest, SmallClosureIsInlineAndRuns) {
  int hits = 0;
  Task t([&hits] { ++hits; });
  ASSERT_TRUE(t);
  EXPECT_FALSE(t.boxed());
  t();
  t();
  EXPECT_EQ(hits, 2);
}

TEST_F(TaskTest, InlineLimitIsExact) {
  constexpr size_t kWords = Task::kInlineBytes / sizeof(uint64_t);
  uint64_t seen = 0;
  // kInlineBytes exactly: kWords - 1 words of payload plus one pointer.
  std::array<uint64_t, kWords - 1> fits_payload{};
  fits_payload.back() = 9;
  auto exact = [fits_payload, out = &seen] { *out = fits_payload.back(); };
  // One word more.
  std::array<uint64_t, kWords> over_payload{};
  over_payload.back() = 7;
  auto over = [over_payload, out = &seen] { *out = over_payload.back(); };
  static_assert(sizeof(exact) == Task::kInlineBytes);
  static_assert(Task::kFitsInline<decltype(exact)>);
  static_assert(!Task::kFitsInline<decltype(over)>);

  Task inline_task(exact);
  EXPECT_FALSE(inline_task.boxed());
  inline_task();
  EXPECT_EQ(seen, 9u);

  Task boxed_task(over);
  EXPECT_TRUE(boxed_task.boxed());
  boxed_task();
  EXPECT_EQ(seen, 7u);
}

TEST_F(TaskTest, OversizeClosureIsBoxedAndStillRuns) {
  std::array<uint64_t, 16> big{};
  big[15] = 42;
  uint64_t seen = 0;
  Task t([big, &seen] { seen = big[15]; });
  EXPECT_TRUE(t.boxed());
  Task moved = std::move(t);
  EXPECT_FALSE(t);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(moved.boxed());
  moved();
  EXPECT_EQ(seen, 42u);
}

TEST_F(TaskTest, AcceptsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(5);
  int seen = 0;
  Task t([p = std::move(owned), &seen] { seen = *p; });
  EXPECT_FALSE(t.boxed());
  Task moved(std::move(t));
  moved();
  EXPECT_EQ(seen, 5);
}

TEST_F(TaskTest, DestroysInlineCaptureExactlyOnce) {
  {
    Task t([tr = Tracker(1)] { (void)tr.value; });
    EXPECT_FALSE(t.boxed());
    EXPECT_EQ(Tracker::live, 1);
    Task a = std::move(t);
    EXPECT_EQ(Tracker::live, 1);  // relocated, source destroyed
    Task b;
    b = std::move(a);
    EXPECT_EQ(Tracker::live, 1);
    EXPECT_GE(Tracker::moves, 2);
  }
  EXPECT_EQ(Tracker::live, 0);
}

TEST_F(TaskTest, DestroysBoxedCaptureExactlyOnce) {
  {
    std::array<uint64_t, 16> pad{};
    Task t([tr = Tracker(2), pad] { (void)tr.value, (void)pad; });
    EXPECT_TRUE(t.boxed());
    EXPECT_EQ(Tracker::live, 1);
    Task a = std::move(t);
    EXPECT_EQ(Tracker::live, 1);
    EXPECT_EQ(Tracker::moves, 1);  // only the move into the box
  }
  EXPECT_EQ(Tracker::live, 0);
}

TEST_F(TaskTest, AssignmentDestroysThePreviousClosure) {
  Task t([tr = Tracker(1)] { (void)tr.value; });
  EXPECT_EQ(Tracker::live, 1);
  t = Task([] {});
  EXPECT_EQ(Tracker::live, 0);
  t = [tr = Tracker(3)] { (void)tr.value; };
  EXPECT_EQ(Tracker::live, 1);
  t = nullptr;
  EXPECT_FALSE(t);
  EXPECT_EQ(Tracker::live, 0);
}

TEST_F(TaskTest, MovedFromTaskIsEmptyAndReusable) {
  std::string log;
  Task t([&log] { log += "a"; });
  Task u = std::move(t);
  EXPECT_FALSE(t);  // NOLINT(bugprone-use-after-move)
  t = [&log] { log += "b"; };
  t();
  u();
  EXPECT_EQ(log, "ba");
}

TEST_F(TaskTest, SelfMoveAssignmentKeepsTheClosure) {
  int hits = 0;
  Task t([&hits] { ++hits; });
  Task& alias = t;
  t = std::move(alias);
  ASSERT_TRUE(t);
  t();
  EXPECT_EQ(hits, 1);
}

TEST_F(TaskTest, ConvertsFromStdFunction) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  Task t(fn);
  EXPECT_FALSE(t.boxed());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(SlotPoolTest, RecyclesSlotsInLifoOrder) {
  SlotPool<std::string> pool;
  const uint32_t a = pool.Park("a");
  const uint32_t b = pool.Park("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Take(a), "a");
  EXPECT_EQ(pool.size(), 1u);
  const uint32_t c = pool.Park("c");
  EXPECT_EQ(c, a);  // the freed slot is reused
  EXPECT_EQ(pool[c], "c");
  EXPECT_EQ(pool.Take(b), "b");
  EXPECT_EQ(pool.Take(c), "c");
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace hermes::sim
