#include "storage/lock_manager.h"

#include <vector>

#include <gtest/gtest.h>

namespace hermes::storage {
namespace {

std::vector<LockRequest> Reqs(std::initializer_list<LockRequest> list) {
  return {list};
}

TEST(LockManagerTest, ImmediateGrantOnFreeKeys) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}, {20, false}}), &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 1u);
  EXPECT_TRUE(lm.HoldsAll(1));
}

TEST(LockManagerTest, EmptyRequestIsGrantedImmediately) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, {}, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_TRUE(lm.HoldsAll(1));
}

TEST(LockManagerTest, ExclusiveBlocksExclusive) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  granted.clear();
  lm.Acquire(2, Reqs({{10, true}}), &granted);
  EXPECT_TRUE(granted.empty());
  EXPECT_FALSE(lm.HoldsAll(2));

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_TRUE(lm.HoldsAll(2));
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, false}}), &granted);
  lm.Acquire(2, Reqs({{10, false}}), &granted);
  lm.Acquire(3, Reqs({{10, false}}), &granted);
  EXPECT_EQ(granted.size(), 3u);
}

TEST(LockManagerTest, SharedDoesNotJumpExclusiveQueue) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, false}}), &granted);  // granted shared
  granted.clear();
  lm.Acquire(2, Reqs({{10, true}}), &granted);  // waits
  lm.Acquire(3, Reqs({{10, false}}), &granted);  // must wait behind 2
  EXPECT_TRUE(granted.empty());

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);  // FIFO: exclusive first

  granted.clear();
  lm.Release(2, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
}

TEST(LockManagerTest, GrantsAllSharedPrefixOnRelease) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  lm.Acquire(2, Reqs({{10, false}}), &granted);
  lm.Acquire(3, Reqs({{10, false}}), &granted);
  lm.Acquire(4, Reqs({{10, true}}), &granted);
  granted.clear();

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 2u);  // both shared readers
  EXPECT_EQ(granted[0], 2u);
  EXPECT_EQ(granted[1], 3u);
  EXPECT_FALSE(lm.HoldsAll(4));
}

TEST(LockManagerTest, MultiKeyTxnGrantedOnlyWhenAllKeysHeld) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  granted.clear();
  lm.Acquire(2, Reqs({{10, true}, {20, true}}), &granted);
  EXPECT_TRUE(granted.empty());  // holds 20, waits on 10

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
}

TEST(LockManagerTest, ReleaseOfWaitingTxnRemovesItFromQueues) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  lm.Acquire(2, Reqs({{10, true}}), &granted);
  lm.Acquire(3, Reqs({{10, true}}), &granted);
  granted.clear();

  // Txn 2 gives up its (waiting) request; txn 3 should follow txn 1.
  lm.Release(2, &granted);
  EXPECT_TRUE(granted.empty());
  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
}

TEST(LockManagerTest, TotalOrderPreservedUnderInterleaving) {
  // Conservative ordered locking invariant: grants per key follow the
  // acquire order regardless of release interleavings.
  LockManager lm;
  std::vector<TxnId> granted;
  for (TxnId t = 1; t <= 5; ++t) {
    lm.Acquire(t, Reqs({{7, true}}), &granted);
  }
  granted.clear();
  for (TxnId t = 1; t <= 4; ++t) {
    lm.Release(t, &granted);
    ASSERT_EQ(granted.size(), t);
    EXPECT_EQ(granted.back(), t + 1);
  }
}

TEST(LockManagerTest, ManyKeysManyTxnsDrainCompletely) {
  LockManager lm;
  std::vector<TxnId> granted;
  constexpr int kTxns = 200;
  int total_granted = 0;
  for (TxnId t = 0; t < kTxns; ++t) {
    std::vector<LockRequest> reqs;
    for (Key k = t % 5; k < 20; k += 5) reqs.push_back({k, (t % 3) == 0});
    granted.clear();
    lm.Acquire(t, reqs, &granted);
    total_granted += static_cast<int>(granted.size());
  }
  // Release in order; everything must eventually be granted exactly once.
  for (TxnId t = 0; t < kTxns; ++t) {
    granted.clear();
    lm.Release(t, &granted);
    total_granted += static_cast<int>(granted.size());
  }
  EXPECT_EQ(total_granted, kTxns);
  EXPECT_EQ(lm.num_txns(), 0u);
  EXPECT_EQ(lm.num_active_keys(), 0u);
}

TEST(LockManagerTest, ReleaseOfUnknownTxnIsNoOp) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  granted.clear();
  lm.Release(99, &granted);
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(lm.num_txns(), 1u);
  EXPECT_EQ(lm.num_active_keys(), 1u);
  lm.Release(1, &granted);
  lm.Release(1, &granted);  // second release: unknown again
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(lm.num_txns(), 0u);
}

#ifndef NDEBUG
TEST(LockManagerDeathTest, AcquireTwiceAsserts) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  EXPECT_DEATH(lm.Acquire(1, Reqs({{20, false}}), &granted),
               "Acquire called twice");
}

TEST(LockManagerDeathTest, DuplicateKeyInOneAcquireAsserts) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, false}}), &granted);  // 10 already queued
  EXPECT_DEATH(lm.Acquire(2, Reqs({{10, false}, {20, true}, {10, true}}),
                          &granted),
               "duplicate key");
  // First occupant of a key: the duplicate finds its own waiter at the tail.
  EXPECT_DEATH(lm.Acquire(3, Reqs({{30, true}, {30, true}}), &granted),
               "duplicate key");
}
#endif  // NDEBUG

}  // namespace
}  // namespace hermes::storage
