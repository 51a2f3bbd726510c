// Differential test for the flat lock table: seeded random schedules run
// against LockManager and against the deque-based lock manager it
// replaced (kept here, verbatim in behaviour, as the reference model).
// After every operation both must report the same newly granted txns in
// the same order, the same HoldsAll answers, num_txns() and
// num_active_keys().

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "storage/lock_manager.h"

namespace hermes::storage {
namespace {

/// The previous LockManager: HashMap<Key, deque<Waiter>> plus a per-txn
/// key list, with an O(depth) scan for the shared-join check.
class ReferenceLockManager {
 public:
  void Acquire(TxnId txn, const std::vector<LockRequest>& reqs,
               std::vector<TxnId>* newly_granted) {
    TxnState& state = txns_[txn];
    state.pending = reqs.size();
    if (reqs.empty()) {
      NoteGranted(txn, newly_granted);
      return;
    }
    for (const LockRequest& req : reqs) {
      state.keys.push_back(req.key);
      std::deque<Waiter>& queue = queues_[req.key];
      queue.push_back(Waiter{txn, req.exclusive, /*granted=*/false});
      if (queue.size() == 1) {
        queue.front().granted = true;
        NoteGranted(txn, newly_granted);
      } else if (!req.exclusive) {
        bool all_shared_granted = true;
        for (size_t i = 0; i + 1 < queue.size(); ++i) {
          if (queue[i].exclusive || !queue[i].granted) {
            all_shared_granted = false;
            break;
          }
        }
        if (all_shared_granted) {
          queue.back().granted = true;
          NoteGranted(txn, newly_granted);
        }
      }
    }
  }

  void Release(TxnId txn, std::vector<TxnId>* newly_granted) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) return;
    std::vector<Key> keys = std::move(it->second.keys);
    txns_.erase(it);
    for (Key key : keys) {
      auto qit = queues_.find(key);
      if (qit == queues_.end()) continue;
      std::deque<Waiter>& queue = qit->second;
      for (auto w = queue.begin(); w != queue.end(); ++w) {
        if (w->txn == txn) {
          queue.erase(w);
          break;
        }
      }
      if (queue.empty()) {
        queues_.erase(qit);
      } else {
        GrantFront(queue, newly_granted);
      }
    }
  }

  bool HoldsAll(TxnId txn) const {
    auto it = txns_.find(txn);
    return it != txns_.end() && it->second.pending == 0;
  }
  size_t num_txns() const { return txns_.size(); }
  size_t num_active_keys() const { return queues_.size(); }

 private:
  struct Waiter {
    TxnId txn;
    bool exclusive;
    bool granted;
  };
  struct TxnState {
    std::vector<Key> keys;
    size_t pending = 0;
  };

  void GrantFront(std::deque<Waiter>& queue,
                  std::vector<TxnId>* newly_granted) {
    if (queue.front().exclusive) {
      if (!queue.front().granted) {
        queue.front().granted = true;
        NoteGranted(queue.front().txn, newly_granted);
      }
      return;
    }
    for (Waiter& w : queue) {
      if (w.exclusive) break;
      if (!w.granted) {
        w.granted = true;
        NoteGranted(w.txn, newly_granted);
      }
    }
  }

  void NoteGranted(TxnId txn, std::vector<TxnId>* newly_granted) {
    TxnState& state = txns_.at(txn);
    if (state.pending > 0) --state.pending;
    if (state.pending == 0) newly_granted->push_back(txn);
  }

  HashMap<Key, std::deque<Waiter>> queues_;
  HashMap<TxnId, TxnState> txns_;
};

/// Drives both lock managers in lockstep and compares them after every
/// operation.
class Lockstep {
 public:
  void Acquire(TxnId txn, const std::vector<LockRequest>& reqs) {
    Run([&](auto& lm, std::vector<TxnId>* out) { lm.Acquire(txn, reqs, out); },
        "acquire", txn);
    live_.push_back(txn);
  }

  /// Releases the live txn at `index` of the live list (granted or still
  /// waiting: the watchdog-abort path releases waiting txns).
  void ReleaseAt(size_t index) {
    const TxnId txn = live_[index];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(index));
    Release(txn);
  }

  void Release(TxnId txn) {
    Run([&](auto& lm, std::vector<TxnId>* out) { lm.Release(txn, out); },
        "release", txn);
  }

  void Drain() {
    while (!live_.empty()) ReleaseAt(0);
    EXPECT_EQ(flat_.num_txns(), 0u);
    EXPECT_EQ(flat_.num_active_keys(), 0u);
  }

  size_t live() const { return live_.size(); }
  size_t max_active_keys() const { return max_active_keys_; }
  size_t max_granted_batch() const { return max_granted_batch_; }

 private:
  template <typename Op>
  void Run(Op op, const char* what, TxnId txn) {
    std::vector<TxnId> got;
    std::vector<TxnId> want;
    op(flat_, &got);
    op(ref_, &want);
    ++step_;
    const std::string where = std::string(what) + " of txn " +
                              std::to_string(txn) + " at step " +
                              std::to_string(step_);
    ASSERT_EQ(got, want) << "newly_granted differs after " << where;
    ASSERT_EQ(flat_.num_txns(), ref_.num_txns()) << where;
    ASSERT_EQ(flat_.num_active_keys(), ref_.num_active_keys()) << where;
    // Released and unknown txns must read false in both; live ones agree.
    ASSERT_EQ(flat_.HoldsAll(txn), ref_.HoldsAll(txn)) << where;
    ASSERT_FALSE(flat_.HoldsAll(kInvalidTxn)) << where;
    for (TxnId t : live_) {
      ASSERT_EQ(flat_.HoldsAll(t), ref_.HoldsAll(t))
          << "HoldsAll(" << t << ") differs after " << where;
    }
    max_active_keys_ = std::max(max_active_keys_, flat_.num_active_keys());
    max_granted_batch_ = std::max(max_granted_batch_, got.size());
  }

  LockManager flat_;
  ReferenceLockManager ref_;
  std::vector<TxnId> live_;
  size_t step_ = 0;
  size_t max_active_keys_ = 0;
  size_t max_granted_batch_ = 0;
};

/// Distinct keys for one request set, each shared or exclusive with
/// probability 1/2.
std::vector<LockRequest> RandomRequests(Rng& rng, const std::vector<Key>& pool,
                                        size_t count) {
  std::vector<LockRequest> reqs;
  while (reqs.size() < count) {
    const Key k = pool[rng.NextBounded(pool.size())];
    const bool dup =
        std::any_of(reqs.begin(), reqs.end(),
                    [k](const LockRequest& r) { return r.key == k; });
    if (!dup) reqs.push_back({k, rng.NextBounded(2) == 0});
  }
  return reqs;
}

std::vector<Key> Range(Key n) {
  std::vector<Key> keys(n);
  for (Key k = 0; k < n; ++k) keys[k] = k;
  return keys;
}

class LockManagerReferenceTest : public ::testing::TestWithParam<uint64_t> {};

// Mixed schedule over many keys: multi-key txns, empty request sets, and
// releases of granted and still-waiting txns in random order. Thousands
// of simultaneously active keys force repeated table growth.
TEST_P(LockManagerReferenceTest, RandomScheduleMatchesReference) {
  Rng rng(GetParam());
  Lockstep lm;
  const std::vector<Key> keys = Range(6000);
  TxnId next = 0;
  for (int step = 0; step < 6000; ++step) {
    if (lm.live() == 0 || rng.NextBounded(100) < 55) {
      const size_t count =
          rng.NextBounded(20) == 0 ? 0 : 1 + rng.NextBounded(6);
      lm.Acquire(next++, RandomRequests(rng, keys, count));
    } else {
      lm.ReleaseAt(rng.NextBounded(lm.live()));
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(lm.max_active_keys(), 1000u);
  lm.Drain();
}

// One hot key under a queue of ≥256 waiters with a shared/exclusive mix,
// plus a few cold keys so waiters also block elsewhere; releases come
// from anywhere in the queue.
TEST_P(LockManagerReferenceTest, DeepSingleKeyQueueMatchesReference) {
  Rng rng(GetParam());
  Lockstep lm;
  constexpr Key kHot = 7;
  const std::vector<Key> cold = {100, 101, 102, 103};
  TxnId next = 0;
  for (int round = 0; round < 3; ++round) {
    while (lm.live() < 300) {
      std::vector<LockRequest> reqs;
      // Long shared runs between writers make big granted groups.
      reqs.push_back({kHot, rng.NextBounded(8) == 0});
      if (rng.NextBounded(4) == 0) {
        reqs.push_back({cold[rng.NextBounded(cold.size())],
                        rng.NextBounded(2) == 0});
      }
      lm.Acquire(next++, reqs);
      if (HasFatalFailure()) return;
    }
    while (lm.live() > 20) {
      // Mostly the queue front (holders finish), sometimes deep waiters.
      const size_t pick = rng.NextBounded(3) == 0
                              ? rng.NextBounded(lm.live())
                              : rng.NextBounded(std::min<size_t>(4, lm.live()));
      lm.ReleaseAt(pick);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(lm.max_granted_batch(), 1u);
  lm.Drain();
}

// Keys whose salted hash ends in ten one-bits all share the last slot as
// their home in every table of up to 1024 slots, so they form a single
// probe run that wraps past the end of the table through every growth
// step, and erasing from it exercises backward shift across the wrap.
TEST_P(LockManagerReferenceTest, WrappedProbeRunsMatchReference) {
  Rng rng(GetParam());
  constexpr uint64_t kLow = (1u << 10) - 1;
  std::vector<Key> colliding;
  for (Key k = 0; colliding.size() < 300; ++k) {
    if ((detail::SaltAndFinalize(k) & kLow) == kLow) colliding.push_back(k);
  }
  Lockstep lm;
  TxnId next = 0;
  for (int step = 0; step < 4000; ++step) {
    if (lm.live() < 40 || rng.NextBounded(100) < 50) {
      lm.Acquire(next++,
                 RandomRequests(rng, colliding, 1 + rng.NextBounded(4)));
    } else {
      lm.ReleaseAt(rng.NextBounded(lm.live()));
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(lm.max_active_keys(), 32u);
  lm.Drain();
}

// The same schedule under a different hash salt grants identically: the
// table's layout moves, its decisions do not.
TEST_P(LockManagerReferenceTest, GrantsAreSaltInvariant) {
  auto run = [&](uint64_t salt) {
    SetHashSalt(salt);
    Rng rng(GetParam());
    LockManager lm;
    std::vector<TxnId> log;
    std::vector<TxnId> live;
    TxnId next = 0;
    const std::vector<Key> keys = Range(300);
    for (int step = 0; step < 3000; ++step) {
      if (live.empty() || rng.NextBounded(100) < 55) {
        lm.Acquire(next, RandomRequests(rng, keys, 1 + rng.NextBounded(5)),
                   &log);
        live.push_back(next++);
      } else {
        const size_t pick = rng.NextBounded(live.size());
        lm.Release(live[pick], &log);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    for (TxnId t : live) lm.Release(t, &log);
    return log;
  };
  const uint64_t saved = HashSalt();
  const std::vector<TxnId> base = run(0);
  const std::vector<TxnId> salted = run(0x9e3779b97f4a7c15ULL);
  SetHashSalt(saved);
  EXPECT_EQ(base, salted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockManagerReferenceTest,
                         ::testing::Values(1, 2, 3, 1009, 9001));

}  // namespace
}  // namespace hermes::storage
