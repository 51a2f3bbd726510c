#ifndef HERMES_STORAGE_LOCK_MANAGER_H_
#define HERMES_STORAGE_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"

namespace hermes::storage {

/// One lock to take: shared for reads, exclusive for writes/migrations.
struct LockRequest {
  Key key;
  bool exclusive;
};

/// Per-node lock table implementing Calvin's conservative ordered locking:
/// every transaction enqueues all its local lock requests at once, in the
/// global total order, before executing. Grants are strictly FIFO per key
/// (a shared block is granted as the longest all-shared prefix), which
/// rules out both deadlock and non-deterministic aborts — and produces the
/// clogging behaviour the paper describes when a lock holder stalls on the
/// network.
///
/// Layout (DESIGN.md "Lock table layout"): two open-addressing tables —
/// key → FIFO of waiters, txn → its waiters — over one pooled slab of
/// waiters linked intrusively, so a warmed-up table makes no heap
/// allocation per request. Neither table is ever iterated; every decision
/// follows list order, so the hash salt cannot reach a grant.
class LockManager {
 public:
  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Enqueues every request of `txn` on this node. Must be called at most
  /// once per transaction per node, in total-order sequence. Transactions
  /// whose final local lock was granted by this call (possibly `txn`
  /// itself, possibly none) are appended to `*newly_granted`.
  ///
  /// Duplicate keys within `reqs` are the caller's bug (asserted in debug
  /// builds); the strongest mode must be pre-merged (a read-modify-write
  /// key is one exclusive lock).
  void Acquire(TxnId txn, const std::vector<LockRequest>& reqs,
               std::vector<TxnId>* newly_granted);

  /// Releases every lock `txn` holds or waits for on this node, granting
  /// successors; transactions that became fully granted are appended to
  /// `*newly_granted`. Unknown transactions are a no-op.
  void Release(TxnId txn, std::vector<TxnId>* newly_granted);

  /// True once all of `txn`'s local locks are granted (false for unknown
  /// transactions).
  bool HoldsAll(TxnId txn) const;

  /// Number of transactions known to this table (granted or waiting).
  size_t num_txns() const { return txns_.size(); }

  /// Number of keys with at least one queued request (diagnostics).
  size_t num_active_keys() const { return keys_.size(); }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Waiter {
    Key key;
    TxnId txn;
    uint32_t prev_in_key;
    uint32_t next_in_key;
    uint32_t next_of_txn;
    bool exclusive;
    bool granted;
  };
  /// A key's FIFO. `blocking` counts waiters that are exclusive or not yet
  /// granted: a shared request joins the granted group iff it is 0.
  struct KeyQueue {
    uint32_t head;
    uint32_t tail;
    uint32_t blocking;
  };
  struct TxnLocks {
    uint32_t first;    ///< first waiter of the txn chain (kNil if none)
    uint32_t pending;  ///< requests not yet granted
  };

  uint32_t NewWaiter();
  /// Grants the longest grantable prefix of `queue`; appends transactions
  /// that became fully granted to `*newly_granted`.
  void GrantFront(KeyQueue& queue, std::vector<TxnId>* newly_granted);
  void NoteGranted(TxnId txn, std::vector<TxnId>* newly_granted);

  FlatTable<KeyQueue> keys_;
  FlatTable<TxnLocks> txns_;
  std::vector<Waiter> waiters_;
  uint32_t free_ = kNil;  ///< head of the free-waiter chain
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_LOCK_MANAGER_H_
