#include "storage/lock_manager.h"

#include <cassert>
#include <utility>

#include "common/hash.h"

namespace hermes::storage {

uint32_t LockManager::NewWaiter() {
  if (free_ != kNil) {
    const uint32_t w = free_;
    free_ = waiters_[w].next_in_key;
    return w;
  }
  assert(waiters_.size() < kNil && "waiter slab exhausted");
  waiters_.emplace_back();
  return static_cast<uint32_t>(waiters_.size() - 1);
}

void LockManager::Acquire(TxnId txn, const std::vector<LockRequest>& reqs,
                          std::vector<TxnId>* newly_granted) {
  assert(txns_.Find(txn) == nullptr && "Acquire called twice for one txn");
  uint32_t first = kNil;
  uint32_t last = kNil;
  uint32_t pending = static_cast<uint32_t>(reqs.size());
  for (const LockRequest& req : reqs) {
    const uint32_t w = NewWaiter();
    uint32_t prev = kNil;
    bool grant = true;  // the only occupant is granted immediately
    KeyQueue* queue = keys_.Find(req.key);
    if (queue == nullptr) {
      queue = &keys_.Insert(req.key);
      queue->head = w;
    } else {
      prev = queue->tail;
      // All of this txn's waiters are appended by this one call, so a
      // duplicate key would find its own earlier waiter at the tail.
      assert(waiters_[prev].txn != txn && "duplicate key in one Acquire");
      waiters_[prev].next_in_key = w;
      // A shared request joins the granted group iff everything ahead of
      // it is a granted shared lock.
      grant = !req.exclusive && queue->blocking == 0;
    }
    queue->tail = w;
    if (req.exclusive || !grant) ++queue->blocking;
    if (grant) --pending;
    waiters_[w] = Waiter{req.key, txn, prev, kNil, kNil, req.exclusive, grant};
    if (last == kNil) {
      first = w;
    } else {
      waiters_[last].next_of_txn = w;
    }
    last = w;
  }
  TxnLocks& state = txns_.Insert(txn);
  state.first = first;
  state.pending = pending;
  if (pending == 0) newly_granted->push_back(txn);
}

void LockManager::Release(TxnId txn, std::vector<TxnId>* newly_granted) {
  const TxnLocks* state = txns_.Find(txn);
  if (state == nullptr) return;
  uint32_t w = state->first;
  txns_.Erase(txn);
  while (w != kNil) {
    Waiter& waiter = waiters_[w];
    const uint32_t next = waiter.next_of_txn;
    const Key key = waiter.key;
    KeyQueue* queue = keys_.Find(key);
    assert(queue != nullptr);
    if (waiter.exclusive || !waiter.granted) --queue->blocking;
    if (waiter.prev_in_key == kNil) {
      queue->head = waiter.next_in_key;
    } else {
      waiters_[waiter.prev_in_key].next_in_key = waiter.next_in_key;
    }
    if (waiter.next_in_key == kNil) {
      queue->tail = waiter.prev_in_key;
    } else {
      waiters_[waiter.next_in_key].prev_in_key = waiter.prev_in_key;
    }
    waiter.next_in_key = free_;
    free_ = w;
    if (queue->head == kNil) {
      keys_.Erase(key);
    } else {
      GrantFront(*queue, newly_granted);
    }
    w = next;
  }
}

void LockManager::GrantFront(KeyQueue& queue,
                             std::vector<TxnId>* newly_granted) {
  if (queue.blocking == 0) return;  // all granted shared locks
  Waiter& head = waiters_[queue.head];
  if (head.exclusive) {
    if (!head.granted) {
      head.granted = true;
      NoteGranted(head.txn, newly_granted);
    }
    return;
  }
  // Grant the all-shared prefix; granted waiters always form a prefix, so
  // once `blocking` reaches 0 nothing further can change.
  for (uint32_t w = queue.head; w != kNil && queue.blocking > 0;
       w = waiters_[w].next_in_key) {
    Waiter& waiter = waiters_[w];
    if (waiter.exclusive) break;
    if (!waiter.granted) {
      waiter.granted = true;
      --queue.blocking;
      NoteGranted(waiter.txn, newly_granted);
    }
  }
}

void LockManager::NoteGranted(TxnId txn, std::vector<TxnId>* newly_granted) {
  TxnLocks* state = txns_.Find(txn);
  assert(state != nullptr && state->pending > 0);
  if (--state->pending == 0) newly_granted->push_back(txn);
}

bool LockManager::HoldsAll(TxnId txn) const {
  const TxnLocks* state = txns_.Find(txn);
  return state != nullptr && state->pending == 0;
}

}  // namespace hermes::storage
