#ifndef HERMES_SIM_EVENT_QUEUE_H_
#define HERMES_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/digest.h"
#include "common/types.h"
#include "sim/task.h"

namespace hermes::sim {

/// Side work an event runs just before its Task: a plain
/// function and two words, stored in the event node instead of captured.
/// sim::Network charges receive-side counters through it, so a delivery
/// keeps the caller's Task as it is rather than wrapping it in a second
/// closure (a Task inside a closure never fits a Task's inline buffer).
struct Prelude {
  void (*fn)(void* ctx, uint64_t a, uint64_t b) = nullptr;
  void* ctx = nullptr;
  uint64_t a = 0;
  uint64_t b = 0;

  void operator()() const {
    if (fn != nullptr) fn(ctx, a, b);
  }
};

/// A time-ordered queue of Tasks. Events at equal timestamps fire in
/// insertion order (FIFO tie-break by sequence number) so that a run is a
/// pure function of the inputs — the determinism invariant every property
/// test in this repository leans on.
///
/// Layout: the binary heap orders compact 24-byte {when, seq, slot} keys;
/// the Tasks themselves sit in a slab indexed by `slot`, recycled through
/// a free list. Sifting therefore moves 24 bytes instead of a 64-byte
/// Task, and a warmed-up queue allocates nothing per event.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `fn` (preceded by `pre`) to fire at absolute time `when`.
  void Push(SimTime when, Task fn, Prelude pre = {});

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event. Requires !empty().
  SimTime NextTime() const { return heap_.front().when; }

  /// One dequeued event plus its ordering key (`seq` is the insertion
  /// sequence that breaks timestamp ties). The Task is moved out of the
  /// slab, so firing it may push (and grow the slab) freely.
  struct Popped {
    SimTime when;
    uint64_t seq;
    Prelude pre;
    Task fn;

    /// Fires the event: its prelude, then its Task.
    void operator()() {
      pre();
      fn();
    }
  };

  /// Removes and returns the earliest pending event, mixing its (when,
  /// seq) pair into the attached digest. Requires !empty().
  Popped Pop();

  /// Sequence number the next Push() will receive (diagnostics).
  uint64_t next_seq() const { return next_seq_; }

  /// Slab slots ever allocated: the high-water mark of pending events.
  size_t slab_capacity() const { return slab_.size(); }

  /// Attaches a decision digest: every Pop() mixes the popped entry's
  /// (when, seq) pair, making the full event firing order part of the
  /// cluster's DecisionDigest.
  void set_digest(DecisionDigest* digest) { digest_ = digest; }

 private:
  struct Key {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  struct Node {
    Prelude pre;
    Task fn;
  };
  /// Heap order: std::*_heap keep the *largest* element at the front, so
  /// "less" means "fires later".
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Node> slab_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  DecisionDigest* digest_ = nullptr;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_EVENT_QUEUE_H_
