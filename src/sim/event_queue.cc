#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace hermes::sim {

void EventQueue::Push(SimTime when, Task fn, Prelude pre) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot].pre = pre;
    slab_[slot].fn = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slab_.size());
    slab_.push_back(Node{pre, std::move(fn)});
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Popped EventQueue::Pop() {
  Popped out = PopEntry();
  if (digest_ != nullptr) {
    digest_->Mix(out.when);
    digest_->Mix(out.seq);
  }
  return out;
}

EventQueue::Popped EventQueue::PopEntry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  Node& node = slab_[top.slot];
  Popped out{top.when, top.seq, node.pre, std::move(node.fn)};
  free_slots_.push_back(top.slot);
  return out;
}

}  // namespace hermes::sim
