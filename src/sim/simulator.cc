#include "sim/simulator.h"

#include <utility>

namespace hermes::sim {

void Simulator::Schedule(SimTime delay, Task fn, Prelude pre) {
  queue_.Push(now_ + delay, std::move(fn), pre);
}

void Simulator::ScheduleAt(SimTime when, Task fn, Prelude pre) {
  queue_.Push(when < now_ ? now_ : when, std::move(fn), pre);
}

void Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.NextTime() <= deadline) FireNext();
  if (now_ < deadline) now_ = deadline;
}

void Simulator::RunAll() {
  while (!queue_.empty()) FireNext();
}

void Simulator::FireNext() {
  EventQueue::Popped e = queue_.Pop();
  now_ = e.when;
  ++events_executed_;
  e();
}

}  // namespace hermes::sim
