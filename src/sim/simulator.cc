#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "sim/thread_pool.h"

namespace hermes::sim {

namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

/// Execution context of the calling thread: which simulator's event it is
/// running, on which lane, at what virtual time. Thread-local so each pool
/// worker (and the coordinator) carries its own epoch clock; saved and
/// restored around Run* so nested simulators (replay oracles running a
/// second cluster inside an event) see their own context.
struct ExecContext {
  const Simulator* sim = nullptr;
  int lane = kControlLane;
  SimTime now = 0;
};

thread_local ExecContext tls_ctx;

}  // namespace

Simulator::Simulator() = default;

Simulator::~Simulator() = default;

SimTime Simulator::Now() const {
  return tls_ctx.sim == this ? tls_ctx.now : now_;
}

int Simulator::current_lane() const {
  return tls_ctx.sim == this ? tls_ctx.lane : kControlLane;
}

bool Simulator::in_lane_context() const {
  return tls_ctx.sim == this && tls_ctx.lane != kControlLane;
}

void Simulator::ConfigureLanes(int num_lanes, int threads) {
  EnsureLanes(num_lanes);
  threads_ = std::max(threads, 0);
  if (threads_ > 0 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
}

void Simulator::EnsureLanes(int num_lanes) {
  assert(!in_lane_context() && "lane growth must happen in exclusive context");
  while (static_cast<int>(lanes_.size()) < num_lanes) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

void Simulator::Schedule(SimTime delay, Task fn) {
  ScheduleOnLaneAt(current_lane(), Now() + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, Task fn) {
  ScheduleOnLaneAt(current_lane(), when, std::move(fn));
}

void Simulator::ScheduleOnLane(int lane, SimTime delay, Task fn,
                               Prelude pre) {
  ScheduleOnLaneAt(lane, Now() + delay, std::move(fn), pre);
}

void Simulator::ScheduleOnLaneAt(int lane, SimTime when, Task fn,
                                 Prelude pre) {
  // Past times fire "now", where now is the caller's epoch-local clock:
  // under partitioned execution there is no meaningful global "now" to
  // clamp to while lanes run, and the executing event's time is the only
  // clock the caller can observe anyway.
  const SimTime local_now = Now();
  if (when < local_now) when = local_now;
  if (lane < 0 || lane >= static_cast<int>(lanes_.size())) lane = kControlLane;
  if (in_lane_context()) {
    const int self = tls_ctx.lane;
    if (lane == self) {
      // Same-lane work needs no barrier: the push order is the lane's own
      // program order.
      lanes_[static_cast<size_t>(self)]->queue.Push(when, std::move(fn), pre);
      return;
    }
    lanes_[static_cast<size_t>(self)]->staged.push_back(
        StagedOp{false, lane, when, pre, std::move(fn)});
    return;
  }
  PushDirect(lane, when, std::move(fn), pre);
}

void Simulator::PushDirect(int lane, SimTime when, Task fn, Prelude pre) {
  if (lane == kControlLane) {
    control_.Push(when, std::move(fn), pre);
  } else {
    lanes_[static_cast<size_t>(lane)]->queue.Push(when, std::move(fn), pre);
  }
}

void Simulator::Defer(Task fn) {
  if (in_lane_context()) {
    lanes_[static_cast<size_t>(tls_ctx.lane)]->staged.push_back(
        StagedOp{true, kControlLane, 0, Prelude{}, std::move(fn)});
    return;
  }
  fn();
}

void Simulator::MixPop(SimTime when, int lane, uint64_t seq) {
  if (digest_ == nullptr) return;
  digest_->Mix(when);
  digest_->Mix((static_cast<uint64_t>(lane + 1) << 40) ^ seq);
}

void Simulator::ExecuteLane(int i, SimTime t) {
  Lane& lane = *lanes_[static_cast<size_t>(i)];
  const ExecContext saved = tls_ctx;
  tls_ctx = ExecContext{this, i, t};
  while (!lane.queue.empty() && lane.queue.NextTime() == t) {
    EventQueue::Popped e = lane.queue.PopEntry();
    lane.popped_seqs.push_back(e.seq);
    e();
  }
  tls_ctx = saved;
}

void Simulator::RunUntil(SimTime deadline) {
  RunLoop(deadline, /*run_all=*/false);
}

void Simulator::RunAll() { RunLoop(0, /*run_all=*/true); }

void Simulator::RunLoop(SimTime deadline, bool run_all) {
  const ExecContext entry_ctx = tls_ctx;
  for (;;) {
    // Next epoch: the earliest pending timestamp across all queues.
    SimTime t = control_.empty() ? kNoEvent : control_.NextTime();
    for (const auto& lane : lanes_) {
      if (!lane->queue.empty()) t = std::min(t, lane->queue.NextTime());
    }
    if (t == kNoEvent || (!run_all && t > deadline)) break;
    now_ = t;

    // 1. Control slice: exclusive, on this thread.
    while (!control_.empty() && control_.NextTime() == t) {
      EventQueue::Popped e = control_.PopEntry();
      MixPop(t, kControlLane, e.seq);
      ++events_executed_;
      tls_ctx = ExecContext{this, kControlLane, t};
      e();
      tls_ctx = entry_ctx;
    }

    // 2. Lane slice: every lane with events at t, concurrently when a
    // pool is configured.
    active_lanes_.clear();
    for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
      const EventQueue& q = lanes_[static_cast<size_t>(i)]->queue;
      if (!q.empty() && q.NextTime() == t) active_lanes_.push_back(i);
    }
    if (active_lanes_.empty()) continue;
    if (pool_ != nullptr && threads_ > 0) {
      pool_->RunBatch(static_cast<int>(active_lanes_.size()),
                      [this, t](int k) {
                        ExecuteLane(active_lanes_[static_cast<size_t>(k)], t);
                      });
    } else {
      for (int i : active_lanes_) ExecuteLane(i, t);
    }

    // 3. Barrier: fold pop transcripts and apply staged work in ascending
    // lane order — the merge order is part of the total order and does
    // not depend on which thread ran which lane.
    for (int i : active_lanes_) {
      Lane& lane = *lanes_[static_cast<size_t>(i)];
      for (uint64_t seq : lane.popped_seqs) MixPop(t, i, seq);
      events_executed_ += lane.popped_seqs.size();
      lane.popped_seqs.clear();
    }
    for (int i : active_lanes_) {
      // Effects run exclusively (and may push directly or Defer inline),
      // so no lane stages while we drain and the buffer is drained in
      // place. clear() keeps each lane's capacity at its own high-water
      // mark: a warmed-up barrier allocates nothing.
      std::vector<StagedOp>& ops = lanes_[static_cast<size_t>(i)]->staged;
      for (StagedOp& op : ops) {
        if (op.is_effect) {
          tls_ctx = ExecContext{this, kControlLane, t};
          op.fn();
          tls_ctx = entry_ctx;
        } else {
          PushDirect(op.lane, op.when, std::move(op.fn), op.pre);
        }
      }
      ops.clear();
    }
  }
  if (!run_all && now_ < deadline) now_ = deadline;
  tls_ctx = entry_ctx;
}

bool Simulator::idle() const {
  if (!control_.empty()) return false;
  for (const auto& lane : lanes_) {
    if (!lane->queue.empty()) return false;
  }
  return true;
}

}  // namespace hermes::sim
