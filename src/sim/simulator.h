#ifndef HERMES_SIM_SIMULATOR_H_
#define HERMES_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/digest.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace hermes::sim {

class ThreadPool;

/// Lane index for work that must run in the exclusive (single-threaded)
/// slice of every epoch: sequencing, routing, shared bookkeeping.
inline constexpr int kControlLane = -1;

/// Discrete-event simulation driver: a virtual clock plus per-lane event
/// queues. Components schedule closures at relative or absolute simulated
/// times; Run*() advances the clock epoch by epoch.
///
/// Epoch-synchronized parallel execution: events are partitioned into one
/// *control* lane plus one lane per simulated node. Each distinct virtual
/// timestamp T is an epoch, executed in three steps:
///
///   1. Control slice — every control event at T runs on the coordinator
///      thread, exclusively (it may touch any state).
///   2. Lane slice — every node lane with events at T drains them, in the
///      lane's own (time, seq) order, potentially on real threads. Lane
///      events may touch only their node's state; pushes to other lanes
///      and Defer()red closures are *staged*, not applied.
///   3. Barrier — the coordinator folds each lane's pop transcript into
///      the decision digest and applies the staged operations, both in
///      ascending lane order, then re-enters step 1 while events remain
///      at T.
///
/// The resulting execution order — and therefore every digest — is a pure
/// function of the event DAG: the thread count only changes which OS
/// thread runs a lane, never what runs before what. `threads == 0` (the
/// oracle mode) runs the identical schedule inline.
class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Inside an event handler this is the handler's
  /// own epoch clock (correct even when other lanes run concurrently).
  SimTime Now() const;

  /// Declares `num_lanes` node lanes executed by `threads` real worker
  /// threads (0 = run lanes inline on the calling thread). Call before
  /// scheduling lane work; may be called again only to grow the lane
  /// count or keep it equal.
  // detlint:runs(exclusive)
  void ConfigureLanes(int num_lanes, int threads);

  /// Grows the lane count (dynamic provisioning). Exclusive context only.
  // detlint:requires(exclusive)
  void EnsureLanes(int num_lanes);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int threads() const { return threads_; }

  /// Schedules `fn` to run `delay` microseconds from now, on the lane the
  /// caller is executing on (the control lane outside any event).
  void Schedule(SimTime delay, Task fn);

  /// Schedules `fn` at absolute time `when`; times in the past fire "now"
  /// — clamped to the caller's epoch-local clock (the queue never rewinds
  /// any lane's clock).
  void ScheduleAt(SimTime when, Task fn);

  /// Schedules `fn` on a specific lane (kControlLane, or a node lane; out
  /// of range falls back to the control lane, so un-partitioned setups
  /// degenerate to one queue). `pre` runs on that lane right before `fn`
  /// (see Prelude; the network's receive-side charge).
  void ScheduleOnLane(int lane, SimTime delay, Task fn, Prelude pre = {});
  void ScheduleOnLaneAt(int lane, SimTime when, Task fn, Prelude pre = {});

  /// Runs `fn` in exclusive context: immediately when the caller already
  /// is exclusive (control slice, barrier, or outside a run), otherwise
  /// staged to this epoch's barrier. Lane code uses this for the few
  /// cross-node effects (shared bookkeeping, metrics) it must not apply
  /// while sibling lanes run.
  void Defer(Task fn);

  /// Lane the calling thread is currently executing an event on, or
  /// kControlLane when exclusive.
  int current_lane() const;

  /// True while the caller runs inside a node-lane event of this
  /// simulator (i.e. sibling lanes may be running concurrently).
  bool in_lane_context() const;

  /// Runs events until the queues are empty or the next event is later
  /// than `deadline`; the clock ends at min(deadline, last event time).
  void RunUntil(SimTime deadline);

  /// Runs until no events remain.
  void RunAll();

  /// Number of events executed so far (diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// Feeds every event pop's (time, lane, seq) into `digest`: the full
  /// firing order, identical for every thread count.
  void set_decision_digest(DecisionDigest* digest) { digest_ = digest; }

  bool idle() const;

 private:
  /// One staged operation from a lane event: either a push to another
  /// lane's queue or a Defer()red exclusive closure.
  struct StagedOp {
    bool is_effect;
    int lane;      // destination lane (pushes only)
    SimTime when;  // firing time (pushes only)
    Prelude pre;   // pushes only
    Task fn;
  };

  /// A node lane: its event queue plus the per-epoch buffers its executor
  /// fills (read back by the coordinator after the barrier).
  struct Lane {
    EventQueue queue;
    std::vector<uint64_t> popped_seqs;
    std::vector<StagedOp> staged;
  };

  void RunLoop(SimTime deadline, bool run_all);
  /// Drains lane `i`'s events at epoch `t` (worker or inline).
  void ExecuteLane(int i, SimTime t);
  /// Mixes one pop into the decision digest; lane kControlLane tags 0.
  void MixPop(SimTime when, int lane, uint64_t seq);
  /// Direct push into a lane queue (exclusive context only).
  void PushDirect(int lane, SimTime when, Task fn, Prelude pre);

  EventQueue control_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<ThreadPool> pool_;
  int threads_ = 0;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  DecisionDigest* digest_ = nullptr;
  std::vector<int> active_lanes_;  // scratch for RunLoop
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_SIMULATOR_H_
