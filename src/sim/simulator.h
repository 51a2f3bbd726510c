#ifndef HERMES_SIM_SIMULATOR_H_
#define HERMES_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "common/digest.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace hermes::sim {

/// Discrete-event simulation driver: a virtual clock plus one event queue.
/// Components schedule closures at relative or absolute simulated times;
/// Run*() pops them in (time, seq) order, so events at equal timestamps
/// fire in the order they were scheduled, whichever node they concern.
/// The run is single-threaded: the event order is the only order, and it
/// is a pure function of the inputs.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time (inside a handler: the handler's firing time).
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` microseconds from now. `pre` runs right
  /// before `fn` (see Prelude; the network's receive-side charge).
  void Schedule(SimTime delay, Task fn, Prelude pre = {});

  /// Schedules `fn` at absolute time `when`; times in the past fire at
  /// Now(), after the events already queued for Now().
  void ScheduleAt(SimTime when, Task fn, Prelude pre = {});

  /// Kept only because perfbench/ (which predates the single queue) still
  /// calls it: there are no lanes, so this does nothing.
  void ConfigureLanes(int /*num_lanes*/, int /*threads*/) {}

  /// Kept only because perfbench/ still calls it: the lane is ignored and
  /// `fn` is scheduled like Schedule(delay, fn).
  void ScheduleOnLane(int /*lane*/, SimTime delay, Task fn) {
    Schedule(delay, std::move(fn));
  }

  /// Runs events until the queue is empty or the next event is later than
  /// `deadline`; the clock then reads `deadline` (or stays, if later).
  void RunUntil(SimTime deadline);

  /// Runs until no events remain.
  void RunAll();

  /// Number of events executed so far (diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// Feeds every event pop's (time, seq) into `digest`: the full firing
  /// order.
  void set_decision_digest(DecisionDigest* digest) {
    queue_.set_digest(digest);
  }

  bool idle() const { return queue_.empty(); }

 private:
  /// Pops the earliest event, advances the clock to it and runs it.
  void FireNext();

  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_SIMULATOR_H_
