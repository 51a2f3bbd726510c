#ifndef HERMES_SIM_WORKER_POOL_H_
#define HERMES_SIM_WORKER_POOL_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace hermes::sim {

/// A pool of `w` executor workers on one simulated node. Jobs occupy one
/// worker for a given duration; excess jobs queue FIFO behind the earliest
/// finishing worker. Busy time is accumulated for the CPU-utilization
/// metric (Fig. 8).
class WorkerPool {
 public:
  WorkerPool(Simulator* sim, int num_workers);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `duration` of CPU work, then `done`. Returns the simulated time
  /// at which the job will start (for queue-wait accounting).
  SimTime Submit(SimTime duration, Task done);

  uint64_t busy_us() const { return busy_us_; }
  int num_workers() const { return static_cast<int>(busy_until_.size()); }

  /// Busy microseconds accumulated since the last call (for windowed
  /// utilization sampling).
  uint64_t TakeBusyDelta();

 private:
  Simulator* sim_;
  std::vector<SimTime> busy_until_;
  uint64_t busy_us_ = 0;
  uint64_t last_sampled_busy_ = 0;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_WORKER_POOL_H_
