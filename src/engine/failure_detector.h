#ifndef HERMES_ENGINE_FAILURE_DETECTOR_H_
#define HERMES_ENGINE_FAILURE_DETECTOR_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "obs/telemetry.h"

namespace hermes::engine {

class Cluster;

/// Deterministic heartbeat failure detector (DESIGN.md §5 "Partitions &
/// failure detection").
///
/// Every heartbeat_period_us of virtual time a tick evaluates, for every
/// ordered node pair,
/// whether that round's heartbeat would have arrived: the link must not be
/// cut in the network's reachability matrix, the gray-failure draw (a pure
/// function of (chaos seed, link, tick)) must not eat it, and both
/// endpoints must be responsive. Consecutive misses beyond
/// miss_threshold make a direction unhealthy; a node pair is mutually
/// healthy only when both directions are. Responsive nodes outside the
/// primary component (largest, ties broken by lowest member id — never
/// hash order) of the mutual-health graph are converted into the SAME
/// membership-epoch transitions kCrashNoStall uses, so the majority side
/// routes around the cut while the minority side parks FIFO. When a
/// suspected node strings together confirm_threshold healthy rounds after
/// the heal, the detector restores it through the standard rejoin path
/// (suppressed-shipment flush, displaced-record reship, lease lapse,
/// parked release).
///
/// Heartbeats are control-plane: they ride no data-plane bytes and write
/// no Network counters, so a detector-enabled fault-free run keeps its
/// digests. The tick chain only runs while armed — any cut live, any
/// suspicion outstanding, any miss counter nonzero, or inside an
/// explicitly armed window (gray failures cut nothing, so the injector
/// arms the window) — and stops itself otherwise, keeping Drain() finite.
/// Everything here is a pure function of (fault plan, config, virtual
/// time): no wall clock, no hash order, no real threads.
class FailureDetector {
 public:
  /// Loss draw for one heartbeat: (src, dst, tick, now) -> eaten. Wired by
  /// the fault injector to LinkChaos::HeartbeatDropped; null means no
  /// gray losses.
  using HeartbeatLossFn =
      std::function<bool(NodeId src, NodeId dst, uint64_t tick, SimTime now)>;

  FailureDetector(Cluster* cluster, const DetectorConfig& config);

  /// Starts (or extends) the tick chain: the chain keeps running at least
  /// until `active_until`, and past that for as long as cuts, suspicions
  /// or misses persist.
  void Arm(SimTime active_until);

  void set_heartbeat_loss(HeartbeatLossFn fn) { loss_ = std::move(fn); }

  bool armed() const { return armed_; }
  uint64_t ticks() const { return ticks_; }
  uint64_t heartbeat_misses() const { return heartbeat_misses_.value(); }
  uint64_t suspects() const { return suspects_.value(); }
  uint64_t restores() const { return restores_.value(); }
  /// Nodes currently marked down by this detector (sorted).
  const std::set<NodeId>& suspected() const { return detector_down_; }

  /// Sorted, salt-invariant rendering of the detector state (armed flag,
  /// tick count, suspected set, nonzero miss counters).
  std::string DebugString() const;

 private:
  /// One heartbeat round.
  void Tick();
  void EnsureSize(int num_nodes);
  bool Responsive(NodeId node) const;

  Cluster* cluster_;
  DetectorConfig config_;
  HeartbeatLossFn loss_;

  bool armed_ = false;      ///< a tick is scheduled
  SimTime active_until_ = 0;  ///< chain keeps running until at least here
  uint64_t ticks_ = 0;
  /// miss_[src][dst]: consecutive missed heartbeats on the directed link,
  /// clamped at miss_threshold.
  std::vector<std::vector<int>> miss_;
  /// Consecutive healthy rounds per suspected node (restore hysteresis).
  std::vector<int> confirm_;
  /// Nodes THIS detector marked down. Sorted container: iterated for
  /// restore decisions and diagnostics. Disjoint from injector-crashed
  /// nodes by plan construction; Responsive() keeps them probed (their
  /// process is alive — partitioned, not crashed).
  std::set<NodeId> detector_down_;

  obs::Counter heartbeat_misses_;
  obs::Counter suspects_;
  obs::Counter restores_;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_FAILURE_DETECTOR_H_
