#ifndef HERMES_FAULT_LINK_CHAOS_H_
#define HERMES_FAULT_LINK_CHAOS_H_

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "sim/network.h"

namespace hermes::fault {

/// Seeded per-message chaos source. Install()ed into a sim::Network, it is
/// consulted once per inter-node Send. Each draw is a *pure function* of
/// (seed, src, dst, link sequence number): there is no shared RNG stream
/// to advance, so one link's draws do not depend on how other links'
/// traffic interleaves — the perturbation history is a pure function of
/// (config, seed, per-link message order), which the network keeps
/// total.
///
/// Gray failures (DESIGN.md §5 "Partitions & failure detection") are a
/// window in virtual time during which every link touching one victim
/// node turns persistently slow and lossy: extra (still bounded,
/// retransmitted) drops and extra delay on the data plane — timing and
/// bytes only, never message loss — plus an independent heartbeat-drop
/// draw that lets the failure detector see the sick link even though
/// payloads keep (slowly) landing. The window boundary is virtual time,
/// itself deterministic, so gray draws stay pure functions of
/// (seed, link, sequence number / tick).
class LinkChaos {
 public:
  LinkChaos(const LinkChaosConfig& config, uint64_t seed);

  /// Draws the perturbation for message `link_seq` on the directed link
  /// src -> dst sent at virtual time `now` (gray windows are time-gated).
  /// Stateless: same arguments, same draw.
  sim::Perturbation Draw(NodeId src, NodeId dst, uint64_t link_seq,
                         SimTime now = 0) const;

  /// True when the heartbeat `tick` on the directed link src -> dst is
  /// lost to the gray window. Pure function of (seed, link, tick); always
  /// false outside the window or away from the gray node.
  bool HeartbeatDropped(NodeId src, NodeId dst, uint64_t tick,
                        SimTime now) const;

  /// Hooks this chaos source into `net`. The network keeps a copy of the
  /// std::function, but the config lives here — the LinkChaos must outlive
  /// the hook (the FaultInjector owns both).
  void Install(sim::Network* net);

  const LinkChaosConfig& config() const { return config_; }

 private:
  bool InGrayWindow(NodeId src, NodeId dst, SimTime now) const;

  LinkChaosConfig config_;
  uint64_t seed_;
};

}  // namespace hermes::fault

#endif  // HERMES_FAULT_LINK_CHAOS_H_
