#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc_count.h"
#include "common/config.h"
#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "spans.h"
#include "txn/transaction.h"

namespace perfbench {

/// Host cost and counts of re-issuing one run's inputs through each
/// layer's public API, after the measured phase.
struct LayerReplay {
  uint64_t batches = 0;
  uint64_t txns = 0;
  /// Content checksum of a single store that applied every routed
  /// transaction's writes serially, in the routed (executed) order.
  uint64_t serial_checksum = 0;

  double route_s = 0;  ///< Router::RouteBatch over every logged batch
  AllocCount route_allocs;
  uint64_t remote_reads = 0;  ///< accesses shipped to a master
  uint64_t migrations = 0;    ///< accesses that move a record

  double owner_s = 0;  ///< OwnershipMap::Owner over every routed access
  uint64_t lookups = 0;
  uint64_t owner_sum = 0;  ///< sum of looked-up owners (keeps calls live)

  double lock_s = 0;  ///< LockManager Acquire + Release
  uint64_t lock_requests = 0;  ///< LockRequests enqueued (one per key)
  uint64_t lock_acquires = 0;  ///< Acquire calls (one per txn per node)
  uint64_t lock_blocked = 0;   ///< Acquire calls not granted on the spot
  AllocCount lock_allocs;

  double store_s = 0;  ///< RecordStore Get/ApplyWrite/Extract/Insert
  uint64_t store_ops = 0;
  uint64_t store_extracts = 0;
  uint64_t store_misses = 0;  ///< Get at the routed owner found nothing
};

/// Routes `batches` through a fresh replica cluster's router (the
/// serializability_test pattern) and feeds each plan's accesses to
/// standalone per-node LockManagers and RecordStores and to the replica's
/// OwnershipMap. Locks model conservative ordered locking with two batches
/// in flight: a batch's transactions enqueue in routed order, and the
/// previous batch releases after them.
LayerReplay ReplayLayers(
    const hermes::ClusterConfig& config, hermes::engine::RouterKind kind,
    const std::function<std::unique_ptr<hermes::partition::PartitionMap>()>&
        make_partitioning,
    const std::vector<hermes::Batch>& batches, SpanLog* spans);

/// Schedules and runs `events` closures on a standalone Simulator with
/// `lanes` node lanes and `depth` events pending at any time (a hold
/// model with seeded delays); returns host seconds.
double ReplaySimQueue(uint64_t events, int lanes, uint64_t depth,
                      uint64_t seed, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
