#ifndef HERMES_REPLICATION_LEASE_MANAGER_H_
#define HERMES_REPLICATION_LEASE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "storage/record_store.h"

namespace hermes::replication {

/// Engine-side replica-lease state (DESIGN.md §5 "Replica leases"): the
/// read-only copies installed at lease holders, and the waiters of masters
/// whose replica reads arrived before their copy did.
///
/// Copies live *beside* the primary RecordStores, never in them, so record
/// singularity is untouched: the primary still lives in exactly one store
/// (or in flight), and a copy is always derived data that may be dropped
/// at any moment. Copy application is version-max — an install or update
/// snapshot only lands if its record version is not older than the copy's
/// — so the final copy state is independent of message arrival order
/// (chaos timing, duplicates and re-grants all converge to the newest
/// committed version).
class LeaseManager {
 public:
  explicit LeaseManager(int num_nodes) { shards_.resize(num_nodes); }

  /// Grows the shard set to cover `node` (provisioning).
  void EnsureNode(NodeId node) {
    const size_t idx = static_cast<size_t>(node);
    if (idx >= shards_.size()) shards_.resize(idx + 1);
  }

  /// Registers `holder` as a lease holder of `key`. Runs at dispatch of
  /// the routed kInstall op, before the copy itself is shipped (`source`
  /// only feeds the trace event).
  void BeginInstall(Key key, NodeId holder, NodeId source);

  /// Drops `holder`'s lease on `key` (routed kRevoke op): the copy is
  /// discarded and any master still waiting on it is woken — a revoked
  /// read degrades to the plain local read it would have been without the
  /// lease, so nothing ever blocks on a copy that will not arrive.
  void Revoke(Key key, NodeId holder);

  /// Crash/rejoin lapse of one node: every lease it holds is dropped and
  /// its waiters are woken. Called at membership transitions (live and
  /// replayed), keeping the engine state a pure function of the membership
  /// schedule.
  void LapseNode(NodeId node);

  /// Drops every lease, copy and waiter (membership transition or
  /// checkpoint restore). The router's LeaseTable lapses on the same
  /// schedule, so both sides re-grant identically from the batch stream.
  void LapseAll();

  /// Applies a copy snapshot at `node` (network delivery).
  /// Stale copies — the lease was revoked or lapsed while the snapshot
  /// was on the wire — are counted and dropped.
  void ApplyCopy(NodeId node, Key key, const storage::Record& record,
                 bool install, TxnId txn);

  /// True iff `node` currently has a materialized copy of `key`.
  bool CopyPresent(NodeId node, Key key) const;

  /// Sorted holder set of `key`, or nullptr when unleased; the pointer is
  /// stable until the next mutation of the same key's entry.
  const std::vector<NodeId>* HoldersOf(Key key) const;

  /// Calls `ready` once every key either has a copy at `node` or is no
  /// longer leased to `node` (immediately if that already holds). The
  /// executor's master-presence analogue for replica reads.
  void WaitCopies(NodeId node, const std::vector<Key>& keys,
                  std::function<void()> ready);

  /// Order-insensitive checksum over every (node, key, value, version)
  /// copy — the replica analogue of RecordStore::Checksum, consumed by the
  /// coherence monitor and the determinism tests.
  uint64_t Checksum() const;

  /// Every copy as (node, key, record), sorted by (node, key) — the
  /// deterministic snapshot InvariantMonitor::CheckReplicaCoherence walks.
  std::vector<std::tuple<NodeId, Key, storage::Record>> SnapshotCopies()
      const;

  /// Test hook: flips one copy's value so the coherence monitor has
  /// something to catch.
  void CorruptCopyForTest(NodeId node, Key key);

  uint64_t installs() const { return installs_; }
  uint64_t updates() const { return updates_; }
  uint64_t stale_drops() const { return stale_drops_; }
  uint64_t revokes() const { return revokes_; }
  uint64_t lapses() const { return lapses_; }
  size_t num_copies() const;
  size_t num_leased_keys() const { return holders_.size(); }

  /// Sorted diagnostic: leases, copies and outstanding copy-waiters.
  std::string DebugString() const;

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct NodeShard {
    /// key -> copy. std::map: bounded by max_leases, sorted iteration for
    /// free (checksums, snapshots and diagnostics need no collect-and-sort).
    std::map<Key, storage::Record> copies;
    std::map<Key, std::vector<std::function<void()>>> waiters;
  };

  NodeShard& Shard(NodeId node) { return shards_[static_cast<size_t>(node)]; }
  const NodeShard& Shard(NodeId node) const {
    return shards_[static_cast<size_t>(node)];
  }
  /// Drops node's copy of key and wakes its waiters.
  void DropCopy(NodeId node, Key key);

  /// key -> sorted holder node ids.
  std::map<Key, std::vector<NodeId>> holders_;
  std::vector<NodeShard> shards_;
  uint64_t installs_ = 0;
  uint64_t updates_ = 0;
  uint64_t stale_drops_ = 0;
  uint64_t revokes_ = 0;
  uint64_t lapses_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hermes::replication

#endif  // HERMES_REPLICATION_LEASE_MANAGER_H_
