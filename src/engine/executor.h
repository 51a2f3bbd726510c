#ifndef HERMES_ENGINE_EXECUTOR_H_
#define HERMES_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/flat_table.h"
#include "common/membership.h"
#include "common/types.h"
#include "engine/degraded.h"
#include "engine/metrics.h"
#include "engine/node.h"
#include "net/wire.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "replication/lease_manager.h"
#include "routing/router.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "txn/transaction.h"

namespace hermes::engine {

/// Outcome of one transaction, delivered to the submitting client.
struct TxnResult {
  TxnId id = kInvalidTxn;
  bool aborted = false;
  bool distributed = false;
  LatencyBreakdown latency;
};

/// Executes routed transactions across the simulated nodes, implementing
/// the deterministic transaction processing flow of §2.1 extended with
/// on-the-fly data fusion (§3.1):
///
///  1. Each involved node enqueues the transaction's local lock requests
///     in total order (conservative ordered locking). A node involved as
///     a migration destination takes an exclusive "fence" lock so later
///     transactions routed there cannot observe the record before this
///     transaction's writes commit.
///  2. Participant nodes, once their local locks are granted and their
///     records physically present, read the records on a worker and ship
///     them to the master(s); records that migrate are extracted at the
///     source when sent and inserted at the destination when the message
///     lands. Participants then release their locks (early release).
///  3. A master executes the transaction logic on a worker once its local
///     locks are granted and every shipped record has arrived, applies its
///     writes (with UNDO pre-images; user aborts roll back but still honor
///     the migration plan, §4.2), releases its locks, and commits.
///  4. On full commit, checked-out records ship home (G-Store / T-Part
///     return shipments) and the client is acknowledged.
///
/// Record presence is first-class: any action touching a record waits
/// until the record has physically arrived at the node, which is how
/// remote-data stalls — and the clogging they cause behind conservative
/// locks — emerge in the simulation.
class TxnExecutor {
 public:
  using CommitCallback = std::function<void(const TxnResult&)>;

  /// All cross-node shipments go through the wire substrate (`wire`): it
  /// tags each message foreground (transaction-critical participant
  /// shipments) or bulk (migration write-backs, replica traffic, reships)
  /// and, when config.net.enabled, applies bounded-bandwidth queueing,
  /// coalescing and backpressure before the message reaches the fabric.
  TxnExecutor(sim::Simulator* sim, net::Wire* wire, Metrics* metrics,
              const CostModel* costs,
              std::vector<std::unique_ptr<Node>>* nodes);

  TxnExecutor(const TxnExecutor&) = delete;
  TxnExecutor& operator=(const TxnExecutor&) = delete;

  /// Dispatches one routed transaction. Must be called in total order.
  /// Scheduled from the scheduler's dispatch events only (control lane):
  /// it enqueues locks at every involved node and applies replica-lease
  /// ops, both cross-node work. The transaction keeps the plan until it
  /// completes; a caller done with its copy moves it in.
  // detlint:runs(exclusive)
  void Dispatch(routing::RoutedTxn routed, CommitCallback on_commit);

  /// Wires the replica-lease mechanism (null = leases off). Dispatch
  /// applies the plan's replica ops through it, masters wait on lease
  /// copies for replica reads, and commits fan out write snapshots to
  /// holders.
  void set_lease_manager(replication::LeaseManager* mgr) {
    lease_mgr_ = mgr;
  }

  // --- Degraded mode (no-stall crash handling; see DESIGN.md §5). ---

  /// Receives every watchdog-aborted transaction: the original request,
  /// its client callback, and the keys left physically at a dead node
  /// while the ownership map points elsewhere. The cluster reclassifies
  /// it (deterministic retry, UNAVAILABLE abort, or chunk-chain
  /// continuation).
  using DegradedAbortHandler = std::function<void(
      TxnRequest txn, CommitCallback cb, std::vector<Key> stranded)>;

  /// Installs the degraded-mode wiring. `membership` drives the
  /// dead-node gates (null = every node alive, all gates inert);
  /// `ledger` records watchdog/reclaim/reship bookkeeping.
  void EnableDegraded(const MembershipView* membership,
                      const DegradedConfig* config, DegradedLedger* ledger,
                      DegradedAbortHandler on_abort);

  /// Arms the watchdog after the cluster marks `node` down. Transactions
  /// freeze lazily as their events reach the dead node; the watchdog
  /// sweeps frozen, un-acknowledged transactions on a deterministic
  /// virtual-time schedule and UNDO-aborts them.
  void OnNodeDown(NodeId node);

  /// Flushes records that were suppressed mid-flight toward `node` while
  /// it was down (their delivery resumes now; pending reclaim timers
  /// no-op), then resumes machines stalled at the node's dead gates.
  /// Called by the cluster at rejoin, before reconciliation.
  // detlint:requires(exclusive)
  void OnNodeUp(NodeId node);

  /// Moves a record whose physical location diverged from the ownership
  /// map (stranded by a watchdog abort or reclaimed mid-flight) to where
  /// ownership says it lives: extract at `from`, one network hop, insert
  /// at `to`, waking presence waiters. Record singularity holds
  /// throughout (the record rides inflight_records_ while moving).
  void ReshipRecord(Key key, NodeId from, NodeId to);

  /// Keys whose physical location diverged from the ownership map during
  /// an outage, keyed by record key, valued with the node the record
  /// actually sits on. The cluster drains this at rejoin and reships
  /// every divergent key; returns the map and clears the member.
  std::map<Key, NodeId> TakeDisplaced() {
    return std::exchange(displaced_, {});
  }
  const std::map<Key, NodeId>& displaced() const { return displaced_; }

  /// Number of transactions currently in flight.
  size_t inflight() const { return actives_.size(); }

  /// Grows the per-node state (presence waits, scratch buffers) to
  /// `num_nodes` nodes. The cluster calls it wherever it creates nodes,
  /// in exclusive context, before the new node's lane runs any event;
  /// Dispatch also catches up with nodes added behind the executor's back
  /// (standalone executors in tests).
  // detlint:runs(exclusive)
  void EnsureNodes(int num_nodes);

  uint64_t committed() const { return committed_.value(); }
  uint64_t aborted() const { return aborted_.value(); }

  /// Installs the passive tracer (null = tracing off). The executor only
  /// ever writes events into it; no execution decision reads it back.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// One record currently extracted from its source store and riding a
  /// simulated message: absent from every store until delivery.
  struct InFlightRecord {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    /// Transaction whose shipment (migration or return) carries the record
    /// (kInvalidTxn for degraded-mode reships).
    TxnId txn = kInvalidTxn;
    /// Payload, kept so a shipment suppressed at a dead destination can be
    /// reclaimed by the sender or flushed at rejoin.
    storage::Record record;
    /// True once delivery was suppressed because the destination died
    /// mid-flight; a reclaim timer (or the rejoin flush) resolves it.
    bool suppressed = false;
  };

  /// Records extracted-but-undelivered right now, keyed by record key.
  /// A std::map so iteration order is deterministic without suppressions.
  /// This is the executor's half of the record-singularity invariant: at
  /// any instant every key is either in exactly one store or listed here;
  /// the fault InvariantMonitor checks exactly that, and DebugString()
  /// prints this table so a chaos-found violation is diagnosable.
  const std::map<Key, InFlightRecord>& inflight_records() const {
    return inflight_records_;
  }

  /// Diagnostic rendering of in-flight transactions and what they wait on
  /// (lock grants, remote messages, record presence), plus every record
  /// currently believed to be in flight with its source/destination nodes.
  std::string DebugString() const;

 private:
  struct NodeState {
    /// This node's accesses (owner == node) are Active::owned
    /// [owned_begin, owned_begin + owned_count), in plan order.
    uint32_t owned_begin = 0;
    uint32_t owned_count = 0;
    bool is_master = false;
    bool granted = false;
    SimTime acquire_time = 0;
    SimTime grant_time = 0;
  };
  struct MasterState {
    NodeId node;
    int pending_messages = 0;   ///< remote shipments not yet arrived
    int messages_received = 0;  ///< shipments processed (costs CPU)
    /// Presence waits still open before local_present flips: the primary
    /// store, plus lease copies when the master has replica reads.
    int presence_pending = 0;
    bool local_present = false;
    bool started = false;
    bool done = false;
    SimTime ready_time = 0;
    /// Latency contributions accumulated on this master's node lane;
    /// summed across masters by Acknowledge() (exclusive context), so no
    /// two lanes ever write one field.
    SimTime remote_wait_us = 0;
    SimTime exec_us = 0;
  };
  /// Per-transaction state. Records are pooled: a finished transaction's
  /// record is Recycle()d and reused with its vectors' capacity, so a
  /// warmed-up executor allocates no per-transaction state of its own.
  struct Active {
    routing::RoutedTxn plan;
    CommitCallback on_commit;
    SimTime dispatch_time = 0;
    std::vector<std::pair<NodeId, NodeState>> nodes;  // sorted by node id
    /// plan.accesses grouped by owner node (stable within a node); each
    /// NodeState indexes its run.
    std::vector<routing::Access> owned;
    std::vector<MasterState> masters;
    std::vector<Key> write_keys;  ///< dedup of plan.txn.write_set
    int masters_done = 0;
    /// Participant send phases not yet completed. The client ack does not
    /// wait for them (an eviction migrates after the transaction returns,
    /// §4.1), but the transaction state must outlive them.
    int participants_pending = 0;
    bool acked = false;
    bool distributed = false;
    /// Set when a dead-node gate suppressed this transaction's progress:
    /// it cannot complete on its own until the node rejoins (the stalled
    /// machine resumes then) or the watchdog UNDO-aborts it first.
    bool frozen = false;
    /// Per-node continuations abandoned at a dead-node gate, re-driven in
    /// sorted txn order when that node rejoins. A node can stall both the
    /// participant and the master machine, hence the vector (insertion
    /// order — the deterministic event order the freezes fired in).
    std::map<NodeId, std::vector<sim::Task>> stalled;

    /// Clears every field for reuse, keeping vector capacity.
    void Recycle();
  };

  /// One parked client acknowledgment: the ack event captures only its
  /// slot, so it stays inline.
  struct PendingAck {
    TxnResult result;
    CommitCallback cb;
    SimTime submit = 0;
    bool regular = false;
    NodeId master = kInvalidNode;
  };

  /// Presence waits of one node: which parked continuations wait on which
  /// absent keys. A continuation fires once every key it waits on has
  /// arrived; each key's waiters wake in registration order.
  class PresenceWaits {
   public:
    /// Parks `ready` until every key of `keys` missing from `store` has
    /// arrived; returns `ready` unparked (and non-empty) when none is
    /// missing, so the caller runs it.
    sim::Task Wait(const storage::RecordStore& store,
                   std::span<const Key> keys, sim::Task ready);
    /// Wakes `key`'s waiters after it arrived; runs each continuation
    /// whose last key this was.
    void Wake(Key key);
    /// (key, waiter count) of every waited key, unsorted.
    std::vector<std::pair<Key, size_t>> Snapshot() const;

   private:
    static constexpr uint32_t kNone = UINT32_MAX;
    struct Waiter {
      uint32_t wait;  ///< slot in waits_
      uint32_t next;  ///< next waiter on the same key (kNone at the tail)
    };
    struct Queue {
      uint32_t head;
      uint32_t tail;
    };
    struct Parked {
      uint32_t remaining = 0;  ///< keys still absent
      sim::Task ready;
    };
    FlatTable<Queue> queues_;  ///< key -> FIFO of waiters
    std::vector<Waiter> waiters_;
    std::vector<uint32_t> free_waiters_;
    sim::SlotPool<Parked> waits_;
  };

  /// One outgoing message of a participant's send phase.
  struct Shipment {
    NodeId dest = kInvalidNode;
    std::vector<std::pair<Key, storage::Record>> moves;
    uint64_t bytes = 0;
    bool to_master = false;
  };

  /// Executor state owned by one node: touched only by that node's lane
  /// or the exclusive slice, so concurrent lanes never share it. The
  /// vectors are scratch reused across transactions.
  struct NodeLocal {
    PresenceWaits presence;
    std::vector<Key> keys;
    std::vector<Key> more_keys;
    std::vector<Shipment> shipments;
  };

  /// Live transaction by id (nullptr once completed or aborted).
  Active* Find(TxnId id) {
    Active** a = actives_.Find(id);
    return a == nullptr ? nullptr : *a;
  }
  /// Takes a record from the pool (exclusive context).
  Active& AcquireActive();
  /// Unindexes a finished transaction and returns its record to the pool
  /// (exclusive context). Continuations still pending for it find nothing.
  void RetireActive(Active& a);
  /// This node's run of a.owned.
  static std::span<const routing::Access> Owned(const Active& a,
                                                const NodeState& state) {
    return {a.owned.data() + state.owned_begin, state.owned_count};
  }

  Node& NodeAt(NodeId id) { return *(*nodes_)[id]; }
  NodeState* StateFor(Active& a, NodeId node);
  MasterState* MasterFor(Active& a, NodeId node);
  bool IsMaster(const Active& a, NodeId node) const;

  /// True iff `state`'s node must run a participant send phase.
  bool NodeWillSend(const Active& a, const NodeState& state,
                    NodeId node) const;

  void OnNodeGranted(Active& a, NodeId node);
  /// One presence wait of master `node` completed; flips local_present
  /// once all have.
  void OnMasterPresent(TxnId id, NodeId node);
  void StartParticipant(Active& a, NodeId node);
  void FinishParticipant(Active& a, NodeId node);
  void CheckMasterReady(Active& a, MasterState& m);
  void ExecuteMaster(Active& a, MasterState& m);
  void CommitMaster(Active& a, MasterState& m);
  /// Barrier-side tail of CommitMaster: bumps masters_done and, once every
  /// master committed, acknowledges. Runs in exclusive context (Defer) —
  /// masters commit on their own node lanes, so the shared counter and the
  /// cross-node acknowledgment work may not run lane-side.
  // detlint:requires(exclusive)
  void OnMasterDone(TxnId id);
  /// Client acknowledgment + return shipments, fired once when every
  /// master has committed. Exclusive context only.
  // detlint:requires(exclusive)
  void Acknowledge(Active& a);
  /// The client ack one network hop after Acknowledge: records the
  /// commit and runs the client callback. Control lane only.
  // detlint:runs(exclusive)
  void DeliverAck(uint32_t slot);
  /// Retires the transaction state once masters and participants are all
  /// done. Touches cross-node per-txn state, so exclusive context only.
  // detlint:requires(exclusive)
  void MaybeComplete(Active& a);

  /// True when degraded mode is active and `node` is currently down.
  bool NodeDead(NodeId node) const {
    return membership_ != nullptr && !membership_->alive(node);
  }
  /// Marks `a` stuck at a dead node and indexes it for the watchdog.
  /// Defers to the epoch barrier when called lane-side (the flag and the
  /// sorted index are shared across nodes).
  void Freeze(Active& a);
  /// Freeze() plus a resume continuation: the gate that fired records
  /// exactly where the per-node machine stalled so ResumeStalled can
  /// re-drive it at rejoin. Defers like Freeze().
  void FreezeStalled(Active& a, NodeId node, sim::Task resume);
  /// Re-drives every machine stalled at `node`'s dead gates, in sorted
  /// txn order, and unfreezes transactions with no remaining stalls.
  /// Touches cross-node per-txn state — exclusive context only (runs
  /// inside the rejoin transition, live and replay).
  // detlint:requires(exclusive)
  void ResumeStalled(NodeId node);
  /// Deterministic periodic sweep: aborts every frozen, un-acknowledged
  /// transaction (sorted by id), re-arming while any node is down.
  /// Scheduled on the control lane only, never called lane-side.
  // detlint:runs(exclusive)
  void WatchdogSweep();
  /// Reclaim timer body: returns a suppressed in-flight record to its
  /// source once the destination has been down for reclaim_timeout_us.
  /// Re-arms itself while the SOURCE is also down (overlapping fault
  /// windows — e.g. a partition suspect while a crashed node is out):
  /// reclaiming to a dead node would drop the payload. Scheduled on the
  /// control lane only, never called lane-side.
  // detlint:runs(exclusive)
  void ReclaimSuppressed(Key key, TxnId carrier);
  /// UNDO-aborts one frozen transaction: classifies its unfinished
  /// migrations (reship / strand / displace), releases its locks
  /// everywhere, and hands (request, callback, stranded keys) to the
  /// cluster's abort handler.
  // detlint:requires(exclusive)
  void AbortActive(Active& a);

  /// Ships a read-only copy of `key` to `holder` for a freshly granted
  /// lease: waits for the record at its source (following an in-flight
  /// migration or a displaced record if needed), snapshots it — the
  /// primary is never extracted — and sends it; the holder's lane applies
  /// it through the lease manager. Dispatch-time (exclusive) entry point.
  void StartReplicaInstall(Key key, NodeId source, NodeId holder, TxnId txn);

  /// Registers a record as extracted at `from` and riding a message to
  /// `to` (cleared again by DeliverRecord). The table write lands at the
  /// epoch barrier when called lane-side (same virtual time).
  void TrackInFlight(Key key, NodeId from, NodeId to, TxnId txn,
                     const storage::Record& record);

  /// Runs `ready` once every key in `keys` is physically present in
  /// `node`'s store (immediately if they already are).
  void WaitPresence(NodeId node, std::span<const Key> keys,
                    sim::Task ready);
  /// Inserts an arriving record and wakes presence waiters.
  void DeliverRecord(NodeId node, Key key, const storage::Record& record);

  void ProcessGrants(NodeId node, const std::vector<TxnId>& granted);

  sim::Simulator* sim_;
  net::Wire* net_;
  Metrics* metrics_;
  const CostModel* costs_;
  std::vector<std::unique_ptr<Node>>* nodes_;

  /// Transaction table. Structural writes (insert on dispatch, erase on
  /// completion/abort) happen only in exclusive context; node lanes do
  /// read-only Find()s, which is safe while the barrier serializes every
  /// mutation.
  FlatTable<Active*> actives_;
  /// Owns every Active record ever made; spare_ lists the idle ones.
  std::vector<std::unique_ptr<Active>> active_pool_;
  std::vector<Active*> spare_;
  /// Exclusive-context scratch: one node's lock requests while Dispatch
  /// enqueues them, Dispatch's shipment targets, and Acknowledge's
  /// per-node send work. Reused, so none allocates per transaction.
  std::vector<storage::LockRequest> lock_scratch_;
  std::vector<NodeId> targets_scratch_;
  std::vector<std::pair<NodeId, uint64_t>> send_work_scratch_;
  /// Client acks in flight (exclusive context only).
  sim::SlotPool<PendingAck> acks_;

  /// Per-node state, indexed by node id; sized by EnsureNodes in
  /// exclusive context only (growth would race lanes reading their own
  /// entry).
  std::vector<NodeLocal> per_node_;

  /// Written only in exclusive context (extract/delivery bookkeeping rides
  /// the epoch barrier); lanes may read it (trace carrier lookups).
  std::map<Key, InFlightRecord> inflight_records_;

  obs::Counter committed_;
  obs::Counter aborted_;
  obs::Tracer* tracer_ = nullptr;
  /// Replica-lease mechanism (null = disabled; see set_lease_manager).
  replication::LeaseManager* lease_mgr_ = nullptr;

  // --- Degraded-mode state (all null/empty unless EnableDegraded ran). ---
  const MembershipView* membership_ = nullptr;
  const DegradedConfig* degraded_ = nullptr;
  DegradedLedger* ledger_ = nullptr;
  DegradedAbortHandler degraded_abort_;
  /// A single watchdog chain is armed while any node is down (plus one
  /// final sweep after rejoin to clear stragglers frozen just before it).
  bool watchdog_armed_ = false;
  /// Ids of frozen transactions, maintained by Freeze()/erasure. The
  /// watchdog iterates this sorted index instead of the salted actives_
  /// map, so the abort order is total by construction.
  std::set<TxnId> frozen_ids_;
  /// Keys whose physical node diverged from the ownership map during an
  /// outage (reclaimed or stranded records). std::map: the rejoin
  /// reconciliation iterates it in key order.
  std::map<Key, NodeId> displaced_;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_EXECUTOR_H_
