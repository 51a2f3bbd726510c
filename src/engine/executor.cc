#include "engine/executor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

namespace hermes::engine {
namespace {

using routing::Access;
using routing::RoutedTxn;
using sim::InlineTask;

void SortUnique(std::vector<Key>* keys) {
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

/// Packs one planned access into a TraceEvent arg: new-owner node in the
/// high bits, write/ship flags in the low two.
uint64_t PackAccessArg(const routing::Access& acc) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(acc.new_owner)) << 2) |
         (acc.is_write ? 2u : 0u) | (acc.ship_to_master ? 1u : 0u);
}

constexpr Key kNoKey = static_cast<Key>(-1);

/// Collects `node`'s lock requests for `plan` into `*out`, sorted by key
/// with one request per key (a key can appear as both a normal access and
/// a fence/eviction access: exclusive wins). `fence` says whether `node`
/// takes migration-fence locks (a master of a regular transaction).
void CollectLockRequests(const RoutedTxn& plan, NodeId node, bool fence,
                         std::vector<storage::LockRequest>* out) {
  out->clear();
  for (const Access& acc : plan.accesses) {
    if (acc.owner == node) {
      out->push_back(storage::LockRequest{acc.key, acc.is_write});
    } else if (fence && acc.new_owner == node) {
      // Migration fence: a record moving to a master that will write it
      // is exclusively locked at the destination until commit, so
      // transactions routed there later in the total order cannot read
      // it early.
      out->push_back(storage::LockRequest{acc.key, true});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const storage::LockRequest& x, const storage::LockRequest& y) {
              if (x.key != y.key) return x.key < y.key;
              return x.exclusive > y.exclusive;
            });
  out->erase(std::unique(out->begin(), out->end(),
                         [](const storage::LockRequest& x,
                            const storage::LockRequest& y) {
                           return x.key == y.key;
                         }),
             out->end());
}

/// Borrows a reusable scratch vector for one call (a lock call and its
/// grant processing, a send phase, a presence registration). The buffer
/// is swapped out of its home, so a nested borrow of the same home gets
/// an empty vector, and it goes back cleared with its capacity: a
/// warmed-up borrow allocates nothing.
template <typename T>
class Borrowed {
 public:
  explicit Borrowed(std::vector<T>& home) : home_(home) { v_.swap(home); }
  ~Borrowed() {
    v_.clear();
    if (v_.capacity() > home_.capacity()) home_.swap(v_);
  }
  Borrowed(const Borrowed&) = delete;
  Borrowed& operator=(const Borrowed&) = delete;

  std::vector<T>* get() { return &v_; }
  std::vector<T>* operator->() { return &v_; }
  std::vector<T>& operator*() { return v_; }

 private:
  std::vector<T>& home_;
  std::vector<T> v_;
};

}  // namespace

TxnExecutor::TxnExecutor(sim::Simulator* sim, net::Wire* wire,
                         Metrics* metrics, const CostModel* costs,
                         std::vector<std::unique_ptr<Node>>* nodes)
    : sim_(sim), net_(wire), metrics_(metrics), costs_(costs), nodes_(nodes) {}

void TxnExecutor::EnsureNodes(int num_nodes) {
  assert(!sim_->in_lane_context() &&
         "per-node executor state may only grow in exclusive context");
  if (static_cast<int>(per_node_.size()) < num_nodes) {
    per_node_.resize(static_cast<size_t>(num_nodes));
  }
}

void TxnExecutor::Active::Recycle() {
  // Become a fresh record, but keep the vectors' buffers.
  Active fresh;
  nodes.clear();
  owned.clear();
  masters.clear();
  write_keys.clear();
  fresh.nodes.swap(nodes);
  fresh.owned.swap(owned);
  fresh.masters.swap(masters);
  fresh.write_keys.swap(write_keys);
  *this = std::move(fresh);
}

TxnExecutor::Active& TxnExecutor::AcquireActive() {
  if (spare_.empty()) {
    active_pool_.push_back(std::make_unique<Active>());
    return *active_pool_.back();
  }
  Active* a = spare_.back();
  spare_.pop_back();
  return *a;
}

void TxnExecutor::RetireActive(Active& a) {
  const TxnId id = a.plan.txn.id;
  frozen_ids_.erase(id);
  actives_.Erase(id);
  a.Recycle();
  spare_.push_back(&a);
}

TxnExecutor::NodeState* TxnExecutor::StateFor(Active& a, NodeId node) {
  for (auto& [id, state] : a.nodes) {
    if (id == node) return &state;
  }
  return nullptr;
}

TxnExecutor::MasterState* TxnExecutor::MasterFor(Active& a, NodeId node) {
  for (auto& m : a.masters) {
    if (m.node == node) return &m;
  }
  return nullptr;
}

bool TxnExecutor::IsMaster(const Active& a, NodeId node) const {
  for (const auto& m : a.masters) {
    if (m.node == node) return true;
  }
  return false;
}

void TxnExecutor::Dispatch(RoutedTxn routed, CommitCallback on_commit) {
  EnsureNodes(static_cast<int>(nodes_->size()));
  Active& a = AcquireActive();
  a.plan = std::move(routed);
  const RoutedTxn& plan = a.plan;
  const TxnId id = plan.txn.id;
  assert(!plan.masters.empty());
  if (HERMES_TRACE_ACTIVE(tracer_)) {
    tracer_->Record(obs::EventKind::kTxnDispatch, plan.masters[0], id, kNoKey,
                    plan.accesses.size());
    for (const auto& acc : plan.accesses) {
      tracer_->Record(obs::EventKind::kAccess, acc.owner, id, acc.key,
                      PackAccessArg(acc));
    }
  }
  // Replica-lease maintenance rides the plan in dispatch (= total) order:
  // holder-set changes first, then the install shipments, so a read
  // routed later in this batch already sees the holder registered.
  if (lease_mgr_ != nullptr) {
    for (const routing::ReplicaOp& op : plan.replica_ops) {
      if (op.kind == routing::ReplicaOpKind::kInstall) {
        lease_mgr_->BeginInstall(op.key, op.node, op.source);
        StartReplicaInstall(op.key, op.source, op.node, id);
      } else {
        lease_mgr_->Revoke(op.key, op.node);
      }
    }
  }

  a.on_commit = std::move(on_commit);
  a.dispatch_time = sim_->Now();
  a.write_keys.assign(plan.txn.write_set.begin(), plan.txn.write_set.end());
  SortUnique(&a.write_keys);
  for (NodeId m : plan.masters) a.masters.push_back(MasterState{m});

  // Group owned accesses per involved node. a.nodes is kept sorted by node
  // id, so every walk over it is in node order; a.owned holds each node's
  // accesses as one run, in plan order.
  auto state_of = [&a](NodeId node) -> NodeState& {
    auto it = std::lower_bound(
        a.nodes.begin(), a.nodes.end(), node,
        [](const auto& entry, NodeId n) { return entry.first < n; });
    if (it == a.nodes.end() || it->first != node) {
      it = a.nodes.emplace(it, node, NodeState{});
    }
    return it->second;
  };
  for (const Access& acc : plan.accesses) ++state_of(acc.owner).owned_count;
  for (const auto& m : a.masters) state_of(m.node).is_master = true;
  uint32_t run_begin = 0;
  for (auto& [node, state] : a.nodes) {
    state.owned_begin = run_begin;
    run_begin += state.owned_count;
    state.owned_count = 0;  // refilled below
  }
  a.owned.resize(plan.accesses.size());
  for (const Access& acc : plan.accesses) {
    NodeState& state = *StateFor(a, acc.owner);
    a.owned[state.owned_begin + state.owned_count++] = acc;
  }

  // Count expected shipments per master: one message per (source node,
  // master) pair with at least one shipped access.
  std::vector<NodeId>& targets = targets_scratch_;
  for (auto& [node, state] : a.nodes) {
    targets.clear();
    for (const Access& acc : Owned(a, state)) {
      if (!acc.ship_to_master) continue;
      if (acc.new_owner != kInvalidNode && acc.new_owner != node &&
          IsMaster(a, acc.new_owner)) {
        // The migration message itself carries the value to the master.
        targets.push_back(acc.new_owner);
        continue;
      }
      // Read copy (including reads whose record migrates to a non-master,
      // e.g. a return-migration home): one message per remote master.
      for (const auto& m : a.masters) {
        if (m.node != node) targets.push_back(m.node);
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (NodeId t : targets) {
      MasterState* m = MasterFor(a, t);
      if (m != nullptr) ++m->pending_messages;
    }
  }

  a.distributed = a.nodes.size() > 1;

  for (const auto& [node, state] : a.nodes) {
    if (NodeWillSend(a, state, node)) ++a.participants_pending;
  }

  assert(Find(id) == nullptr && "transaction dispatched twice");
  actives_.Insert(id) = &a;

  // Enqueue all lock requests in total order (ascending node id within the
  // transaction; Dispatch itself is called in total order).
  const bool regular = plan.txn.kind == TxnKind::kRegular;
  for (auto& [node, state] : a.nodes) {
    state.acquire_time = sim_->Now();
    CollectLockRequests(plan, node, regular && state.is_master,
                        &lock_scratch_);
    Borrowed<TxnId> granted(NodeAt(node).grant_scratch());
    NodeAt(node).locks().Acquire(id, lock_scratch_, granted.get());
    ProcessGrants(node, *granted);
  }
}

void TxnExecutor::ProcessGrants(NodeId node,
                                const std::vector<TxnId>& granted) {
  for (TxnId t : granted) {
    if (Active* a = Find(t)) OnNodeGranted(*a, node);
  }
}

bool TxnExecutor::NodeWillSend(const Active& a, const NodeState& state,
                               NodeId node) const {
  for (const Access& acc : Owned(a, state)) {
    const bool migrates =
        acc.new_owner != kInvalidNode && acc.new_owner != node;
    const bool ships = acc.ship_to_master &&
                       (a.masters.size() > 1 || a.masters[0].node != node);
    if (migrates || ships) return true;
  }
  return false;
}

void TxnExecutor::OnNodeGranted(Active& a, NodeId node) {
  NodeState* state = StateFor(a, node);
  assert(state != nullptr && !state->granted);
  const TxnId id = a.plan.txn.id;
  if (NodeDead(node)) {
    // Grant reached a dead node (its previous lock holder committed or
    // was aborted): the transaction cannot make progress here. Leave it
    // ungranted and stalled; rejoin re-drives the grant from the top, or
    // the watchdog reclassifies it first.
    FreezeStalled(a, node, [this, id, node]() {
      if (Active* act = Find(id)) OnNodeGranted(*act, node);
    });
    return;
  }
  state->granted = true;
  state->grant_time = sim_->Now();
  NodeLocal& local = per_node_[static_cast<size_t>(node)];

  // Participant side: ship records once they are physically present.
  if (NodeWillSend(a, *state, node)) {
    Borrowed<Key> needed(local.keys);
    for (const Access& acc : Owned(a, *state)) {
      const bool migrates =
          acc.new_owner != kInvalidNode && acc.new_owner != node;
      const bool ships = acc.ship_to_master &&
                         (a.masters.size() > 1 || a.masters[0].node != node);
      if (migrates || ships) needed->push_back(acc.key);
    }
    SortUnique(needed.get());
    WaitPresence(node, *needed, InlineTask([this, id, node]() {
                   if (Active* act = Find(id)) StartParticipant(*act, node);
                 }));
  }

  // Master side: check local presence, then readiness. Replica reads wait
  // on the lease copy instead of the primary store (the primary lives
  // elsewhere); both waits count down MasterState::presence_pending so
  // local_present flips exactly once.
  MasterState* m = MasterFor(a, node);
  if (m != nullptr) {
    Borrowed<Key> primary(local.keys);
    Borrowed<Key> replica(local.more_keys);
    for (const Access& acc : Owned(a, *state)) {
      if (acc.replica_read && lease_mgr_ != nullptr) {
        replica->push_back(acc.key);
      } else {
        primary->push_back(acc.key);
      }
    }
    m->presence_pending = replica->empty() ? 1 : 2;
    auto present = [this, id, node]() { OnMasterPresent(id, node); };
    if (!replica->empty()) {
      SortUnique(replica.get());
      lease_mgr_->WaitCopies(node, *replica, present);
    }
    SortUnique(primary.get());
    WaitPresence(node, *primary, InlineTask(present));
  }
}

void TxnExecutor::OnMasterPresent(TxnId id, NodeId node) {
  Active* a = Find(id);
  if (a == nullptr) return;
  MasterState* m = MasterFor(*a, node);
  if (--m->presence_pending > 0) return;
  m->local_present = true;
  CheckMasterReady(*a, *m);
}

void TxnExecutor::StartParticipant(Active& a, NodeId node) {
  const TxnId id = a.plan.txn.id;
  if (NodeDead(node)) {  // died between grant and record presence
    FreezeStalled(a, node, [this, id, node]() {
      if (Active* act = Find(id)) StartParticipant(*act, node);
    });
    return;
  }
  // Local storage reads for everything this node ships, on a worker.
  NodeState* state = StateFor(a, node);
  size_t ops = 0;
  for (const Access& acc : Owned(a, *state)) {
    const bool involved =
        (acc.new_owner != kInvalidNode && acc.new_owner != node) ||
        (acc.ship_to_master &&
         (a.masters.size() > 1 || a.masters[0].node != node));
    if (involved) ++ops;
  }
  NodeAt(node).workers().Submit(
      costs_->storage_op_us * ops, InlineTask([this, id, node]() {
        if (Active* act = Find(id)) FinishParticipant(*act, node);
      }));
}

void TxnExecutor::FinishParticipant(Active& a, NodeId node) {
  const TxnId id = a.plan.txn.id;
  if (NodeDead(node)) {  // died while the send phase ran on a worker
    // Nothing shipped yet (extraction happens below, all at once), so the
    // resumed machine re-runs the whole send phase safely.
    FreezeStalled(a, node, [this, id, node]() {
      if (Active* act = Find(id)) FinishParticipant(*act, node);
    });
    return;
  }
  NodeState* state = StateFor(a, node);
  Node& src = NodeAt(node);

  // Build one message per destination, in destination order: read copies
  // to masters, record moves to their new owners. Copies are snapshotted
  // before any move extracts the record.
  Borrowed<Shipment> shipments(per_node_[static_cast<size_t>(node)].shipments);
  auto shipment_to = [&shipments](NodeId dest) -> Shipment& {
    auto it = std::lower_bound(
        shipments->begin(), shipments->end(), dest,
        [](const Shipment& s, NodeId d) { return s.dest < d; });
    if (it == shipments->end() || it->dest != dest) {
      it = shipments->insert(it, Shipment{});
      it->dest = dest;
    }
    return *it;
  };

  for (const Access& acc : Owned(a, *state)) {
    const bool migrates =
        acc.new_owner != kInvalidNode && acc.new_owner != node;
    const bool migrates_to_master =
        migrates && IsMaster(a, acc.new_owner);
    if (!acc.ship_to_master || migrates_to_master) continue;
    // Read copy to every remote master (for records migrating to a
    // non-master destination, the copy and the move are separate
    // messages).
    for (const auto& m : a.masters) {
      if (m.node == node) continue;
      Shipment& s = shipment_to(m.node);
      s.bytes += costs_->record_bytes;
      s.to_master = true;
    }
  }
  for (const Access& acc : Owned(a, *state)) {
    const bool migrates =
        acc.new_owner != kInvalidNode && acc.new_owner != node;
    if (!migrates) continue;
    auto rec = src.store().Extract(acc.key);
    assert(rec.has_value() && "migrating a record that is not present");
    HERMES_TRACE(tracer_, obs::EventKind::kRecordExtract, node, id, acc.key,
                 static_cast<uint32_t>(acc.new_owner));
    Shipment& s = shipment_to(acc.new_owner);
    s.moves.emplace_back(acc.key, *rec);
    s.bytes += costs_->record_bytes;
    TrackInFlight(acc.key, node, acc.new_owner, id, *rec);
    if (acc.ship_to_master && IsMaster(a, acc.new_owner)) s.to_master = true;
  }

  // Regular transactions block on these shipments (foreground); chunk
  // migrations and provisioning markers move data in the background (bulk,
  // eligible for envelope coalescing on the wire substrate).
  const TrafficClass ship_cls = a.plan.txn.kind == TxnKind::kRegular
                                    ? TrafficClass::kForeground
                                    : TrafficClass::kBulk;
  uint64_t migrated = 0;
  for (Shipment& shipment : *shipments) {
    migrated += shipment.moves.size();
    const NodeId dest = shipment.dest;
    net_->Send(node, dest, shipment.bytes, ship_cls,
               InlineTask([this, id, dest, moves = std::move(shipment.moves),
                           notify_master = shipment.to_master]() {
                 for (const auto& [key, rec] : moves) {
                   DeliverRecord(dest, key, rec);
                 }
                 Active* act = Find(id);
                 if (act == nullptr || !notify_master) return;
                 MasterState* m = MasterFor(*act, dest);
                 if (m != nullptr) {
                   assert(m->pending_messages > 0);
                   --m->pending_messages;
                   ++m->messages_received;
                   CheckMasterReady(*act, *m);
                 }
               }));
  }
  // Early release: participants that are not masters give their locks up
  // right after shipping (their part of the transaction is over). Lock
  // state is node-local, so the release and its grant chain stay on this
  // lane; the shared bookkeeping (metrics, participant counter, possible
  // completion) rides the epoch barrier at the same virtual time.
  Borrowed<TxnId> granted(src.grant_scratch());
  if (!state->is_master) {
    src.locks().Release(id, granted.get());
  }
  sim_->Defer(InlineTask([this, id, migrated]() {
    if (migrated > 0) metrics_->RecordMigrations(sim_->Now(), migrated);
    Active* act = Find(id);
    if (act == nullptr) return;
    --act->participants_pending;
    MaybeComplete(*act);  // may retire `act`
  }));
  ProcessGrants(node, *granted);
}

void TxnExecutor::CheckMasterReady(Active& a, MasterState& m) {
  if (NodeDead(m.node)) {
    // The master died before starting. (A master that already started
    // races the crash: its worker completion still commits — the rebuilt
    // store replays that commit, so the detached-in-place image matches.)
    // Re-checking readiness at rejoin is idempotent: started/granted/
    // presence/pending are all re-tested.
    const TxnId id = a.plan.txn.id;
    const NodeId node = m.node;
    FreezeStalled(a, node, [this, id, node]() {
      Active* act = Find(id);
      if (act == nullptr) return;
      MasterState* ms = MasterFor(*act, node);
      if (ms != nullptr) CheckMasterReady(*act, *ms);
    });
    return;
  }
  NodeState* state = StateFor(a, m.node);
  if (m.started || !state->granted || !m.local_present ||
      m.pending_messages > 0) {
    return;
  }
  m.started = true;
  m.ready_time = sim_->Now();
  if (m.ready_time > state->grant_time) {
    m.remote_wait_us += m.ready_time - state->grant_time;
  }
  ExecuteMaster(a, m);
}

void TxnExecutor::ExecuteMaster(Active& a, MasterState& m) {
  // Execution cost: fixed logic + per-record logic + local storage ops.
  const bool single_master = a.masters.size() == 1;
  const NodeState* state = StateFor(a, m.node);
  size_t local_ops = state->owned_count;
  for (Key k : a.write_keys) {
    (void)k;
    if (single_master) ++local_ops;  // every write applies here
  }
  if (!single_master) {
    for (const Access& acc : Owned(a, *state)) {
      if (acc.is_write) ++local_ops;
    }
  }
  const SimTime cost = costs_->txn_logic_us +
                       costs_->txn_logic_per_record_us * a.plan.txn.NumOps() +
                       costs_->storage_op_us * local_ops +
                       costs_->msg_processing_us * m.messages_received;
  m.exec_us += cost;
  const TxnId id = a.plan.txn.id;
  const NodeId node = m.node;
  NodeAt(node).workers().Submit(cost, InlineTask([this, id, node]() {
    Active* act = Find(id);
    if (act == nullptr) return;
    CommitMaster(*act, *MasterFor(*act, node));
  }));
}

void TxnExecutor::CommitMaster(Active& a, MasterState& m) {
  Node& node = NodeAt(m.node);
  const TxnId id = a.plan.txn.id;
  const bool single_master = a.masters.size() == 1;

  if (a.plan.txn.kind == TxnKind::kRegular) {
    // Apply writes with UNDO pre-images; a user abort rolls them back but
    // the migration plan already executed (§4.2).
    for (Key k : a.write_keys) {
      bool applies_here = single_master;
      if (!single_master) {
        const NodeState* state = StateFor(a, m.node);
        applies_here = false;
        for (const Access& acc : Owned(a, *state)) {
          if (acc.key == k && acc.is_write) {
            applies_here = true;
            break;
          }
        }
      }
      if (!applies_here) continue;
      const storage::Record* pre = node.store().Get(k);
      assert(pre != nullptr && "write target not present at master");
      node.undo().RecordPreImage(id, k, *pre);
      node.store().ApplyWrite(k, id);
    }
    if (a.plan.txn.user_abort) {
      node.undo().Abort(id, &node.store());
    } else {
      node.undo().Commit(id);
    }
  }

  // Replica-lease write fan-out: every committed write of a leased key
  // sends the full post-commit record snapshot to the sorted holder set
  // (batch-ordered: the commit itself is ordered by this master's lock).
  // Holders apply version-max, so late or duplicated updates converge.
  // Each key fans out from the master that applied it (the same
  // applies-here test as the write loop above), so multi-master plans
  // refresh copies exactly once per key. The holder set is
  // exclusive-written, lane-read — safe here.
  if (lease_mgr_ != nullptr && a.plan.txn.kind == TxnKind::kRegular &&
      !a.plan.txn.user_abort) {
    uint64_t fanout_work = 0;
    for (Key k : a.write_keys) {
      bool applies_here = single_master;
      if (!single_master) {
        const NodeState* state = StateFor(a, m.node);
        applies_here = false;
        for (const Access& acc : Owned(a, *state)) {
          if (acc.key == k && acc.is_write) {
            applies_here = true;
            break;
          }
        }
      }
      if (!applies_here) continue;
      const std::vector<NodeId>* holders = lease_mgr_->HoldersOf(k);
      if (holders == nullptr) continue;
      const storage::Record* rec = node.store().Get(k);
      if (rec == nullptr) continue;
      const storage::Record snapshot = *rec;
      for (NodeId h : *holders) {
        if (h == m.node) {
          // The primary migrated onto a holder: refresh its copy in place
          // (own lane, own shard), no network hop.
          lease_mgr_->ApplyCopy(h, k, snapshot, /*install=*/false, id);
          continue;
        }
        fanout_work += costs_->storage_op_us;
        // Batch-ordered apply: the holder is already consuming this
        // epoch's sequenced batch stream, so the refresh costs it one
        // storage op, not a point-to-point RPC deserialization (only the
        // initial install pays msg_processing for its fetch).
        net_->Send(m.node, h, costs_->record_bytes, TrafficClass::kBulk,
                   [this, k, h, id, snapshot]() {
                     if (NodeDead(h)) return;
                     NodeAt(h).workers().Submit(costs_->storage_op_us, [] {});
                     lease_mgr_->ApplyCopy(h, k, snapshot,
                                           /*install=*/false, id);
                   });
      }
    }
    if (fanout_work > 0) node.workers().Submit(fanout_work, [] {});
  }

  Borrowed<TxnId> granted(node.grant_scratch());
  node.locks().Release(id, granted.get());
  m.done = true;
  const NodeId master_node = m.node;
  // The done-counter is shared across masters (different node lanes) and
  // the acknowledgment does cross-node work (return-shipment extracts),
  // so both run at the epoch barrier, at this same virtual time. The
  // grant chain is node-local and stays on this lane.
  sim_->Defer(InlineTask([this, id]() { OnMasterDone(id); }));
  ProcessGrants(master_node, *granted);
}

void TxnExecutor::OnMasterDone(TxnId id) {
  Active* a = Find(id);
  if (a == nullptr) return;
  ++a->masters_done;
  if (a->masters_done == static_cast<int>(a->masters.size())) {
    Acknowledge(*a);
    MaybeComplete(*a);  // may retire `a`
  }
}

void TxnExecutor::MaybeComplete(Active& a) {
  if (a.acked && a.participants_pending == 0) RetireActive(a);
}

void TxnExecutor::Acknowledge(Active& a) {
  assert(!sim_->in_lane_context() &&
         "acknowledgment does cross-node work; exclusive context only");
  // Return shipments: checked-out records go home after commit. The
  // write-back is real work: the sender reads and serializes each record,
  // the receiver deserializes and re-inserts it — this is the overhead
  // data fusion avoids (§6.3).
  uint64_t returns = 0;
  // Per-sender storage work, kept sorted by node.
  std::vector<std::pair<NodeId, uint64_t>>& send_work = send_work_scratch_;
  send_work.clear();
  for (const routing::ReturnShipment& r : a.plan.on_commit_returns) {
    auto rec = NodeAt(r.from).store().Extract(r.key);
    assert(rec.has_value() && "returning a record that is not present");
    HERMES_TRACE(tracer_, obs::EventKind::kRecordExtract, r.from,
                 a.plan.txn.id, r.key, static_cast<uint32_t>(r.to));
    TrackInFlight(r.key, r.from, r.to, a.plan.txn.id, *rec);
    ++returns;
    auto work = std::lower_bound(
        send_work.begin(), send_work.end(), r.from,
        [](const auto& entry, NodeId n) { return entry.first < n; });
    if (work == send_work.end() || work->first != r.from) {
      work = send_work.emplace(work, r.from, 0);
    }
    work->second += costs_->storage_op_us;
    net_->Send(r.from, r.to, costs_->record_bytes, TrafficClass::kBulk,
               InlineTask([this, r, record = *rec]() {
                 if (!NodeDead(r.to)) {
                   NodeAt(r.to).workers().Submit(
                       costs_->storage_op_us + costs_->msg_processing_us,
                       [] {});
                 }
                 DeliverRecord(r.to, r.key, record);
               }));
  }
  for (const auto& [node, work] : send_work) {
    NodeAt(node).workers().Submit(work, [] {});
  }
  if (returns > 0) metrics_->RecordMigrations(sim_->Now(), returns);

  TxnResult result;
  result.id = a.plan.txn.id;
  result.aborted = a.plan.txn.user_abort;
  result.distributed = a.distributed;
  result.latency.scheduling_us =
      a.dispatch_time > a.plan.txn.submit_time
          ? a.dispatch_time - a.plan.txn.submit_time
          : 0;
  // Lock wait: time from dispatch until the (last) master held its locks.
  SimTime lock_wait = 0;
  for (const auto& m : a.masters) {
    const NodeState* state = nullptr;
    for (const auto& [id, st] : a.nodes) {
      if (id == m.node) state = &st;
    }
    if (state != nullptr && state->grant_time > a.dispatch_time) {
      lock_wait = std::max(lock_wait, state->grant_time - a.dispatch_time);
    }
  }
  result.latency.lock_wait_us = lock_wait;
  // Per-master contributions were accumulated on each master's own lane;
  // summing here (exclusive context) reproduces the sequential totals.
  SimTime remote_wait_us = 0;
  SimTime exec_us = 0;
  for (const auto& m : a.masters) {
    remote_wait_us += m.remote_wait_us;
    exec_us += m.exec_us;
  }
  result.latency.remote_wait_us = remote_wait_us;
  result.latency.storage_us = exec_us;

  // Phase spans: the lifecycle timeline of §2.1, laid end to end from
  // submit time. Purely derived from the latency breakdown computed above.
  const NodeId master = a.plan.masters[0];
  if (HERMES_TRACE_ACTIVE(tracer_)) {
    const TxnId tid = a.plan.txn.id;
    SimTime at = a.plan.txn.submit_time;
    tracer_->RecordSpan(obs::EventKind::kPhaseSequence, master, tid, kNoKey,
                        at, result.latency.scheduling_us);
    at += result.latency.scheduling_us;
    tracer_->RecordSpan(obs::EventKind::kPhaseLockWait, master, tid, kNoKey,
                        at, result.latency.lock_wait_us);
    at += result.latency.lock_wait_us;
    tracer_->RecordSpan(obs::EventKind::kPhaseRemoteWait, master, tid, kNoKey,
                        at, result.latency.remote_wait_us);
    at += result.latency.remote_wait_us;
    tracer_->RecordSpan(obs::EventKind::kPhaseExecute, master, tid, kNoKey,
                        at, result.latency.storage_us);
  }

  if (result.aborted) {
    aborted_.Add();
  } else {
    committed_.Add();
  }
  a.acked = true;

  // Client acknowledgment is one network hop away. The ack is parked in a
  // slot so the event itself stays inline.
  const uint32_t slot = acks_.Park(PendingAck{
      result, std::move(a.on_commit), a.plan.txn.submit_time,
      a.plan.txn.kind == TxnKind::kRegular, master});
  sim_->Schedule(costs_->net_latency_us,
                 InlineTask([this, slot]() { DeliverAck(slot); }));
}

void TxnExecutor::DeliverAck(uint32_t slot) {
  PendingAck ack = acks_.Take(slot);
  TxnResult& result = ack.result;
  const SimTime now = sim_->Now();
  result.latency.total_us = now > ack.submit ? now - ack.submit : 0;
  const SimTime accounted =
      result.latency.scheduling_us + result.latency.lock_wait_us +
      result.latency.remote_wait_us + result.latency.storage_us;
  result.latency.other_us = result.latency.total_us > accounted
                                ? result.latency.total_us - accounted
                                : 0;
  if (ack.regular) {
    metrics_->RecordCommit(now, result.latency, result.distributed,
                           result.aborted);
  }
  HERMES_TRACE(tracer_,
               result.aborted ? obs::EventKind::kTxnAbort
                              : obs::EventKind::kTxnCommit,
               ack.master, result.id, kNoKey, result.latency.total_us);
  if (ack.cb) ack.cb(result);
}

std::string TxnExecutor::DebugString() const {
  std::string out;
  char buf[256];
  std::vector<TxnId> ids;
  ids.reserve(actives_.size());
  // detlint:allow(unordered-iter) id collection, sorted just below
  for (const auto& [id, a] : actives_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (TxnId id : ids) {
    const Active* a = *actives_.Find(id);
    std::snprintf(buf, sizeof(buf),
                  "txn %llu kind=%d attempt=%u%s%s:\n",
                  static_cast<unsigned long long>(id),
                  static_cast<int>(a->plan.txn.kind), a->plan.txn.attempt,
                  a->plan.txn.retry_of != kInvalidTxn ? " retry" : "",
                  a->frozen ? " FROZEN" : "");
    out += buf;
    for (const auto& [node, st] : a->nodes) {
      std::snprintf(buf, sizeof(buf),
                    "  node %d granted=%d master=%d owned=%u\n", node,
                    st.granted, st.is_master, st.owned_count);
      out += buf;
      for (const auto& acc : Owned(*a, st)) {
        if ((*nodes_)[node]->store().Contains(acc.key)) continue;
        NodeId actually = kInvalidNode;
        for (const auto& n : *nodes_) {
          if (n->store().Contains(acc.key)) actually = n->id();
        }
        std::snprintf(buf, sizeof(buf),
                      "    MISSING key=%llu (w=%d ship=%d new=%d) actually at "
                      "node %d\n",
                      static_cast<unsigned long long>(acc.key), acc.is_write,
                      acc.ship_to_master, acc.new_owner, actually);
        out += buf;
      }
    }
    for (const auto& m : a->masters) {
      std::snprintf(buf, sizeof(buf),
                    "  master %d pending=%d local=%d started=%d done=%d\n",
                    m.node, m.pending_messages, m.local_present, m.started,
                    m.done);
      out += buf;
    }
  }
  // Sorted so the diagnostic is stable across runs and hash salts.
  std::vector<std::tuple<NodeId, Key, size_t>> waits;
  for (size_t node = 0; node < per_node_.size(); ++node) {
    for (const auto& [key, count] : per_node_[node].presence.Snapshot()) {
      waits.emplace_back(static_cast<NodeId>(node), key, count);
    }
  }
  std::sort(waits.begin(), waits.end());
  for (const auto& [node, key, count] : waits) {
    std::snprintf(buf, sizeof(buf), "presence wait: node=%d key=%llu (%zu)\n",
                  node, static_cast<unsigned long long>(key), count);
    out += buf;
  }
  for (const auto& [key, r] : inflight_records_) {
    std::snprintf(buf, sizeof(buf),
                  "in flight: key=%llu node %d -> node %d (txn %llu)%s\n",
                  static_cast<unsigned long long>(key), r.from, r.to,
                  static_cast<unsigned long long>(r.txn),
                  r.suppressed ? " SUPPRESSED" : "");
    out += buf;
  }
  for (const auto& [key, node] : displaced_) {
    std::snprintf(buf, sizeof(buf),
                  "displaced: key=%llu physically at node %d\n",
                  static_cast<unsigned long long>(key), node);
    out += buf;
  }
  return out;
}

sim::Task TxnExecutor::PresenceWaits::Wait(const storage::RecordStore& store,
                                           std::span<const Key> keys,
                                           sim::Task ready) {
  uint32_t wait = kNone;
  for (Key k : keys) {
    if (store.Contains(k)) continue;
    if (wait == kNone) wait = waits_.Park(Parked{0, std::move(ready)});
    ++waits_[wait].remaining;
    uint32_t w;
    if (free_waiters_.empty()) {
      w = static_cast<uint32_t>(waiters_.size());
      waiters_.push_back(Waiter{wait, kNone});
    } else {
      w = free_waiters_.back();
      free_waiters_.pop_back();
      waiters_[w] = Waiter{wait, kNone};
    }
    if (Queue* q = queues_.Find(k)) {
      waiters_[q->tail].next = w;
      q->tail = w;
    } else {
      queues_.Insert(k) = Queue{w, w};
    }
  }
  return ready;  // moved-from (empty) once parked
}

void TxnExecutor::PresenceWaits::Wake(Key key) {
  const Queue* q = queues_.Find(key);
  if (q == nullptr) return;
  uint32_t w = q->head;
  // Detach the list first: a continuation run below may register new
  // waits on this shard (even on this key, if it moved the record away).
  queues_.Erase(key);
  while (w != kNone) {
    const Waiter waiter = waiters_[w];
    free_waiters_.push_back(w);
    w = waiter.next;
    if (--waits_[waiter.wait].remaining > 0) continue;
    sim::Task ready = std::move(waits_.Take(waiter.wait).ready);
    ready();
  }
}

std::vector<std::pair<Key, size_t>> TxnExecutor::PresenceWaits::Snapshot()
    const {
  std::vector<std::pair<Key, size_t>> out;
  // detlint:allow(unordered-iter) diagnostic listing, sorted by the caller
  for (const auto& [key, q] : queues_) {
    size_t count = 0;
    for (uint32_t w = q.head; w != kNone; w = waiters_[w].next) ++count;
    out.emplace_back(key, count);
  }
  return out;
}

void TxnExecutor::WaitPresence(NodeId node, std::span<const Key> keys,
                               sim::Task ready) {
  assert(static_cast<size_t>(node) < per_node_.size() &&
         "node without executor state (EnsureNodes not called)");
  sim::Task now = per_node_[static_cast<size_t>(node)].presence.Wait(
      NodeAt(node).store(), keys, std::move(ready));
  if (now) now();
}

void TxnExecutor::Freeze(Active& a) {
  // The frozen flag and the sorted watchdog index are shared across
  // nodes; lane-side freezes (dead-node gates firing on the dead node's
  // lane) land at the epoch barrier, same virtual time. Captured by id:
  // the transaction may complete at the same barrier.
  const TxnId id = a.plan.txn.id;
  sim_->Defer([this, id]() {
    Active* act = Find(id);
    if (act == nullptr) return;
    act->frozen = true;
    frozen_ids_.insert(id);
  });
}

void TxnExecutor::FreezeStalled(Active& a, NodeId node, sim::Task resume) {
  // Same barrier discipline as Freeze(); additionally parks the abandoned
  // continuation under the dead node so ResumeStalled can re-drive it.
  const TxnId id = a.plan.txn.id;
  sim_->Defer([this, id, node, resume = std::move(resume)]() mutable {
    Active* act = Find(id);
    if (act == nullptr) return;
    act->frozen = true;
    frozen_ids_.insert(id);
    act->stalled[node].push_back(std::move(resume));
  });
}

void TxnExecutor::ResumeStalled(NodeId node) {
  // Sorted snapshot: resume order is total regardless of hash salt, and
  // a thunk may complete its transaction (erasing it from the live index)
  // while later ids still wait their turn.
  const std::vector<TxnId> frozen(frozen_ids_.begin(), frozen_ids_.end());
  for (TxnId id : frozen) {
    Active* found = Find(id);
    if (found == nullptr) {
      frozen_ids_.erase(id);
      continue;
    }
    Active& a = *found;
    // Only acknowledged transactions resume. Their writes are already
    // committed in serial order — what stalled is pure record shipment,
    // which lands correctly at any later time (destinations presence-wait
    // on the record itself). An un-acked frozen transaction must NOT be
    // resurrected: while it was frozen, later transactions may have
    // overtaken its serial position through the re-routed ownership map,
    // so replaying its writes now would fold them in the wrong order.
    // The watchdog UNDO-aborts those (recorded, so replay flips them to
    // §4.2 user-aborts at the right log position).
    if (!a.acked) continue;
    auto sit = a.stalled.find(node);
    if (sit == a.stalled.end()) continue;
    std::vector<sim::Task> thunks = std::move(sit->second);
    a.stalled.erase(sit);
    if (a.stalled.empty()) {
      // No other dead gate holds this transaction; it either completes
      // now or freezes again if a machine hits another down node.
      a.frozen = false;
      frozen_ids_.erase(id);
    }
    HERMES_TRACE(tracer_, obs::EventKind::kTxnResume, node, id, kNoKey,
                 thunks.size());
    for (auto& t : thunks) t();  // may retire the Active
  }
}

void TxnExecutor::StartReplicaInstall(Key key, NodeId source, NodeId holder,
                                      TxnId txn) {
  // Locate the primary: at the routed source, else follow an in-flight
  // migration to its destination, else (displaced during an outage) scan
  // the stores in node order. The copy is a snapshot — the primary is
  // never extracted, so record singularity is untouched. If the record
  // never materializes at `src` (crash mid-flight), the waiter idles
  // harmlessly: the membership epoch change lapses the lease and wakes
  // every read blocked on the copy.
  NodeId from = source;
  if (from == kInvalidNode || !NodeAt(from).store().Contains(key)) {
    const auto it = inflight_records_.find(key);
    if (it != inflight_records_.end()) {
      from = it->second.to;
    } else {
      for (const auto& n : *nodes_) {
        if (n->store().Contains(key)) {
          from = n->id();
          break;
        }
      }
    }
  }
  if (from == kInvalidNode) return;
  const NodeId src = from;
  WaitPresence(src, std::span<const Key>(&key, 1), [this, key, src, holder,
                                                    txn]() {
    const storage::Record* rec = NodeAt(src).store().Get(key);
    if (rec == nullptr) {
      // An earlier waiter in the same wake list (a migration's presence
      // wait) re-extracted the record before this one ran. Dropping the
      // install would wedge every read waiting on the copy, so re-resolve
      // from exclusive context — the barrier runs after TrackInFlight's
      // deferred bookkeeping, so the retry sees the new destination.
      sim_->Defer([this, key, holder, txn]() {
        const std::vector<NodeId>* holders = lease_mgr_->HoldersOf(key);
        if (holders == nullptr ||
            !std::binary_search(holders->begin(), holders->end(), holder)) {
          return;  // revoked/lapsed meanwhile: waiters were already woken
        }
        if (lease_mgr_->CopyPresent(holder, key)) return;
        StartReplicaInstall(key, kInvalidNode, holder, txn);
      });
      return;
    }
    const storage::Record snapshot = *rec;
    NodeAt(src).workers().Submit(costs_->storage_op_us, [] {});
    if (src == holder) {
      // The primary is itself a holder (a lease covers every candidate so
      // the key stays locally readable wherever the primary later
      // migrates): its copy snapshots the local record, no network hop.
      lease_mgr_->ApplyCopy(holder, key, snapshot, /*install=*/true, txn);
      return;
    }
    net_->Send(src, holder, costs_->record_bytes, TrafficClass::kBulk,
               [this, key, holder, txn, snapshot]() {
                 if (NodeDead(holder)) return;
                 NodeAt(holder).workers().Submit(costs_->msg_processing_us,
                                                 [] {});
                 lease_mgr_->ApplyCopy(holder, key, snapshot,
                                       /*install=*/true, txn);
               });
  });
}

void TxnExecutor::TrackInFlight(Key key, NodeId from, NodeId to, TxnId txn,
                                const storage::Record& record) {
  // The in-flight table is written only in exclusive context; extraction
  // on a node lane defers the bookkeeping to the barrier (same virtual
  // time — the record was already physically Extract()ed by the caller).
  sim_->Defer(InlineTask([this, key, from, to, txn, record]() {
    assert(!inflight_records_.contains(key) &&
           "record extracted twice without an intervening delivery");
    inflight_records_[key] = InFlightRecord{from, to, txn, record};
  }));
}

void TxnExecutor::DeliverRecord(NodeId node, Key key,
                                const storage::Record& record) {
  if (NodeDead(node)) {
    // The destination died while the record was on the wire. Suppress the
    // delivery (the record stays in inflight_records_, so singularity
    // holds) and arm a deterministic reclaim: after reclaim_timeout_us
    // the sender re-inserts the record and notes the divergence from the
    // ownership map; if the node rejoins first, OnNodeUp flushes it.
    // Suppression mutates shared state (the in-flight table, the frozen
    // index), so it rides the barrier when the delivery ran lane-side.
    sim_->Defer([this, node, key]() {
      auto it = inflight_records_.find(key);
      if (it == inflight_records_.end()) return;
      InFlightRecord& entry = it->second;
      if (entry.suppressed) return;
      entry.suppressed = true;
      HERMES_TRACE(tracer_, obs::EventKind::kRecordSuppress, node, entry.txn,
                   key);
      // Freeze the carrying transaction: its shipment will never complete.
      const TxnId carrier = entry.txn;
      if (Active* at = Find(carrier)) Freeze(*at);
      const SimTime timeout =
          degraded_ != nullptr ? degraded_->reclaim_timeout_us : 2000;
      sim_->Schedule(timeout,
                     [this, key, carrier]() { ReclaimSuppressed(key, carrier); });
    });
    return;
  }
  if (HERMES_TRACE_ACTIVE(tracer_)) {
    // Read-only lookup: lanes may read the in-flight table (all writes are
    // barrier-serialized), and this delivery's entry was inserted at an
    // earlier barrier — the wire time is positive.
    auto carrier = inflight_records_.find(key);
    tracer_->Record(obs::EventKind::kRecordDeliver, node,
                    carrier != inflight_records_.end() ? carrier->second.txn
                                                       : kInvalidTxn,
                    key);
  }
  sim_->Defer(InlineTask([this, key]() { inflight_records_.erase(key); }));
  NodeAt(node).store().Insert(key, record);
  per_node_[static_cast<size_t>(node)].presence.Wake(key);
}

void TxnExecutor::ReclaimSuppressed(Key key, TxnId carrier) {
  auto rit = inflight_records_.find(key);
  if (rit == inflight_records_.end()) return;  // flushed at rejoin
  const InFlightRecord e = rit->second;
  if (!e.suppressed || e.txn != carrier) return;  // re-extracted since
  if (!NodeDead(e.to)) return;  // rejoined; OnNodeUp owns the flush
  if (NodeDead(e.from)) {
    // Overlapping fault windows: the source is down too (a detector
    // suspect while the destination's crash outage is still open).
    // Handing the payload to DeliverRecord now would hit its suppress
    // branch with no in-flight entry left to park it in and the record
    // would vanish. Keep the entry suppressed and retry one timeout
    // later; whichever side comes back first resolves it (OnNodeUp
    // flushes on the destination's rejoin).
    const SimTime timeout =
        degraded_ != nullptr ? degraded_->reclaim_timeout_us : 2000;
    sim_->Schedule(timeout,
                   [this, key, carrier]() { ReclaimSuppressed(key, carrier); });
    return;
  }
  inflight_records_.erase(rit);
  displaced_[key] = e.from;
  if (ledger_ != nullptr) ledger_->RecordReclaim();
  HERMES_TRACE(tracer_, obs::EventKind::kRecordReclaim, e.from, carrier, key);
  DeliverRecord(e.from, key, e.record);
}

void TxnExecutor::EnableDegraded(const MembershipView* membership,
                                 const DegradedConfig* config,
                                 DegradedLedger* ledger,
                                 DegradedAbortHandler on_abort) {
  membership_ = membership;
  degraded_ = config;
  ledger_ = ledger;
  degraded_abort_ = std::move(on_abort);
}

void TxnExecutor::OnNodeDown(NodeId node) {
  assert(membership_ != nullptr && !membership_->alive(node) &&
         "cluster must MarkDown before notifying the executor");
  (void)node;
  // Transactions freeze lazily as their events hit the dead node; the
  // sweep below reclassifies them. One chain per outage window.
  if (watchdog_armed_) return;
  watchdog_armed_ = true;
  const SimTime deadline =
      degraded_ != nullptr ? degraded_->watchdog_deadline_us : 5000;
  sim_->Schedule(deadline, [this]() { WatchdogSweep(); });
}

void TxnExecutor::OnNodeUp(NodeId node) {
  // Flush records that were suppressed mid-flight toward the node: the
  // rebuilt (detached-in-place) store plus these deliveries equals the
  // state a fault-free replay produces. Reclaim timers still pending
  // find their entry gone and no-op. std::map keeps the order total.
  std::vector<Key> flush;
  for (const auto& [key, e] : inflight_records_) {
    if (e.suppressed && e.to == node) flush.push_back(key);
  }
  for (Key k : flush) {
    auto it = inflight_records_.find(k);
    assert(it != inflight_records_.end());
    const InFlightRecord e = it->second;
    inflight_records_.erase(it);
    DeliverRecord(e.to, k, e.record);
  }
  // Then re-drive the machines the node's dead gates stalled. A stalled
  // participant may carry a planned migration whose ownership change is
  // already visible to routing — until the resumed send phase ships the
  // record, every toucher routed to the new owner presence-waits on it.
  // The watchdog cannot clean these up: the master may have committed
  // and acknowledged without waiting on a pure-migration participant,
  // and acknowledged transactions are never UNDO-aborted.
  ResumeStalled(node);
}

void TxnExecutor::WatchdogSweep() {
  // frozen_ids_ is a sorted index maintained by Freeze(): iterating it
  // instead of the salted actives_ map keeps the abort order total.
  const std::vector<TxnId> doomed(frozen_ids_.begin(), frozen_ids_.end());
  for (TxnId id : doomed) {
    Active* a = Find(id);
    if (a == nullptr || a->acked) continue;
    AbortActive(*a);
  }
  if (membership_ != nullptr && membership_->any_down()) {
    const SimTime period =
        degraded_ != nullptr ? degraded_->watchdog_period_us : 5000;
    sim_->Schedule(period, [this]() { WatchdogSweep(); });
  } else {
    // One final sweep always runs after rejoin (this one), catching
    // transactions frozen between the last in-outage sweep and MarkUp.
    watchdog_armed_ = false;
  }
}

void TxnExecutor::AbortActive(Active& a) {
  const TxnId id = a.plan.txn.id;
  assert(!a.acked && "watchdog must not abort an acknowledged transaction");
  // No-stall degraded mode is scoped to single-master plans without
  // return shipments (the Hermes router); multi-master baselines use the
  // stalling crash model instead.
  assert(a.plan.on_commit_returns.empty() &&
         "watchdog abort with return shipments is out of scope");
  HERMES_TRACE(tracer_, obs::EventKind::kWatchdogAbort, a.plan.masters[0], id,
               a.plan.accesses.empty() ? kNoKey : a.plan.accesses[0].key,
               a.plan.accesses.size());
  // Classify every planned migration that did not complete. The router
  // updated the ownership map at routing time, so a record that never
  // moved now sits where ownership no longer points.
  std::vector<Key> stranded;
  for (const Access& acc : a.plan.accesses) {
    if (acc.new_owner == kInvalidNode || acc.new_owner == acc.owner) continue;
    const Key k = acc.key;
    if (inflight_records_.contains(k)) continue;  // delivery/reclaim owns it
    if (NodeAt(acc.new_owner).store().Contains(k)) continue;  // landed
    if (!NodeAt(acc.owner).store().Contains(k)) continue;     // moved since
    const bool src_alive = !NodeDead(acc.owner);
    const bool dst_alive = !NodeDead(acc.new_owner);
    if (src_alive && dst_alive) {
      // Both ends alive (the transaction froze elsewhere): the move MUST
      // happen now — later transactions are already routed to new_owner.
      ReshipRecord(k, acc.owner, acc.new_owner);
    } else if (!src_alive) {
      // Record locked inside the dead store: stranded. Touchers are
      // blocked by the cluster until rejoin reconciliation reships it.
      stranded.push_back(k);
      displaced_[k] = acc.owner;
    } else {
      // Destination dead, source alive: ownership points at the dead
      // node, so touchers are blocked anyway; note the divergence for
      // rejoin reconciliation.
      displaced_[k] = acc.owner;
    }
  }
  SortUnique(&stranded);
  // A stranded key breaks the record's custody chain: the rejoin reship
  // jumps the record to its final ownership position, so every already-
  // dispatched transaction expecting it at an intermediate live waypoint
  // would wait forever — and, worse, could commit out of serial order if
  // a later migration happens to revisit its node. Freeze those touchers
  // (in id order) so the sweep UNDO-aborts and records them; replay flips
  // them to §4.2 user-aborts at the same log position, where their writes
  // fold and roll back in serial order. Touchers at dead waypoints are
  // already frozen by the dead-node gates; acknowledged touchers already
  // committed before the strand (the record cannot be both stranded and
  // present at their master).
  if (!stranded.empty()) {
    std::vector<TxnId> dependents;
    // detlint:allow(unordered-iter) id collection, sorted below
    for (const auto& [oid, other] : actives_) {
      if (oid == id || other->acked || other->frozen) continue;
      for (const Access& oacc : other->plan.accesses) {
        if (std::binary_search(stranded.begin(), stranded.end(), oacc.key)) {
          dependents.push_back(oid);
          break;
        }
      }
    }
    std::sort(dependents.begin(), dependents.end());
    for (TxnId d : dependents) Freeze(*Find(d));
  }
  // Release locks (granted or queued) at every involved node; grants are
  // processed only after the transaction is gone.
  std::vector<std::pair<NodeId, std::vector<TxnId>>> grants;
  for (auto& [node, state] : a.nodes) {
    (void)state;
    Borrowed<TxnId> g(NodeAt(node).grant_scratch());
    NodeAt(node).locks().Release(id, g.get());
    if (!g->empty()) grants.emplace_back(node, *g);
  }
  aborted_.Add();
  if (ledger_ != nullptr) ledger_->RecordWatchdogAbort();
  TxnRequest txn = a.plan.txn;
  CommitCallback cb = std::move(a.on_commit);
  RetireActive(a);
  for (auto& [node, g] : grants) ProcessGrants(node, g);
  if (degraded_abort_) {
    degraded_abort_(std::move(txn), std::move(cb), std::move(stranded));
  }
}

void TxnExecutor::ReshipRecord(Key key, NodeId from, NodeId to) {
  auto rec = NodeAt(from).store().Extract(key);
  assert(rec.has_value() && "reshipping a record that is not present");
  HERMES_TRACE(tracer_, obs::EventKind::kRecordReship, from, kInvalidTxn, key,
               static_cast<uint32_t>(to));
  TrackInFlight(key, from, to, kInvalidTxn, *rec);
  if (ledger_ != nullptr) ledger_->RecordReship();
  NodeAt(from).workers().Submit(costs_->storage_op_us, [] {});
  net_->Send(from, to, costs_->record_bytes, TrafficClass::kBulk,
             [this, key, to, record = *rec]() {
               if (!NodeDead(to)) {
                 NodeAt(to).workers().Submit(
                     costs_->storage_op_us + costs_->msg_processing_us, [] {});
               }
               DeliverRecord(to, key, record);
             });
}

}  // namespace hermes::engine
