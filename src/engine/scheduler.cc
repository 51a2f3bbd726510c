#include "engine/scheduler.h"

#include <algorithm>
#include <utility>

namespace hermes::engine {

Scheduler::Scheduler(sim::Simulator* sim, routing::Router* router,
                     TxnExecutor* executor, storage::CommandLog* command_log,
                     const ClusterConfig* config, CallbackResolver resolver,
                     DecisionDigest* digest, DecisionDigest* placement_digest)
    : sim_(sim),
      router_(router),
      executor_(executor),
      command_log_(command_log),
      config_(config),
      resolver_(std::move(resolver)),
      digest_(digest),
      placement_digest_(placement_digest) {}

namespace {

/// Folds one routed transaction's placement decisions into the digest:
/// the transaction identity, each master, and each access's (key, owner,
/// migration target, lock mode, shipping) tuple.
void MixPlacement(DecisionDigest& digest, const routing::RoutedTxn& rt) {
  digest.Mix(rt.txn.id);
  for (NodeId m : rt.masters) {
    digest.Mix(static_cast<uint64_t>(static_cast<uint32_t>(m)) + 1);
  }
  for (const routing::Access& a : rt.accesses) {
    digest.Mix(a.key);
    digest.Mix((static_cast<uint64_t>(static_cast<uint32_t>(a.owner)) << 32) |
               static_cast<uint32_t>(a.new_owner));
    // replica_read occupies bit 2, so plans without leases (every access
    // false) fold to exactly the pre-replication digest values.
    digest.Mix((static_cast<uint64_t>(a.replica_read) << 2) |
               (static_cast<uint64_t>(a.is_write) << 1) |
               static_cast<uint64_t>(a.ship_to_master));
  }
  for (const routing::ReturnShipment& s : rt.on_commit_returns) {
    digest.Mix(s.key);
    digest.Mix((static_cast<uint64_t>(static_cast<uint32_t>(s.from)) << 32) |
               static_cast<uint32_t>(s.to));
  }
  for (const routing::ReplicaOp& op : rt.replica_ops) {
    digest.Mix(op.key);
    digest.Mix((static_cast<uint64_t>(static_cast<uint32_t>(op.node)) << 32) |
               static_cast<uint32_t>(op.source));
    digest.Mix(static_cast<uint64_t>(op.kind) + 1);
  }
}

}  // namespace

void Scheduler::OnBatch(Batch&& batch) {
  if (batch.txns.empty()) return;
  Process(std::move(batch), /*log=*/true);
}

void Scheduler::RouteParked(BatchId release_id,
                            std::vector<TxnRequest>&& txns) {
  if (txns.empty()) return;
  Batch batch;
  batch.id = release_id;
  batch.sequenced_at = sim_->Now();
  batch.txns = std::move(txns);
  Process(std::move(batch), /*log=*/false);
}

void Scheduler::Process(Batch&& batch, bool log) {
  if (log && config_->enable_command_log) command_log_->Append(batch);
  if (log) batches_routed_.Add();

  // Classification happens after logging: the log keeps the original
  // batch, the filter is a deterministic function of (batch contents,
  // membership schedule), so replay refilters identically.
  if (filter_) filter_(batch.id, &batch.txns);
  if (batch.txns.empty()) return;

  // The routing algorithm runs now (its decisions are a pure function of
  // the router state at this point in the total order); its CPU cost plus
  // command logging delays when the executors see the plan.
  routing::RoutePlan plan = router_->RouteBatch(batch);
  if (digest_ != nullptr) {
    for (const routing::RoutedTxn& rt : plan.txns) MixPlacement(*digest_, rt);
  }
  if (placement_digest_ != nullptr) {
    for (const routing::RoutedTxn& rt : plan.txns) {
      MixPlacement(*placement_digest_, rt);
    }
  }
  const SimTime log_cost =
      log && config_->enable_command_log
          ? config_->costs.log_entry_us * batch.txns.size()
          : 0;
  const SimTime start = std::max(sim_->Now(), busy_until_);
  const SimTime dispatch_at = start + plan.routing_cost_us + log_cost;
  busy_until_ = dispatch_at;
  HERMES_TRACE_SPAN(tracer_, obs::EventKind::kBatchRouted, kInvalidNode,
                    batch.id, static_cast<Key>(-1), start,
                    dispatch_at - start, batch.txns.size());

  sim_->ScheduleAt(dispatch_at, [this, plan = std::move(plan)]() mutable {
    // The plan is dead after this one-shot event: each routed txn moves
    // into its executor state once the observer has seen it.
    for (routing::RoutedTxn& rt : plan.txns) {
      if (observer_) observer_(rt);
      TxnExecutor::CommitCallback cb = resolver_(rt.txn);
      executor_->Dispatch(std::move(rt), std::move(cb));
    }
  });
}

}  // namespace hermes::engine
