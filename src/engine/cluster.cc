#include "engine/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/env.h"
#include "common/rng.h"
#include "obs/export.h"
#include "routing/calvin_router.h"
#include "routing/gstore_router.h"
#include "routing/leap_router.h"
#include "routing/tpart_router.h"

namespace hermes::engine {
namespace {

std::unique_ptr<routing::Router> MakeRouter(
    RouterKind kind, partition::OwnershipMap* ownership,
    const ClusterConfig& config) {
  switch (kind) {
    case RouterKind::kCalvin:
      return std::make_unique<routing::CalvinRouter>(ownership, &config.costs,
                                                     config.num_nodes);
    case RouterKind::kGStore:
      return std::make_unique<routing::GStoreRouter>(ownership, &config.costs,
                                                     config.num_nodes);
    case RouterKind::kLeap:
      return std::make_unique<routing::LeapRouter>(ownership, &config.costs,
                                                   config.num_nodes);
    case RouterKind::kTPart:
      return std::make_unique<routing::TPartRouter>(
          ownership, &config.costs, config.num_nodes, config.hermes.alpha);
    case RouterKind::kHermes:
      return std::make_unique<core::HermesRouter>(ownership, &config.costs,
                                                  config.num_nodes,
                                                  config.hermes);
  }
  return nullptr;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config, RouterKind kind,
                 std::unique_ptr<partition::PartitionMap> initial_partitioning)
    : config_(config),
      kind_(kind),
      metrics_(SecToSim(1)),
      net_(&sim_, &config_.costs, config.num_nodes),
      wire_(&sim_, &net_, &config_.costs, &config_.net, config.num_nodes),
      ownership_(std::move(initial_partitioning)),
      router_(MakeRouter(kind, &ownership_, config_)),
      lease_mgr_(config.num_nodes),
      executor_(&sim_, &wire_, &metrics_, &config_.costs, &nodes_),
      sequencer_(&sim_, &config_,
                 [this](Batch&& batch) { OnBatchSequenced(std::move(batch)); }),
      scheduler_(&sim_, router_.get(), &executor_, &command_log_, &config_,
                 [this](const TxnRequest& txn) { return ResolveCallback(txn); },
                 &digest_, &placement_digest_) {
  // Parallel simulation (DESIGN.md §5 "Parallel simulation"): one event
  // lane per node, executed by config.sim.threads real threads under an
  // epoch barrier. threads == 0 (the default) runs the identical epoch
  // schedule sequentially and is the oracle mode; HERMES_SIM_THREADS
  // overrides it so scripts can sweep thread counts without config edits.
  int sim_threads = config_.sim.threads;
  if (sim_threads == 0) {
    sim_threads = EnvReadInt("HERMES_SIM_THREADS", 0);
  }
  sim_.ConfigureLanes(config_.num_nodes, sim_threads);
  nodes_.reserve(config_.num_nodes);
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(i, &sim_, config_.workers_per_node));
  }
  executor_.EnsureNodes(config_.num_nodes);
  sim_.set_decision_digest(&digest_);
  if (kind_ == RouterKind::kHermes) {
    static_cast<core::HermesRouter*>(router_.get())
        ->mutable_fusion_table()
        .set_digest(&digest_);
  }
  // Degraded-mode wiring. Inert while every node is alive: the candidate
  // set degenerates to active_nodes_, the batch filter takes its fast
  // path, and no executor gate fires — fault-free digests are unchanged.
  router_->set_membership(&membership_);
  scheduler_.set_batch_filter(
      [this](BatchId id, std::vector<TxnRequest>* txns) {
        ClassifyBatch(id, txns);
      });
  executor_.EnableDegraded(
      &membership_, &config_.degraded, &degraded_ledger_,
      [this](TxnRequest txn, TxnExecutor::CommitCallback cb,
             std::vector<Key> stranded) {
        OnWatchdogAbort(std::move(txn), std::move(cb), std::move(stranded));
      });
  // Observability wiring: the tracer is passive (components only write
  // into it), timestamps come from the virtual clock, and the env vars
  // keep the historical UX — HERMES_TRACE=1 records everything,
  // HERMES_TRACE_KEY=<key> mirrors one key's events to stderr.
  // Rings are pre-sized so lane-side Record() calls never grow the ring
  // vector; the clock closure reads the lane-aware virtual clock.
  tracer_.Configure(config_.obs.trace_ring_capacity,
                    static_cast<size_t>(config_.num_nodes));
  tracer_.set_clock([this] { return sim_.Now(); });
  if (config_.obs.trace_enabled) tracer_.set_enabled(true);
  if (EnvReadBool("HERMES_TRACE")) tracer_.set_enabled(true);
  if (const char* env = EnvRead("HERMES_TRACE_KEY")) {
    tracer_.set_mirror_key(std::strtoull(env, nullptr, 10));
  }
  executor_.set_tracer(&tracer_);
  scheduler_.set_tracer(&tracer_);
  if (kind_ == RouterKind::kHermes) {
    static_cast<core::HermesRouter*>(router_.get())->set_tracer(&tracer_);
  }
  // Replica-lease wiring (DESIGN.md §5 "Replica leases"). Only the Hermes
  // router grants leases; with replication disabled the manager stays
  // empty and every hook below is a no-op.
  if (replication_enabled()) {
    static_cast<core::HermesRouter*>(router_.get())
        ->EnableReplication(&config_.replication);
    executor_.set_lease_manager(&lease_mgr_);
    lease_mgr_.set_tracer(&tracer_);
  }
  if (config_.detector.enabled) {
    detector_ = std::make_unique<FailureDetector>(this, config_.detector);
  }
  RegisterTelemetry();
}

void Cluster::RegisterTelemetry() {
  // All closures read live engine state that is itself salt-invariant, so
  // TelemetryText() is byte-identical across reruns and hash salts.
  telemetry_.RegisterCounter("hermes_txn_committed_total",
                             [this] { return executor_.committed(); });
  telemetry_.RegisterCounter("hermes_txn_aborted_total",
                             [this] { return executor_.aborted(); });
  telemetry_.RegisterCounter("hermes_batches_routed_total",
                             [this] { return scheduler_.batches_routed(); });
  telemetry_.RegisterCounter("hermes_ollp_reconnaissance_total",
                             [this] { return ollp_recons_; });
  telemetry_.RegisterCounter("hermes_ollp_retries_total",
                             [this] { return ollp_retries_; });
  telemetry_.RegisterCounter("hermes_degraded_parked_total", [this] {
    return degraded_ledger_.parked_total();
  });
  telemetry_.RegisterCounter("hermes_degraded_retries_total", [this] {
    return degraded_ledger_.retries_scheduled();
  });
  telemetry_.RegisterCounter("hermes_degraded_unavailable_total", [this] {
    return degraded_ledger_.unavailable_aborts();
  });
  telemetry_.RegisterCounter("hermes_degraded_watchdog_aborts_total", [this] {
    return degraded_ledger_.watchdog_aborts();
  });
  telemetry_.RegisterCounter("hermes_degraded_reclaims_total", [this] {
    return degraded_ledger_.reclaims();
  });
  telemetry_.RegisterCounter("hermes_degraded_reships_total", [this] {
    return degraded_ledger_.reships();
  });
  telemetry_.RegisterCounter("hermes_trace_events_total",
                             [this] { return tracer_.total_recorded(); });
  telemetry_.RegisterGauge("hermes_trace_dropped", [this] {
    return static_cast<int64_t>(tracer_.total_dropped());
  });
  telemetry_.RegisterGauge("hermes_txn_inflight", [this] {
    return static_cast<int64_t>(executor_.inflight());
  });
  telemetry_.RegisterGauge("hermes_degraded_parked", [this] {
    return static_cast<int64_t>(parked_.size());
  });
  telemetry_.RegisterGauge("hermes_membership_epoch", [this] {
    return static_cast<int64_t>(membership_.epoch());
  });
  telemetry_.RegisterGauge("hermes_net_bytes_sent_total", [this] {
    return static_cast<int64_t>(net_.total_bytes());
  });
  telemetry_.RegisterGauge("hermes_net_bytes_received_total", [this] {
    return static_cast<int64_t>(net_.total_bytes_received());
  });
  telemetry_.RegisterGauge("hermes_sim_events_executed_total", [this] {
    return static_cast<int64_t>(sim_.events_executed());
  });
  telemetry_.RegisterHistogram("hermes_txn_latency_us", [this] {
    return metrics_.latency_histogram().Snapshot();
  });
  // Partition/detector metrics exist only when the detector is enabled,
  // so the existing TelemetryText goldens are unchanged for every other
  // configuration (same gating pattern as the lease metrics below).
  if (config_.detector.enabled) {
    telemetry_.RegisterCounter("hermes_partition_cuts_total",
                               [this] { return partitions_cut_; });
    telemetry_.RegisterCounter("hermes_partition_heals_total",
                               [this] { return partitions_healed_; });
    telemetry_.RegisterCounter("hermes_partition_messages_held_total",
                               [this] { return net_.total_held(); });
    telemetry_.RegisterGauge("hermes_partition_messages_held", [this] {
      return static_cast<int64_t>(net_.messages_held());
    });
    telemetry_.RegisterCounter("hermes_detector_heartbeat_misses_total", [this] {
      return detector_->heartbeat_misses();
    });
    telemetry_.RegisterCounter("hermes_detector_suspects_total",
                               [this] { return detector_->suspects(); });
    telemetry_.RegisterCounter("hermes_detector_restores_total",
                               [this] { return detector_->restores(); });
  }
  // Wire-substrate metrics exist only when the substrate is enabled, so
  // the existing TelemetryText goldens are unchanged for every other
  // configuration (same gating pattern as the detector metrics above).
  if (config_.net.enabled) {
    telemetry_.RegisterCounter("hermes_wire_envelopes_total",
                               [this] { return wire_.envelopes_sent(); });
    telemetry_.RegisterCounter("hermes_wire_coalesced_messages_total", [this] {
      return wire_.coalesced_messages();
    });
    telemetry_.RegisterCounter("hermes_wire_fg_transmits_total", [this] {
      return wire_.transmits(TrafficClass::kForeground);
    });
    telemetry_.RegisterCounter("hermes_wire_bulk_transmits_total", [this] {
      return wire_.transmits(TrafficClass::kBulk);
    });
    telemetry_.RegisterCounter("hermes_wire_credit_stalls_total",
                               [this] { return wire_.credit_stalls(); });
    telemetry_.RegisterGauge("hermes_wire_queued", [this] {
      return static_cast<int64_t>(wire_.queued_now());
    });
    telemetry_.RegisterGauge("hermes_net_fg_bytes_sent_total", [this] {
      return static_cast<int64_t>(
          net_.class_bytes_sent(TrafficClass::kForeground));
    });
    telemetry_.RegisterGauge("hermes_net_bulk_bytes_sent_total", [this] {
      return static_cast<int64_t>(net_.class_bytes_sent(TrafficClass::kBulk));
    });
    telemetry_.RegisterHistogram("hermes_wire_fg_queue_delay_us", [this] {
      return wire_.MergedQueueDelay(TrafficClass::kForeground).Snapshot();
    });
    telemetry_.RegisterHistogram("hermes_wire_bulk_queue_delay_us", [this] {
      return wire_.MergedQueueDelay(TrafficClass::kBulk).Snapshot();
    });
  }
  if (kind_ == RouterKind::kHermes) {
    const auto* router = static_cast<const core::HermesRouter*>(router_.get());
    telemetry_.RegisterGauge("hermes_fusion_table_size", [router] {
      return static_cast<int64_t>(router->fusion_table().size());
    });
    telemetry_.RegisterCounter("hermes_router_routed_txns_total", [router] {
      return router->stats().routed_txns;
    });
    telemetry_.RegisterCounter("hermes_router_remote_reads_total", [router] {
      return router->stats().remote_reads;
    });
    telemetry_.RegisterCounter("hermes_router_migrations_total", [router] {
      return router->stats().migrations;
    });
    telemetry_.RegisterCounter("hermes_router_evictions_total", [router] {
      return router->stats().evictions;
    });
    telemetry_.RegisterCounter("hermes_router_reroutes_total", [router] {
      return router->stats().reroutes;
    });
    telemetry_.RegisterCounter("hermes_router_reorders_total", [router] {
      return router->stats().reorders;
    });
    // Lease metrics exist only when replication is on, so the existing
    // TelemetryText goldens are unchanged for every other configuration.
    if (config_.replication.enabled) {
      telemetry_.RegisterCounter("hermes_replica_reads_total", [router] {
        return router->stats().replica_reads;
      });
      telemetry_.RegisterCounter("hermes_lease_grants_total", [router] {
        return router->lease_table().stats().grants;
      });
      telemetry_.RegisterCounter("hermes_lease_revokes_total", [router] {
        return router->lease_table().stats().revokes;
      });
      telemetry_.RegisterCounter("hermes_lease_lapses_total", [router] {
        return router->lease_table().stats().lapses;
      });
      telemetry_.RegisterCounter("hermes_replica_installs_total",
                                 [this] { return lease_mgr_.installs(); });
      telemetry_.RegisterCounter("hermes_replica_updates_total",
                                 [this] { return lease_mgr_.updates(); });
      telemetry_.RegisterCounter("hermes_replica_stale_drops_total",
                                 [this] { return lease_mgr_.stale_drops(); });
      telemetry_.RegisterGauge("hermes_replica_copies", [this] {
        return static_cast<int64_t>(lease_mgr_.num_copies());
      });
      telemetry_.RegisterGauge("hermes_leases_active", [this] {
        return static_cast<int64_t>(lease_mgr_.num_leased_keys());
      });
    }
  }
}

void Cluster::Load() {
  for (Key k = 0; k < config_.num_records; ++k) {
    const NodeId owner = ownership_.Owner(k);
    assert(owner >= 0 && owner < num_nodes());
    storage::Record record;
    record.value = Mix64(k);
    nodes_[owner]->store().Insert(k, record);
  }
}

void Cluster::Submit(TxnRequest txn, TxnExecutor::CommitCallback on_commit) {
  txn.submit_time = sim_.Now();
  if (txn.requires_reconnaissance && txn.kind == TxnKind::kRegular) {
    SubmitWithReconnaissance(std::move(txn), std::move(on_commit));
    return;
  }
  SubmitSequenced(std::move(txn), std::move(on_commit));
}

void Cluster::SubmitSequenced(TxnRequest txn,
                              TxnExecutor::CommitCallback on_commit) {
  // One network hop from the client to its sequencer.
  ScheduleSequencerEntry(config_.costs.net_latency_us, std::move(txn),
                         std::move(on_commit), /*restamp=*/false);
}

void Cluster::ScheduleSequencerEntry(SimTime delay, TxnRequest txn,
                                     TxnExecutor::CommitCallback on_commit,
                                     bool restamp) {
  assert(!sim_.in_lane_context() &&
         "sequencer entries are scheduled in exclusive context only");
  const uint32_t slot = sequencer_entries_.Park(
      SequencerEntry{std::move(txn), std::move(on_commit), restamp});
  sim_.Schedule(delay, sim::InlineTask([this, slot]() {
                  EnterSequencer(slot);
                }));
}

void Cluster::EnterSequencer(uint32_t slot) {
  SequencerEntry entry = sequencer_entries_.Take(slot);
  if (entry.restamp) entry.txn.submit_time = sim_.Now();
  const TxnId id = sequencer_.next_txn_id();
  sequencer_.Submit(std::move(entry.txn));
  if (entry.cb) pending_callbacks_.Insert(id) = std::move(entry.cb);
}

void Cluster::SubmitWithReconnaissance(
    TxnRequest txn, TxnExecutor::CommitCallback on_commit) {
  // OLLP (§2.1): a low-isolation reconnaissance read against the current
  // owners of the read-set discovers the lock locations before the
  // transaction enters the total order. The probe costs one network round
  // trip plus real storage work on every probed node.
  ++ollp_recons_;
  if (ollp_rng_ == nullptr) {
    ollp_rng_ = std::make_unique<Rng>(Mix64(config_.seed ^ 0x011f0llu));
  }
  std::map<NodeId, size_t> probed;
  for (Key k : txn.read_set) ++probed[ownership_.Owner(k)];
  SimTime max_probe = 0;
  for (const auto& [node, keys] : probed) {
    const SimTime start = nodes_[node]->workers().Submit(
        config_.costs.storage_op_us * keys, [] {});
    max_probe = std::max(max_probe,
                         start + config_.costs.storage_op_us * keys -
                             sim_.Now());
  }
  const bool stale = ollp_rng_->NextDouble() < config_.ollp_stale_prob;
  const SimTime probe_done = 2 * config_.costs.net_latency_us + max_probe;
  sim_.Schedule(probe_done, [this, txn = std::move(txn),
                             cb = std::move(on_commit), stale]() mutable {
    txn.requires_reconnaissance = false;
    if (!stale) {
      SubmitSequenced(std::move(txn), std::move(cb));
      return;
    }
    // Stale prediction: the first attempt deterministically aborts (it
    // still executes and migrates per plan), then the corrected request
    // is resubmitted and its commit completes the client's call.
    ++ollp_retries_;
    TxnRequest first = txn;
    first.user_abort = true;
    SubmitSequenced(std::move(first),
                    [this, txn = std::move(txn),
                     cb = std::move(cb)](const TxnResult&) mutable {
                      SubmitSequenced(std::move(txn), std::move(cb));
                    });
  });
}

void Cluster::OnBatchSequenced(Batch&& batch) {
  // Membership transitions anchor to the next batch id so the replay
  // cursor applies them at the same point in the total order.
  next_expected_batch_ = batch.id + 1;
  HERMES_TRACE(&tracer_, obs::EventKind::kBatchSequenced, kInvalidNode,
               batch.id, static_cast<Key>(-1), batch.txns.size());
  if (batch_tap_) batch_tap_(batch);
  if (clay_) {
    for (const TxnRequest& txn : batch.txns) {
      if (txn.kind == TxnKind::kRegular) clay_->Observe(txn);
    }
  }
  scheduler_.OnBatch(std::move(batch));
}

void Cluster::InjectBatch(const Batch& batch) {
  Batch copy = batch;
  scheduler_.OnBatch(std::move(copy));
}

TxnExecutor::CommitCallback Cluster::ResolveCallback(const TxnRequest& txn) {
  auto* it = pending_callbacks_.Find(txn.id);
  if (it == nullptr) return nullptr;
  TxnExecutor::CommitCallback cb = std::move(*it);
  pending_callbacks_.Erase(txn.id);
  return cb;
}

void Cluster::SampleWindow() {
  const SimTime stamp = sim_.Now() == 0 ? 0 : sim_.Now() - 1;
  uint64_t busy = 0;
  for (auto& node : nodes_) busy += node->workers().TakeBusyDelta();
  metrics_.RecordBusy(stamp, busy);
  static_assert(sizeof(uint64_t) == 8);
  const uint64_t total = net_.total_bytes();
  metrics_.RecordNetBytes(stamp, total - sampled_net_bytes_);
  sampled_net_bytes_ = total;
  const uint64_t received = net_.total_bytes_received();
  metrics_.RecordNetBytesReceived(stamp, received - sampled_net_recv_bytes_);
  sampled_net_recv_bytes_ = received;
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    const uint64_t class_total = net_.class_bytes_sent(cls);
    metrics_.RecordNetClassBytes(stamp, cls,
                                 class_total - sampled_net_class_bytes_[c]);
    sampled_net_class_bytes_[c] = class_total;
  }
  metrics_.RecordDecisionDigest(stamp, digest_.value());
}

void Cluster::RunUntil(SimTime deadline) {
  const SimTime window = metrics_.window_us();
  while (sim_.Now() < deadline) {
    const SimTime next = std::min(deadline, ((sim_.Now() / window) + 1) * window);
    sim_.RunUntil(next);
    if (clay_) {
      const auto plan =
          clay_->MaybePlan(sim_.Now(), router_->num_active_nodes());
      if (!plan.empty()) SubmitMigrationPlan(plan, /*replace_pending=*/true);
    }
    SampleWindow();
  }
}

SimTime Cluster::Drain() {
  sim_.RunAll();
  SampleWindow();
  return sim_.Now();
}

TxnRequest Cluster::MakeChunkTxn(Key lo, Key hi, NodeId target) const {
  TxnRequest txn;
  txn.kind = TxnKind::kChunkMigration;
  txn.migration_target = target;
  txn.write_set.reserve(hi - lo + 1);
  for (Key k = lo; k <= hi; ++k) txn.write_set.push_back(k);
  return txn;
}

void Cluster::SubmitMigrationPlan(
    const std::vector<routing::ClumpMove>& moves, bool replace_pending) {
  if (replace_pending) chunk_queue_.clear();
  const uint64_t chunk = std::max<uint64_t>(config_.migration_chunk_records, 1);
  for (const routing::ClumpMove& mv : moves) {
    for (Key lo = mv.lo; lo <= mv.hi;) {
      const Key hi = std::min(mv.hi, lo + chunk - 1);
      chunk_queue_.push_back(MakeChunkTxn(lo, hi, mv.target));
      if (hi == mv.hi) break;
      lo = hi + 1;
    }
  }
  SubmitNextChunk();
}

void Cluster::SubmitNextChunk() {
  if (chunk_in_flight_ || chunk_queue_.empty()) return;
  chunk_in_flight_ = true;
  TxnRequest txn = std::move(chunk_queue_.front());
  chunk_queue_.pop_front();
  HERMES_TRACE(&tracer_, obs::EventKind::kChunkMigration,
               txn.migration_target, kInvalidTxn,
               txn.write_set.empty() ? static_cast<Key>(-1)
                                     : txn.write_set.front(),
               txn.write_set.size());
  Submit(std::move(txn), [this](const TxnResult&) {
    chunk_in_flight_ = false;
    SubmitNextChunk();
  });
}

void Cluster::EnableClay(const routing::ClayConfig& clay_config) {
  clay_config_ = clay_config;
  clay_ = std::make_unique<routing::ClayPlanner>(
      &ownership_, config_.num_records, clay_config);
}

NodeId Cluster::AddNode(const std::vector<RangeMove>& cold_plan,
                        bool migrate_cold) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  GrowPhysicalNodes(id + 1);

  TxnRequest marker;
  marker.kind = TxnKind::kAddNode;
  marker.migration_target = id;
  marker.range_moves = cold_plan;
  Submit(std::move(marker));

  if (migrate_cold) {
    std::vector<routing::ClumpMove> moves;
    moves.reserve(cold_plan.size());
    for (const RangeMove& mv : cold_plan) {
      moves.push_back(routing::ClumpMove{mv.lo, mv.hi, mv.target});
    }
    SubmitMigrationPlan(moves);
  }
  return id;
}

void Cluster::GrowPhysicalNodes(int count) {
  while (num_nodes() < count) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    sim_.EnsureLanes(id + 1);
    tracer_.EnsureNode(id);
    lease_mgr_.EnsureNode(id);
    nodes_.push_back(
        std::make_unique<Node>(id, &sim_, config_.workers_per_node));
  }
  net_.EnsureCapacity(num_nodes());
  wire_.GrowLinks(num_nodes());
  executor_.EnsureNodes(num_nodes());
}

void Cluster::RemoveNode(NodeId node, const std::vector<RangeMove>& cold_plan,
                         bool migrate_cold) {
  TxnRequest marker;
  marker.kind = TxnKind::kRemoveNode;
  marker.migration_target = node;
  marker.range_moves = cold_plan;
  Submit(std::move(marker));

  if (migrate_cold) {
    std::vector<routing::ClumpMove> moves;
    moves.reserve(cold_plan.size());
    for (const RangeMove& mv : cold_plan) {
      moves.push_back(routing::ClumpMove{mv.lo, mv.hi, mv.target});
    }
    SubmitMigrationPlan(moves);
  }
}

storage::Checkpoint Cluster::TakeCheckpoint() const {
  // Quiescence: nothing executing and no event in flight. Requests pending
  // at a paused sequencer are legitimately excluded — they have not entered
  // the total order yet, so batches sequenced after this checkpoint cover
  // them (the fault injector checkpoints mid-run with intake paused).
  assert(executor_.inflight() == 0 &&
         (sequencer_.pending() == 0 || sequencer_.paused()) && sim_.idle() &&
         "checkpoints must be taken at quiescence");
  storage::Checkpoint cp;
  cp.next_batch = sequencer_.next_batch_id();
  cp.next_txn_id = sequencer_.next_txn_id();
  cp.stores.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    cp.stores.push_back(node->store().records());
  }
  cp.ownership_overlay = ownership_.key_overlay();
  cp.intervals = ownership_.ExportIntervals();
  cp.active_nodes = router_->active_nodes();
  if (kind_ == RouterKind::kHermes) {
    cp.fusion_order =
        static_cast<const core::HermesRouter*>(router_.get())
            ->fusion_table()
            .ExportOrder();
  }
  return cp;
}

void Cluster::RestoreFromCheckpoint(const storage::Checkpoint& checkpoint) {
  GrowPhysicalNodes(static_cast<int>(checkpoint.stores.size()));
  // Leases are soft state: checkpoints capture only primaries, so a
  // restore starts with no copies and no lease bookkeeping — the router
  // re-grants from fresh counters during replay, exactly as the live run
  // did from its own start.
  if (replication_enabled()) {
    lease_mgr_.LapseAll();
    static_cast<core::HermesRouter*>(router_.get())->ResetReplication();
  }
  for (size_t i = 0; i < checkpoint.stores.size(); ++i) {
    for (const auto& [key, record] : checkpoint.stores[i]) {
      nodes_[i]->store().Insert(key, record);
    }
  }
  ownership_.RestoreKeyOverlay(checkpoint.ownership_overlay);
  ownership_.RestoreIntervals(checkpoint.intervals);
  router_->RestoreActiveNodes(checkpoint.active_nodes);
  if (kind_ == RouterKind::kHermes) {
    static_cast<core::HermesRouter*>(router_.get())
        ->mutable_fusion_table()
        .Restore(checkpoint.ownership_overlay, checkpoint.fusion_order);
  }
  sequencer_.RestoreCounters(checkpoint.next_batch, checkpoint.next_txn_id);
}

void Cluster::ReplayBatches(const std::vector<Batch>& batches) {
  replaying_ = true;
  for (const Batch& batch : batches) {
    // Degraded schedule: membership transitions and stranded sets recorded
    // against this point in the total order apply before the batch routes.
    ApplyScheduledEventsBefore(batch.id);
    // Physical nodes referenced by provisioning markers must exist before
    // the marker is routed.
    for (const TxnRequest& txn : batch.txns) {
      if (txn.kind == TxnKind::kAddNode &&
          txn.migration_target >= num_nodes()) {
        GrowPhysicalNodes(txn.migration_target + 1);
      }
    }
    Batch copy = batch;
    scheduler_.OnBatch(std::move(copy));
    sim_.RunAll();
  }
  // Trailing events (e.g. the final rejoin, which releases the parked
  // queue) land after the last logged batch.
  ApplyScheduledEventsBefore(~BatchId{0});
  sim_.RunAll();
  replaying_ = false;
}

uint64_t Cluster::StateChecksum() const {
  uint64_t sum = 0;
  for (size_t node = 0; node < nodes_.size(); ++node) {
    // detlint:allow(unordered-iter) order-insensitive XOR fold, not a decision
    for (const auto& [key, r] : nodes_[node]->store().records()) {
      sum ^= Mix64(Mix64(key) ^ r.value ^
                   (static_cast<uint64_t>(r.version) << 32) ^
                   Mix64(node + 1));
    }
  }
  return sum;
}

uint64_t Cluster::ContentChecksum() const {
  uint64_t sum = 0;
  for (const auto& node : nodes_) sum ^= node->store().Checksum();
  return sum;
}

int Cluster::total_workers() const {
  int total = 0;
  for (const auto& node : nodes_) total += node->workers().num_workers();
  return total;
}

const core::FusionTable* Cluster::fusion_table() const {
  if (kind_ != RouterKind::kHermes) return nullptr;
  return &static_cast<const core::HermesRouter*>(router_.get())
              ->fusion_table();
}

// --- Degraded mode (no-stall crash handling). ---

void Cluster::CrashNoStall(NodeId node) {
  assert(membership_.alive(node) && "node is already down");
  assert(!replaying_ && "replay applies the recorded schedule instead");
  membership_.MarkDown(node);
  degraded_schedule_.events.push_back(
      MembershipEvent{next_expected_batch_, node, /*alive=*/false,
                      membership_.epoch(), degraded_seq_++});
  HERMES_TRACE(&tracer_, obs::EventKind::kCrash, node, kInvalidTxn,
               static_cast<Key>(-1), membership_.epoch());
  // Every replica lease lapses at the membership transition: copies at the
  // dead node are gone, and surviving holders must not serve reads the
  // router no longer routes to them. Waking copy-waiters is safe — a
  // lapsed replica read degrades to a plain local read (reads are
  // cost-model only). The router's LeaseTable lapses itself at the next
  // batch boundary off the epoch change; both are pure functions of the
  // membership schedule.
  lease_mgr_.LapseAll();
  executor_.OnNodeDown(node);
}

void Cluster::RejoinNoStall(NodeId node) {
  assert(!membership_.alive(node) && "node is not down");
  assert(!replaying_ && "replay applies the recorded schedule instead");
  membership_.MarkUp(node);
  degraded_schedule_.events.push_back(
      MembershipEvent{next_expected_batch_, node, /*alive=*/true,
                      membership_.epoch(), degraded_seq_++});
  HERMES_TRACE(&tracer_, obs::EventKind::kRejoin, node, kInvalidTxn,
               static_cast<Key>(-1), membership_.epoch());
  // Leases lapse again (epoch changed): stale copies granted under the
  // degraded membership must not survive into the healed cluster. The
  // router re-grants from fresh counters at the next batch boundary.
  lease_mgr_.LapseAll();
  // Order matters: suppressed shipments flush first (their records land
  // where ownership points), then divergent records reship, and only then
  // does the parked queue route — so a released chunk migration finds
  // every record where the ownership map says it is (or inbound, which a
  // presence wait covers).
  executor_.OnNodeUp(node);
  ReconcileDisplaced();
  stranded_.clear();
  ReleaseParked();
}

// --- Partitions & failure detection (DESIGN.md §5). ---

void Cluster::PartitionCut(NodeId node, bool cut_inbound, bool cut_outbound) {
  assert(node >= 0 && node < num_nodes());
  assert((cut_inbound || cut_outbound) && "a cut must sever something");
  assert(!replaying_ && "replay applies the recorded schedule instead");
  for (NodeId peer = 0; peer < num_nodes(); ++peer) {
    if (peer == node) continue;
    // Cut the fabric first, then drain the wire substrate's transmit
    // queue (and any open envelope) into the link's holding pen: the
    // drained sends see the live cut and park in FIFO order, so a queue
    // that was non-empty at cut time survives the partition intact.
    if (cut_inbound) {
      net_.CutLink(peer, node);
      wire_.OnLinkCut(peer, node);
    }
    if (cut_outbound) {
      net_.CutLink(node, peer);
      wire_.OnLinkCut(node, peer);
    }
  }
  ++partitions_cut_;
  HERMES_TRACE(&tracer_, obs::EventKind::kPartitionCut, node, kInvalidTxn,
               static_cast<Key>(-1),
               static_cast<uint64_t>((cut_inbound ? 1 : 0) |
                                     (cut_outbound ? 2 : 0)));
  // The cut itself changes nothing above the network layer; the detector
  // notices the silence and degrades membership after its miss threshold.
  ArmDetector(0);
}

void Cluster::PartitionHeal(NodeId node) {
  assert(node >= 0 && node < num_nodes());
  assert(!replaying_ && "replay applies the recorded schedule instead");
  const uint64_t held_before = net_.messages_held();
  for (NodeId peer = 0; peer < num_nodes(); ++peer) {
    if (peer == node) continue;
    net_.HealLink(peer, node);
    net_.HealLink(node, peer);
  }
  ++partitions_healed_;
  HERMES_TRACE(&tracer_, obs::EventKind::kPartitionHeal, node, kInvalidTxn,
               static_cast<Key>(-1), held_before - net_.messages_held());
  // Membership restoration is the detector's job (confirm hysteresis),
  // not the heal's: the cut and the suspicion are separate facts.
}

void Cluster::ArmDetector(SimTime active_until) {
  if (detector_) detector_->Arm(active_until);
}

void Cluster::SetReplayMembershipSchedule(const DegradedSchedule& schedule) {
  assert(degraded_schedule_.empty() && "schedule already installed");
  degraded_schedule_ = schedule;
  for (const AbortRecord& r : schedule.aborts) {
    replay_abort_ids_.insert(r.txn);
  }
}

bool Cluster::KeyBlocked(Key key) const {
  return !membership_.alive(ownership_.Owner(key)) ||
         (!stranded_.empty() && stranded_.contains(key));
}

// First blocked key of `txn` (read set, then write set) for trace events;
// Key(-1) when the block is membership-wide rather than key-specific.
Key Cluster::BlockingKey(const TxnRequest& txn) const {
  for (Key k : txn.read_set) {
    if (KeyBlocked(k)) return k;
  }
  for (Key k : txn.write_set) {
    if (KeyBlocked(k)) return k;
  }
  return static_cast<Key>(-1);
}

bool Cluster::TxnBlocked(const TxnRequest& txn) const {
  switch (txn.kind) {
    case TxnKind::kRegular:
      for (Key k : txn.read_set) {
        if (KeyBlocked(k)) return true;
      }
      for (Key k : txn.write_set) {
        if (KeyBlocked(k)) return true;
      }
      return false;
    case TxnKind::kChunkMigration:
      if (!membership_.alive(txn.migration_target)) return true;
      for (Key k : txn.write_set) {
        if (KeyBlocked(k)) return true;
      }
      return false;
    case TxnKind::kRemoveNode:
      // Decommissioning during an outage would re-home ranges with a
      // stale view; park it until the membership is whole again.
      return membership_.any_down();
    case TxnKind::kAddNode:
      return false;
  }
  return false;
}

void Cluster::ClassifyBatch(BatchId /*id*/, std::vector<TxnRequest>* txns) {
  const bool flip_aborts = !replay_abort_ids_.empty();
  if (!flip_aborts && !membership_.any_down() && stranded_.empty()) return;

  std::vector<TxnRequest> keep;
  keep.reserve(txns->size());
  for (TxnRequest& txn : *txns) {
    // Replay of a recorded watchdog abort: the transaction was dispatched
    // live (its batch preceded the crash), so here — where the membership
    // event has not applied yet — it routes identically and executes as a
    // §4.2 user abort: writes roll back, planned migrations still happen.
    // MixPlacement does not digest user_abort, so placements align.
    if (flip_aborts && replay_abort_ids_.contains(txn.id)) {
      txn.user_abort = true;
    }
    if (!TxnBlocked(txn)) {
      keep.push_back(std::move(txn));
      continue;
    }
    const uint32_t epoch = membership_.epoch();
    if (txn.kind == TxnKind::kRegular) {
      if (replaying_) continue;  // its retry appears later in the log
      TxnExecutor::CommitCallback cb = ResolveCallback(txn);
      ScheduleRetryOrFail(std::move(txn), std::move(cb), epoch);
    } else {
      // Chunk migrations and provisioning markers park: they are not
      // client-visible and must run exactly once, after the outage.
      HERMES_TRACE(&tracer_, obs::EventKind::kPark, kInvalidNode, txn.id,
                   BlockingKey(txn), epoch);
      degraded_ledger_.RecordPark(txn.id, epoch);
      parked_.push_back(ParkedTxn{std::move(txn), epoch});
    }
  }
  *txns = std::move(keep);
}

SimTime Cluster::RetryDelay(TxnId retry_of, uint32_t attempt) const {
  const DegradedConfig& d = config_.degraded;
  const SimTime backoff =
      std::min(d.retry_backoff_base_us << attempt, d.retry_backoff_cap_us);
  const SimTime jitter =
      d.retry_jitter_us == 0
          ? 0
          : Mix64(retry_of ^ (0x9e3779b97f4a7c15ULL * (attempt + 1))) %
                (d.retry_jitter_us + 1);
  return backoff + jitter;
}

void Cluster::ScheduleRetryOrFail(TxnRequest txn,
                                  TxnExecutor::CommitCallback cb,
                                  uint32_t epoch) {
  const TxnId blocked_id = txn.id;
  const TxnId retry_of =
      txn.retry_of != kInvalidTxn ? txn.retry_of : txn.id;
  if (txn.attempt >= config_.degraded.max_retries) {
    // Attempts exhausted: a deterministic UNAVAILABLE abort reaches the
    // client one network hop from now. The transaction performed no
    // writes (it never dispatched, or was UNDO-aborted un-acked), so
    // dropping it loses nothing.
    HERMES_TRACE(&tracer_, obs::EventKind::kUnavailable, kInvalidNode,
                 blocked_id, BlockingKey(txn), txn.attempt);
    degraded_ledger_.RecordRetry(
        RetryRecord{blocked_id, retry_of, txn.attempt, epoch, 0, true});
    TxnResult result;
    result.id = blocked_id;
    result.aborted = true;
    sim_.Schedule(config_.costs.net_latency_us,
                  [cb = std::move(cb), result]() {
                    if (cb) cb(result);
                  });
    return;
  }
  const SimTime delay = RetryDelay(retry_of, txn.attempt);
  HERMES_TRACE_SPAN(&tracer_, obs::EventKind::kRetry, kInvalidNode,
                    blocked_id, BlockingKey(txn), sim_.Now(), delay,
                    txn.attempt);
  degraded_ledger_.RecordRetry(
      RetryRecord{blocked_id, retry_of, txn.attempt, epoch, delay, false});
  txn.attempt += 1;
  txn.retry_of = retry_of;
  ScheduleSequencerEntry(delay, std::move(txn), std::move(cb),
                         /*restamp=*/true);
}

void Cluster::OnWatchdogAbort(TxnRequest txn, TxnExecutor::CommitCallback cb,
                              std::vector<Key> stranded) {
  assert(!replaying_ &&
         "replay drains each batch fully, so nothing freezes mid-flight");
  AbortRecord rec;
  rec.from_batch = next_expected_batch_;
  rec.txn = txn.id;
  rec.stranded = stranded;
  rec.seq = degraded_seq_++;
  degraded_schedule_.aborts.push_back(std::move(rec));
  if (HERMES_TRACE_ACTIVE(&tracer_)) {
    for (Key k : stranded) {
      tracer_.Record(obs::EventKind::kStranded, kInvalidNode, txn.id, k);
    }
  }
  for (Key k : stranded) stranded_.insert(k);
  const uint32_t epoch = membership_.epoch();
  if (txn.kind == TxnKind::kRegular) {
    ScheduleRetryOrFail(std::move(txn), std::move(cb), epoch);
    return;
  }
  // An aborted chunk migration reports failure so the chunk chain keeps
  // moving; the re-cut happens naturally — the next chunk parks at
  // classification, and records this chunk left behind are reshipped at
  // rejoin reconciliation.
  TxnResult result;
  result.id = txn.id;
  result.aborted = true;
  sim_.Schedule(config_.costs.net_latency_us,
                [cb = std::move(cb), result]() {
                  if (cb) cb(result);
                });
}

void Cluster::ReconcileDisplaced() {
  const std::map<Key, NodeId> displaced = executor_.TakeDisplaced();
  for (const auto& [key, loc] : displaced) {
    const NodeId owner = ownership_.Owner(key);
    if (owner == loc) continue;  // ownership drifted back to the record
    executor_.ReshipRecord(key, loc, owner);
  }
}

void Cluster::ReleaseParked() {
  if (parked_.empty()) return;
  std::vector<TxnRequest> txns;
  txns.reserve(parked_.size());
  for (ParkedTxn& p : parked_) txns.push_back(std::move(p.txn));
  parked_.clear();
  scheduler_.RouteParked(next_expected_batch_, std::move(txns));
}

void Cluster::ApplyScheduledEventsBefore(BatchId id) {
  const auto& events = degraded_schedule_.events;
  const auto& aborts = degraded_schedule_.aborts;
  while (true) {
    const bool abort_ready =
        replay_abort_cursor_ < aborts.size() &&
        aborts[replay_abort_cursor_].from_batch <= id;
    const bool event_ready =
        replay_event_cursor_ < events.size() &&
        events[replay_event_cursor_].from_batch <= id;
    if (!abort_ready && !event_ready) return;
    // Both streams carry a shared seq stamp: several aborts and events can
    // anchor to the same from_batch (a watchdog sweep between detector
    // flaps), and whether an abort strands its keys before or after a
    // rejoin clears the set is observable — merge in recorded order.
    const uint64_t ab = abort_ready ? aborts[replay_abort_cursor_].seq
                                    : ~uint64_t{0};
    const uint64_t ev = event_ready ? events[replay_event_cursor_].seq
                                    : ~uint64_t{0};
    if (abort_ready && ab <= ev) {
      // Stranded keys block the same touchers the live run blocked. (The
      // flipped abort itself already executed — its migrations landed —
      // but classification must match the live transcript, and the
      // rejoin event below clears the set just as the live rejoin did.)
      for (Key k : aborts[replay_abort_cursor_].stranded) {
        stranded_.insert(k);
      }
      ++replay_abort_cursor_;
      continue;
    }
    const MembershipEvent& e = events[replay_event_cursor_];
    ++replay_event_cursor_;
    if (!e.alive) {
      membership_.MarkDown(e.node);
      // Replay mirrors the live CrashNoStall: leases lapse at the same
      // point in the total order, so the router's grant stream — and with
      // it placement_digest — matches the live run.
      lease_mgr_.LapseAll();
    } else {
      membership_.MarkUp(e.node);
      lease_mgr_.LapseAll();
      // Mirror the live rejoin path: the recorded schedule flips the
      // shared membership view, so replay's executor runs the same
      // dead-node gates as live — its suppressed shipments must flush and
      // its stalled machines must resume here too, or transactions that
      // froze during replay (the flip timing differs from live, so the
      // frozen sets differ) would wedge instead of converging to the
      // same final state. Watchdog aborts are NOT re-derived: the
      // recorded abort stream already replays them as §4.2 user-aborts.
      executor_.OnNodeUp(e.node);
      ReconcileDisplaced();
      stranded_.clear();
      ReleaseParked();
    }
  }
}

std::string Cluster::DegradedDebugString() const {
  std::string out = membership_.DebugString();
  out += "\n";
  out += degraded_ledger_.DebugString();
  char buf[128];
  for (const ParkedTxn& p : parked_) {
    std::snprintf(buf, sizeof(buf),
                  "parked txn=%llu kind=%d attempt=%u epoch=%u\n",
                  static_cast<unsigned long long>(p.txn.id),
                  static_cast<int>(p.txn.kind), p.txn.attempt, p.epoch);
    out += buf;
  }
  for (Key k : stranded_) {
    std::snprintf(buf, sizeof(buf), "stranded key=%llu\n",
                  static_cast<unsigned long long>(k));
    out += buf;
  }
  if (replication_enabled()) out += lease_mgr_.DebugString();
  if (net_.any_cut() || net_.total_held() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "partition: any_cut=%d held=%llu held_total=%llu "
                  "cut_deliveries=%llu cuts=%llu heals=%llu\n",
                  net_.any_cut() ? 1 : 0,
                  static_cast<unsigned long long>(net_.messages_held()),
                  static_cast<unsigned long long>(net_.total_held()),
                  static_cast<unsigned long long>(net_.cut_deliveries()),
                  static_cast<unsigned long long>(partitions_cut_),
                  static_cast<unsigned long long>(partitions_healed_));
    out += buf;
  }
  if (detector_) out += detector_->DebugString();
  return out;
}

std::string Cluster::TraceJson() const {
  return obs::ChromeTraceJson(tracer_, config_.workers_per_node);
}

bool Cluster::DumpTrace(const std::string& path) const {
  return obs::WriteChromeTrace(tracer_, path, config_.workers_per_node);
}

}  // namespace hermes::engine
