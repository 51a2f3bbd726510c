#include "replay.h"

#include <algorithm>

#include "common/rng.h"
#include "routing/router.h"
#include "sim/simulator.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"

namespace perfbench {

using hermes::Key;
using hermes::NodeId;
using hermes::kInvalidNode;
using hermes::routing::Access;
using hermes::routing::RoutedTxn;

namespace {

bool IsMaster(const RoutedTxn& rt, NodeId node) {
  return std::find(rt.masters.begin(), rt.masters.end(), node) !=
         rt.masters.end();
}

bool AppliesWrites(const hermes::TxnRequest& txn) {
  return txn.kind == hermes::TxnKind::kRegular && !txn.user_abort;
}

/// The executor's per-node lock requests for `rt`: a lock at each
/// access's owner plus an exclusive fence where a record moves to a master
/// of a regular transaction, sorted by key with the strongest mode kept.
void BuildLockRequests(const RoutedTxn& rt,
                       std::vector<std::vector<hermes::storage::LockRequest>>*
                           per_node) {
  const bool regular = rt.txn.kind == hermes::TxnKind::kRegular;
  for (const Access& acc : rt.accesses) {
    (*per_node)[acc.owner].push_back({acc.key, acc.is_write});
    if (regular && acc.new_owner != kInvalidNode &&
        acc.new_owner != acc.owner && IsMaster(rt, acc.new_owner)) {
      (*per_node)[acc.new_owner].push_back({acc.key, true});
    }
  }
  for (auto& reqs : *per_node) {
    std::sort(reqs.begin(), reqs.end(), [](const auto& x, const auto& y) {
      if (x.key != y.key) return x.key < y.key;
      return x.exclusive > y.exclusive;
    });
    reqs.erase(std::unique(reqs.begin(), reqs.end(),
                           [](const auto& x, const auto& y) {
                             return x.key == y.key;
                           }),
               reqs.end());
  }
}

}  // namespace

LayerReplay ReplayLayers(
    const hermes::ClusterConfig& config, hermes::engine::RouterKind kind,
    const std::function<std::unique_ptr<hermes::partition::PartitionMap>()>&
        make_partitioning,
    const std::vector<hermes::Batch>& batches, SpanLog* spans) {
  LayerReplay out;
  hermes::engine::Cluster replica(config, kind, make_partitioning());
  replica.Load();
  hermes::partition::OwnershipMap& ownership = replica.ownership();

  const int nodes = config.num_nodes;
  std::vector<std::unique_ptr<hermes::storage::RecordStore>> stores;
  std::vector<std::unique_ptr<hermes::storage::LockManager>> locks;
  for (int n = 0; n < nodes; ++n) {
    stores.push_back(std::make_unique<hermes::storage::RecordStore>());
    locks.push_back(std::make_unique<hermes::storage::LockManager>());
  }
  hermes::storage::RecordStore serial;
  for (Key k = 0; k < config.num_records; ++k) {
    const hermes::storage::Record record{.value = hermes::Mix64(k)};
    stores[ownership.Owner(k)]->Insert(k, record);
    serial.Insert(k, record);
  }

  std::vector<std::vector<hermes::storage::LockRequest>> reqs(nodes);
  std::vector<hermes::TxnId> granted;
  // (txn, node) pairs holding or waiting for locks, per in-flight batch.
  std::vector<std::pair<hermes::TxnId, NodeId>> holding, previous;
  std::vector<Key> writes;
  uint64_t sink = 0;

  for (const hermes::Batch& batch : batches) {
    ++out.batches;
    hermes::routing::RoutePlan plan;
    {
      SpanLog::Scope span(spans, Layer::kRouterReplay, batch.id);
      const AllocCount a0 = AllocSnapshot();
      const int64_t t0 = NowNs();
      plan = replica.router().RouteBatch(batch);
      out.route_s += (NowNs() - t0) * 1e-9;
      out.route_allocs += AllocSnapshot() - a0;
    }
    out.txns += plan.txns.size();
    for (const RoutedTxn& rt : plan.txns) {
      for (const Access& acc : rt.accesses) {
        if (acc.ship_to_master) ++out.remote_reads;
        if (acc.new_owner != kInvalidNode) ++out.migrations;
      }
    }

    {
      SpanLog::Scope span(spans, Layer::kOwnerReplay, batch.id);
      const int64_t t0 = NowNs();
      for (const RoutedTxn& rt : plan.txns) {
        for (const Access& acc : rt.accesses) {
          sink += static_cast<uint64_t>(ownership.Owner(acc.key));
          ++out.lookups;
        }
      }
      out.owner_s += (NowNs() - t0) * 1e-9;
    }

    {
      SpanLog::Scope span(spans, Layer::kLockReplay, batch.id);
      const AllocCount a0 = AllocSnapshot();
      const int64_t t0 = NowNs();
      holding.clear();
      for (const RoutedTxn& rt : plan.txns) {
        BuildLockRequests(rt, &reqs);
        for (NodeId n = 0; n < nodes; ++n) {
          if (reqs[n].empty()) continue;
          granted.clear();
          locks[n]->Acquire(rt.txn.id, reqs[n], &granted);
          out.lock_requests += reqs[n].size();
          ++out.lock_acquires;
          if (std::find(granted.begin(), granted.end(), rt.txn.id) ==
              granted.end()) {
            ++out.lock_blocked;
          }
          holding.emplace_back(rt.txn.id, n);
          reqs[n].clear();
        }
      }
      for (const auto& [txn, n] : previous) {
        granted.clear();
        locks[n]->Release(txn, &granted);
      }
      std::swap(holding, previous);
      out.lock_s += (NowNs() - t0) * 1e-9;
      out.lock_allocs += AllocSnapshot() - a0;
    }

    {
      SpanLog::Scope span(spans, Layer::kStoreReplay, batch.id);
      const int64_t t0 = NowNs();
      for (const RoutedTxn& rt : plan.txns) {
        const bool applies = AppliesWrites(rt.txn);
        for (const Access& acc : rt.accesses) {
          hermes::storage::RecordStore& at = *stores[acc.owner];
          ++out.store_ops;
          if (at.Get(acc.key) == nullptr) {
            ++out.store_misses;
            continue;
          }
          NodeId final_node = acc.owner;
          if (acc.new_owner != kInvalidNode && acc.new_owner != acc.owner) {
            std::optional<hermes::storage::Record> rec = at.Extract(acc.key);
            stores[acc.new_owner]->Insert(acc.key, *rec);
            out.store_ops += 2;
            ++out.store_extracts;
            final_node = acc.new_owner;
          }
          if (acc.is_write && applies) {
            stores[final_node]->ApplyWrite(acc.key, rt.txn.id);
            ++out.store_ops;
          }
        }
      }
      out.store_s += (NowNs() - t0) * 1e-9;
    }

    // Serial reference (untimed): writes fold the writer id exactly as
    // the executor does; a key written twice by one txn counts once.
    for (const RoutedTxn& rt : plan.txns) {
      if (!AppliesWrites(rt.txn)) continue;
      writes = rt.txn.write_set;
      std::sort(writes.begin(), writes.end());
      writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
      for (Key k : writes) serial.ApplyWrite(k, rt.txn.id);
    }
  }
  for (const auto& [txn, n] : previous) {
    granted.clear();
    locks[n]->Release(txn, &granted);
  }
  out.serial_checksum = serial.Checksum();
  out.owner_sum = sink;
  return out;
}

namespace {

/// Keeps a fixed number of events pending: every fired event schedules
/// the next until the budget is spent.
struct Hold {
  hermes::sim::Simulator* sim;
  uint64_t remaining;
  uint64_t state;
  int lanes;

  void Fire() {
    if (remaining == 0) return;
    --remaining;
    state = hermes::Mix64(state);
    const int lane = static_cast<int>(state % static_cast<uint64_t>(lanes));
    const hermes::SimTime delay = 1 + (state >> 32) % 1000;
    sim->ScheduleOnLane(lane, delay, [this] { Fire(); });
  }
};

}  // namespace

double ReplaySimQueue(uint64_t events, int lanes, uint64_t depth,
                      uint64_t seed, SpanLog* spans) {
  hermes::sim::Simulator sim;
  sim.ConfigureLanes(lanes, 0);
  Hold hold{&sim, events, seed, lanes};
  SpanLog::Scope span(spans, Layer::kQueueReplay, events);
  const int64_t t0 = NowNs();
  for (uint64_t i = 0; i < depth; ++i) hold.Fire();
  sim.RunAll();
  return (NowNs() - t0) * 1e-9;
}

}  // namespace perfbench
