#include "routing/calvin_router.h"

#include <algorithm>

namespace hermes::routing {

CalvinRouter::CalvinRouter(partition::OwnershipMap* ownership,
                           const CostModel* costs, int num_nodes)
    : Router(ownership, costs, num_nodes) {}

RoutePlan CalvinRouter::RouteBatch(const Batch& batch) {
  RoutePlan plan;
  plan.routing_cost_us = LinearCost(batch.txns.size());
  plan.txns.reserve(batch.txns.size());
  for (const TxnRequest& txn : batch.txns) {
    switch (txn.kind) {
      case TxnKind::kRegular:
        plan.txns.push_back(RouteOne(txn));
        break;
      case TxnKind::kChunkMigration:
        plan.txns.push_back(PlanChunkMigrationDefault(txn));
        break;
      default:
        plan.txns.push_back(PlanProvisioningDefault(txn));
        break;
    }
  }
  return plan;
}

RoutedTxn CalvinRouter::RouteOne(const TxnRequest& txn) {
  RoutedTxn rt;
  rt.txn = txn;

  // Masters: every node owning a record the transaction touches executes
  // the transaction logic (Calvin's deterministic execution runs the code
  // on all participants; each applies only its local writes). This is the
  // multi-master scheme's resource cost the paper contrasts with
  // single-master routing. Each access's owner is looked up once.
  MergedAccessSetInto(txn, &merged_);
  owners_.clear();
  for (const auto& [k, is_write] : merged_) {
    (void)is_write;
    owners_.push_back(OwnerOf(k));
  }
  rt.masters = owners_;
  std::sort(rt.masters.begin(), rt.masters.end());
  rt.masters.erase(std::unique(rt.masters.begin(), rt.masters.end()),
                   rt.masters.end());

  read_keys_.assign(txn.read_set.begin(), txn.read_set.end());
  std::sort(read_keys_.begin(), read_keys_.end());
  rt.accesses.reserve(merged_.size());
  for (size_t i = 0; i < merged_.size(); ++i) {
    Access a;
    a.key = merged_[i].first;
    a.owner = owners_[i];
    a.is_write = merged_[i].second;
    // A record is shipped iff some other master needs its value for the
    // transaction logic (blind writes ship nothing).
    a.ship_to_master =
        rt.masters.size() > 1 &&
        std::binary_search(read_keys_.begin(), read_keys_.end(), a.key);
    rt.accesses.push_back(a);
  }
  return rt;
}

}  // namespace hermes::routing
