#include "replication/lease_manager.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.h"

namespace hermes::replication {

void LeaseManager::BeginInstall(Key key, NodeId holder, NodeId source) {
  std::vector<NodeId>& set = holders_[key];
  const auto it = std::lower_bound(set.begin(), set.end(), holder);
  if (it == set.end() || *it != holder) {
    set.insert(it, holder);
    HERMES_TRACE(tracer_, obs::EventKind::kLeaseGrant, holder, kInvalidTxn,
                 key, /*arg=*/static_cast<uint64_t>(source));
  }
}

void LeaseManager::Revoke(Key key, NodeId holder) {
  const auto hit = holders_.find(key);
  if (hit != holders_.end()) {
    std::vector<NodeId>& set = hit->second;
    const auto it = std::lower_bound(set.begin(), set.end(), holder);
    if (it != set.end() && *it == holder) {
      set.erase(it);
      ++revokes_;
      HERMES_TRACE(tracer_, obs::EventKind::kLeaseRevoke, holder, kInvalidTxn,
                   key, /*arg=*/0);
    }
    if (set.empty()) holders_.erase(hit);
  }
  DropCopy(holder, key);
}

void LeaseManager::LapseNode(NodeId node) {
  for (auto it = holders_.begin(); it != holders_.end();) {
    std::vector<NodeId>& set = it->second;
    const auto sit = std::lower_bound(set.begin(), set.end(), node);
    if (sit != set.end() && *sit == node) {
      set.erase(sit);
      ++lapses_;
      HERMES_TRACE(tracer_, obs::EventKind::kLeaseRevoke, node, kInvalidTxn,
                   it->first, /*arg=*/1);
    }
    it = set.empty() ? holders_.erase(it) : std::next(it);
  }
  if (static_cast<size_t>(node) >= shards_.size()) return;
  NodeShard& shard = Shard(node);
  shard.copies.clear();
  // Wake everything parked at this node: the reads degrade to plain local
  // reads (the read path never consumes the copy's bytes, only its
  // modeled latency), so waking on lapse cannot change any value.
  std::map<Key, std::vector<std::function<void()>>> waiters;
  waiters.swap(shard.waiters);
  for (auto& [key, list] : waiters) {
    (void)key;
    for (auto& w : list) w();
  }
}

void LeaseManager::LapseAll() {
  for (const auto& [key, set] : holders_) {
    for (NodeId holder : set) {
      ++lapses_;
      HERMES_TRACE(tracer_, obs::EventKind::kLeaseRevoke, holder, kInvalidTxn,
                   key, /*arg=*/1);
    }
  }
  holders_.clear();
  for (NodeShard& shard : shards_) {
    shard.copies.clear();
    std::map<Key, std::vector<std::function<void()>>> waiters;
    waiters.swap(shard.waiters);
    for (auto& [key, list] : waiters) {
      (void)key;
      for (auto& w : list) w();
    }
  }
}

void LeaseManager::DropCopy(NodeId node, Key key) {
  if (static_cast<size_t>(node) >= shards_.size()) return;
  NodeShard& shard = Shard(node);
  shard.copies.erase(key);
  const auto wit = shard.waiters.find(key);
  if (wit == shard.waiters.end()) return;
  std::vector<std::function<void()>> list = std::move(wit->second);
  shard.waiters.erase(wit);
  for (auto& w : list) w();
}

void LeaseManager::ApplyCopy(NodeId node, Key key,
                             const storage::Record& record, bool install,
                             TxnId txn) {
  NodeShard& shard = Shard(node);
  const auto hit = holders_.find(key);
  const bool active =
      hit != holders_.end() &&
      std::binary_search(hit->second.begin(), hit->second.end(), node);
  if (!active) {
    // Revoked or lapsed while the snapshot was on the wire.
    ++stale_drops_;
    return;
  }
  auto it = shard.copies.find(key);
  if (it == shard.copies.end()) {
    shard.copies.emplace(key, record);
  } else if (record.version >= it->second.version) {
    it->second = record;
  }
  if (install) {
    ++installs_;
  } else {
    ++updates_;
  }
  HERMES_TRACE(tracer_,
               install ? obs::EventKind::kReplicaInstall
                       : obs::EventKind::kReplicaUpdate,
               node, txn, key, /*arg=*/record.version);
  const auto wit = shard.waiters.find(key);
  if (wit == shard.waiters.end()) return;
  std::vector<std::function<void()>> list = std::move(wit->second);
  shard.waiters.erase(wit);
  for (auto& w : list) w();
}

bool LeaseManager::CopyPresent(NodeId node, Key key) const {
  if (static_cast<size_t>(node) >= shards_.size()) return false;
  return Shard(node).copies.count(key) > 0;
}

const std::vector<NodeId>* LeaseManager::HoldersOf(Key key) const {
  const auto it = holders_.find(key);
  return it == holders_.end() ? nullptr : &it->second;
}

void LeaseManager::WaitCopies(NodeId node, const std::vector<Key>& keys,
                              std::function<void()> ready) {
  NodeShard& shard = Shard(node);
  std::vector<Key> missing;
  for (Key k : keys) {
    if (shard.copies.count(k) > 0) continue;
    const auto hit = holders_.find(k);
    const bool active =
        hit != holders_.end() &&
        std::binary_search(hit->second.begin(), hit->second.end(), node);
    // An unleased key never blocks: the lease was revoked after routing,
    // and the read proceeds as a plain local read.
    if (active) missing.push_back(k);
  }
  if (missing.empty()) {
    ready();
    return;
  }
  auto remaining = std::make_shared<size_t>(missing.size());
  auto shared_ready =
      std::make_shared<std::function<void()>>(std::move(ready));
  for (Key k : missing) {
    shard.waiters[k].push_back([remaining, shared_ready]() {
      if (--*remaining == 0) (*shared_ready)();
    });
  }
}

uint64_t LeaseManager::Checksum() const {
  uint64_t sum = 0;
  for (size_t node = 0; node < shards_.size(); ++node) {
    for (const auto& [key, r] : shards_[node].copies) {
      sum ^= Mix64(Mix64(key ^ (static_cast<uint64_t>(node) << 48)) ^
                   r.value ^ (static_cast<uint64_t>(r.version) << 32));
    }
  }
  return sum;
}

std::vector<std::tuple<NodeId, Key, storage::Record>>
LeaseManager::SnapshotCopies() const {
  std::vector<std::tuple<NodeId, Key, storage::Record>> out;
  for (size_t node = 0; node < shards_.size(); ++node) {
    for (const auto& [key, r] : shards_[node].copies) {
      out.emplace_back(static_cast<NodeId>(node), key, r);
    }
  }
  return out;
}

void LeaseManager::CorruptCopyForTest(NodeId node, Key key) {
  NodeShard& shard = Shard(node);
  const auto it = shard.copies.find(key);
  if (it != shard.copies.end()) it->second.value ^= 0xDEADBEEF;
}

size_t LeaseManager::num_copies() const {
  size_t n = 0;
  for (const NodeShard& s : shards_) n += s.copies.size();
  return n;
}

std::string LeaseManager::DebugString() const {
  std::string out;
  char buf[160];
  for (const auto& [key, set] : holders_) {
    std::snprintf(buf, sizeof(buf), "lease: key=%llu holders=[",
                  static_cast<unsigned long long>(key));
    out += buf;
    for (size_t i = 0; i < set.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%d", i == 0 ? "" : " ",
                    static_cast<int>(set[i]));
      out += buf;
    }
    out += "]\n";
  }
  for (size_t node = 0; node < shards_.size(); ++node) {
    for (const auto& [key, r] : shards_[node].copies) {
      std::snprintf(buf, sizeof(buf),
                    "copy: node=%zu key=%llu version=%u\n", node,
                    static_cast<unsigned long long>(key), r.version);
      out += buf;
    }
    for (const auto& [key, list] : shards_[node].waiters) {
      std::snprintf(buf, sizeof(buf),
                    "copy wait: node=%zu key=%llu (%zu)\n", node,
                    static_cast<unsigned long long>(key), list.size());
      out += buf;
    }
  }
  return out;
}

}  // namespace hermes::replication
