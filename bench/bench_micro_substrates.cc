// Microbenchmarks for the substrate data structures (google-benchmark):
// conservative ordered lock manager, fusion table, Zipfian generators,
// event queue, multi-lane simulator, and record store.

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/fusion_table.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"
#include "workload/distributions.h"

namespace {

using hermes::EvictionPolicy;
using hermes::Key;
using hermes::Rng;
using hermes::TxnId;

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  const int keys_per_txn = static_cast<int>(state.range(0));
  hermes::storage::LockManager lm;
  Rng rng(1);
  std::vector<TxnId> granted;
  TxnId next = 0;
  for (auto _ : state) {
    const TxnId txn = next++;
    std::vector<hermes::storage::LockRequest> reqs;
    reqs.reserve(keys_per_txn);
    for (int i = 0; i < keys_per_txn; ++i) {
      reqs.push_back({rng.NextBounded(100'000) * keys_per_txn +
                          static_cast<Key>(i),
                      (i & 1) != 0});
    }
    granted.clear();
    lm.Acquire(txn, reqs, &granted);
    granted.clear();
    lm.Release(txn, &granted);
  }
  state.SetItemsProcessed(state.iterations() * keys_per_txn);
}
BENCHMARK(BM_LockManagerAcquireRelease)->Arg(2)->Arg(10)->Arg(50);

void BM_LockManagerContendedQueue(benchmark::State& state) {
  // All transactions on one key: measures queue churn.
  hermes::storage::LockManager lm;
  std::vector<TxnId> granted;
  TxnId next = 0;
  constexpr int kDepth = 64;
  for (TxnId t = 0; t < kDepth; ++t) {
    granted.clear();
    lm.Acquire(next++, {{1, true}}, &granted);
  }
  TxnId oldest = 0;
  for (auto _ : state) {
    granted.clear();
    lm.Release(oldest++, &granted);
    granted.clear();
    lm.Acquire(next++, {{1, true}}, &granted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerContendedQueue);

void BM_LockManagerDeepMixedQueue(benchmark::State& state) {
  // One hot key, 256 waiters deep: every eighth txn writes, the readers
  // between writers queue behind one and are granted as a group. Each
  // iteration releases the oldest txn and enqueues a new one at the tail.
  hermes::storage::LockManager lm;
  const std::vector<hermes::storage::LockRequest> write = {{1, true}};
  const std::vector<hermes::storage::LockRequest> read = {{1, false}};
  std::vector<TxnId> granted;
  TxnId next = 0;
  auto enqueue = [&]() {
    const TxnId txn = next++;
    granted.clear();
    lm.Acquire(txn, txn % 8 == 0 ? write : read, &granted);
  };
  constexpr int kDepth = 256;
  for (int i = 0; i < kDepth; ++i) enqueue();
  TxnId oldest = 0;
  for (auto _ : state) {
    granted.clear();
    lm.Release(oldest++, &granted);
    benchmark::DoNotOptimize(granted.data());
    enqueue();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerDeepMixedQueue);

void BM_FusionTablePut(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  hermes::core::FusionTable table(capacity, EvictionPolicy::kLru);
  Rng rng(2);
  std::vector<Key> evicted;
  for (auto _ : state) {
    evicted.clear();
    table.Put(rng.NextBounded(capacity * 4), 1, &evicted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusionTablePut)->Arg(1'000)->Arg(100'000);

void BM_FusionTableLookupHit(benchmark::State& state) {
  hermes::core::FusionTable table(100'000, EvictionPolicy::kLru);
  std::vector<Key> evicted;
  for (Key k = 0; k < 100'000; ++k) table.Put(k, 1, &evicted);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Lookup(rng.NextBounded(100'000), /*touch=*/true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusionTableLookupHit);

void BM_ZipfianNext(benchmark::State& state) {
  hermes::workload::ZipfianGenerator zipf(
      static_cast<uint64_t>(state.range(0)), 0.9);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext)->Arg(1'000'000)->Arg(200'000'000);

void BM_EventQueuePushPop(benchmark::State& state) {
  hermes::sim::EventQueue q;
  Rng rng(5);
  // Steady-state queue of 10k pending events.
  for (int i = 0; i < 10'000; ++i) q.Push(rng.NextBounded(1'000'000), [] {});
  uint64_t t = 1'000'000;
  for (auto _ : state) {
    q.Push(t + rng.NextBounded(1000), [] {});
    q.Pop()();
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop);

/// Hold model on the full simulator: a fixed number of event chains stay
/// in flight, and each firing reschedules its chain on a pseudo-random
/// lane 1..1000 us ahead. With more than one lane most hops cross lanes,
/// so they stage through the epoch barrier — the simulator's queue, lane
/// and barrier machinery per event, with no engine work on top.
struct HoldChains {
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

void BM_SimulatorHold(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const auto depth = static_cast<uint64_t>(state.range(1));
  constexpr uint64_t kEvents = 100'000;
  hermes::sim::Simulator sim;
  sim.ConfigureLanes(lanes, /*threads=*/0);
  HoldChains chains{&sim, 0, 1, lanes};
  for (auto _ : state) {
    chains.remaining = kEvents;
    for (uint64_t i = 0; i < depth; ++i) chains.Fire();
    sim.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorHold)
    ->Args({1, 1'000})
    ->Args({10, 1'000})
    ->Args({10, 10'000});

void BM_RecordStoreApplyWrite(benchmark::State& state) {
  hermes::storage::RecordStore store;
  for (Key k = 0; k < 1'000'000; ++k) {
    store.Insert(k, hermes::storage::Record{.value = k});
  }
  Rng rng(6);
  TxnId txn = 0;
  for (auto _ : state) {
    store.ApplyWrite(rng.NextBounded(1'000'000), txn++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreApplyWrite);

void BM_RecordStoreMigrate(benchmark::State& state) {
  // Extract from one store, insert into another (the data-fusion path).
  hermes::storage::RecordStore a, b;
  for (Key k = 0; k < 100'000; ++k) {
    a.Insert(k, hermes::storage::Record{.value = k});
  }
  Key k = 0;
  for (auto _ : state) {
    const Key key = k % 100'000;
    if (auto rec = a.Extract(key)) {
      b.Insert(key, *rec);
    } else {
      auto rec2 = b.Extract(key);
      a.Insert(key, *rec2);
    }
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreMigrate);

}  // namespace

BENCHMARK_MAIN();
