// Partition chaos property test (DESIGN.md §5 "Partitions & failure
// detection"): seeded plans mixing two-sided cuts, asymmetric one-way
// cuts, gray-failure windows and an overlapping no-stall crash run
// against seeded workloads with the heartbeat failure detector, replica
// leases and tracing all enabled. For every plan the partition oracle
// must hold — every holding pen drained, nothing delivered across a live
// cut, and the command log replaying (under the recorded membership
// schedule when the detector fired) to the same placements and state —
// replica copies must cohere, and the entire outcome (decision digest,
// placement digest, TRACE digest, state checksum, commits, pen and
// detector counters) must be bit-identical across hash salts.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultPlanConfig;
using fault::InvariantMonitor;

constexpr int kNumSeeds = 25;
constexpr uint64_t kSeedBase = 20'267'000;

std::vector<uint64_t> PerturbationSalts() {
  return {HashSalt(), 0x9e3779b97f4a7c15ULL, 0xdeadbeefcafef00dULL};
}

ClusterConfig PartitionConfig() {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 6'000;
  config.hermes.fusion_table_capacity = 250;
  config.detector.enabled = true;
  config.replication.enabled = true;
  config.obs.trace_enabled = true;
  return config;
}

FaultInjector::MapFactory MapFactory(const ClusterConfig& config) {
  const uint64_t records = config.num_records;
  const int nodes = config.num_nodes;
  return [records, nodes] {
    return std::make_unique<partition::RangePartitionMap>(records, nodes);
  };
}

// Mixed corpus: every plan has one partition cycle (40% one-way) and one
// overlapping no-stall crash cycle on a disjoint victim; every third seed
// adds a gray window on top. Windows are long enough (>= 10ms against a
// 2.5ms heartbeat, miss threshold 3) that the detector converts each cut
// into membership epochs and restores them after the heal.
FaultPlan MakePlan(const ClusterConfig& config, uint64_t seed) {
  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(120);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(10);
  pc.max_outage_us = MsToSim(40);
  pc.no_stall = true;
  pc.partition_cycles = 1;
  pc.min_partition_us = MsToSim(15);
  pc.max_partition_us = MsToSim(45);
  pc.one_way_fraction = 0.4;
  pc.gray = (seed % 3) == 0;
  pc.link.drop_prob = 0.05;
  pc.link.duplicate_prob = 0.03;
  pc.link.max_jitter_us = 300;
  return FaultPlan::Generate(pc, seed);
}

struct PartitionOutcome {
  uint64_t decision_digest = 0;
  uint64_t placement_digest = 0;
  uint64_t trace_digest = 0;
  uint64_t state_checksum = 0;
  uint64_t replica_checksum = 0;
  uint64_t commits = 0;
  uint64_t held_total = 0;
  uint64_t cut_deliveries = 0;
  uint64_t heartbeat_misses = 0;
  uint64_t suspects = 0;
  uint64_t restores = 0;
  uint64_t parked_total = 0;
  uint64_t retry_digest = 0;
  bool monitors_ok = true;
  std::string report;
};

bool SameOutcome(const PartitionOutcome& a, const PartitionOutcome& b) {
  return a.decision_digest == b.decision_digest &&
         a.placement_digest == b.placement_digest &&
         a.trace_digest == b.trace_digest &&
         a.state_checksum == b.state_checksum &&
         a.replica_checksum == b.replica_checksum && a.commits == b.commits &&
         a.held_total == b.held_total &&
         a.cut_deliveries == b.cut_deliveries &&
         a.heartbeat_misses == b.heartbeat_misses &&
         a.suspects == b.suspects && a.restores == b.restores &&
         a.parked_total == b.parked_total && a.retry_digest == b.retry_digest;
}

/// One partition-chaos lifetime. `deep_checks` additionally runs the
/// partition oracle (command-log replay) — once per seed; the compared
/// digests already sit in the outcome for the other salts.
PartitionOutcome RunPartitionChaos(uint64_t plan_seed, bool deep_checks) {
  ClusterConfig config = PartitionConfig();
  Cluster cluster(config, RouterKind::kHermes, MapFactory(config)());
  cluster.Load();

  const FaultPlan plan = MakePlan(config, plan_seed);
  FaultInjector injector(&cluster, plan, MapFactory(config));
  InvariantMonitor monitor(config.num_records);
  monitor.AttachTracer(&cluster.tracer());
  injector.set_monitor(&monitor);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = Mix64(plan_seed ^ 0x9a17ULL);
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(120));
  driver.Start();

  injector.RunUntil(MsToSim(120));
  injector.Drain();

  monitor.CheckRecordSingularity(cluster, "final");
  monitor.CheckNoLostRecords(cluster, "final");
  monitor.CheckReplicaCoherence(cluster, "final");
  if (deep_checks) {
    monitor.CheckPartitionOracle(cluster, RouterKind::kHermes,
                                 MapFactory(config), "partition oracle");
  }

  PartitionOutcome out;
  out.decision_digest = cluster.decision_digest().value();
  out.placement_digest = cluster.placement_digest().value();
  out.trace_digest = cluster.trace_digest().value();
  out.state_checksum = cluster.StateChecksum();
  out.replica_checksum = cluster.ReplicaChecksum();
  out.commits = cluster.metrics().total_commits();
  out.held_total = cluster.network().total_held();
  out.cut_deliveries = cluster.network().cut_deliveries();
  out.heartbeat_misses = cluster.failure_detector()->heartbeat_misses();
  out.suspects = cluster.failure_detector()->suspects();
  out.restores = cluster.failure_detector()->restores();
  out.parked_total = cluster.degraded_ledger().parked_total();
  out.retry_digest = cluster.degraded_ledger().RetryDigest();
  out.monitors_ok = monitor.ok();
  out.report = monitor.FailureReport();
  return out;
}

TEST(PartitionChaosTest, SeededPlansHoldOracleAcrossSalts) {
  const uint64_t old_salt = HashSalt();
  const std::vector<uint64_t> salts = PerturbationSalts();
  uint64_t total_held = 0, total_suspects = 0, total_restores = 0;

  for (int s = 0; s < kNumSeeds; ++s) {
    const uint64_t plan_seed = kSeedBase + s;
    std::vector<PartitionOutcome> outcomes;
    for (size_t i = 0; i < salts.size(); ++i) {
      SetHashSalt(salts[i]);
      outcomes.push_back(RunPartitionChaos(plan_seed, /*deep_checks=*/i == 0));
    }
    SetHashSalt(old_salt);

    const PartitionOutcome& base = outcomes[0];
    ASSERT_TRUE(base.monitors_ok)
        << "plan seed " << plan_seed << ":\n" << base.report;
    ASSERT_GT(base.commits, 50u) << "plan seed " << plan_seed;
    EXPECT_EQ(base.cut_deliveries, 0u)
        << "plan seed " << plan_seed
        << ": a payload crossed a cut while it was up";
    total_held += base.held_total;
    total_suspects += base.suspects;
    total_restores += base.restores;
    // The detector must end every run whole: each suspicion restored.
    EXPECT_EQ(base.suspects, base.restores) << "plan seed " << plan_seed;

    for (size_t i = 1; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].monitors_ok)
          << "plan seed " << plan_seed << " salt " << salts[i] << ":\n"
          << outcomes[i].report;
      EXPECT_TRUE(SameOutcome(base, outcomes[i]))
          << "plan seed " << plan_seed << " diverged under another salt"
          << ": digest "
          << std::hex << outcomes[i].decision_digest << " vs "
          << base.decision_digest << ", trace " << outcomes[i].trace_digest
          << " vs " << base.trace_digest << std::dec << ", suspects "
          << outcomes[i].suspects << " vs " << base.suspects
          << " — a partition/detector decision is not a pure function of "
             "(plan seed, config)";
    }
  }
  // Any one plan can draw a cut nothing was routed into or a window the
  // detector missed; across the corpus the machinery must fire.
  EXPECT_GT(total_held, 0u) << "no payload ever parked in a holding pen";
  EXPECT_GT(total_suspects, 0u) << "the detector never suspected a node";
  EXPECT_EQ(total_suspects, total_restores);
}

// The detector alone — no injector, no workload: a hand-built cut must
// convert into membership epochs after exactly miss_threshold heartbeats,
// and the heal must restore membership after confirm_threshold clean
// rounds. Timing is pure virtual arithmetic, so the expectations are
// exact.
TEST(PartitionChaosTest, DetectorConvertsCutIntoMembershipEpochs) {
  ClusterConfig config = PartitionConfig();
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, MapFactory(config)());
  cluster.Load();

  ASSERT_NE(cluster.failure_detector(), nullptr);
  EXPECT_FALSE(cluster.failure_detector()->armed());

  cluster.PartitionCut(2, /*cut_inbound=*/true, /*cut_outbound=*/true);
  EXPECT_TRUE(cluster.failure_detector()->armed());
  EXPECT_TRUE(cluster.membership().alive(2));

  // miss_threshold ticks in, node 2 leaves the primary component.
  const SimTime period = config.detector.heartbeat_period_us;
  cluster.RunUntil(period * config.detector.miss_threshold + 1);
  EXPECT_FALSE(cluster.membership().alive(2));
  EXPECT_EQ(cluster.failure_detector()->suspects(), 1u);
  EXPECT_EQ(cluster.failure_detector()->suspected().count(2), 1u);

  cluster.PartitionHeal(2);
  // confirm_threshold clean rounds later the node is restored.
  cluster.RunUntil(cluster.Now() +
                   period * (config.detector.confirm_threshold + 1) + 1);
  EXPECT_TRUE(cluster.membership().alive(2));
  EXPECT_EQ(cluster.failure_detector()->restores(), 1u);
  EXPECT_TRUE(cluster.failure_detector()->suspected().empty());
  cluster.Drain();
  EXPECT_FALSE(cluster.failure_detector()->armed());
  EXPECT_EQ(cluster.network().cut_deliveries(), 0u);
}

// An asymmetric (one-way) cut is still a mutual-health failure: the
// victim answers probes in one direction but the pair is unhealthy, so
// the detector isolates it exactly like a two-sided cut.
TEST(PartitionChaosTest, OneWayCutIsolatesTheVictim) {
  ClusterConfig config = PartitionConfig();
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, MapFactory(config)());
  cluster.Load();

  cluster.PartitionCut(1, /*cut_inbound=*/true, /*cut_outbound=*/false);
  EXPECT_TRUE(cluster.network().reachable(1, 0));
  EXPECT_FALSE(cluster.network().reachable(0, 1));

  const SimTime period = config.detector.heartbeat_period_us;
  cluster.RunUntil(period * config.detector.miss_threshold + 1);
  EXPECT_FALSE(cluster.membership().alive(1));

  cluster.PartitionHeal(1);
  cluster.RunUntil(cluster.Now() +
                   period * (config.detector.confirm_threshold + 1) + 1);
  EXPECT_TRUE(cluster.membership().alive(1));
  cluster.Drain();
}

// One seeded partition lifetime under the PROCESS salt (HERMES_HASH_SALT),
// printing a parseable outcome line. scripts/check_determinism.sh runs
// this binary under several env salts and requires every printed
// PARTITION_PROFILE line to be identical across processes.
TEST(PartitionScriptProfile, SingleSeededPlanPrintsOutcome) {
  const PartitionOutcome out =
      RunPartitionChaos(kSeedBase + 3000, /*deep_checks=*/true);
  ASSERT_TRUE(out.monitors_ok) << out.report;
  EXPECT_EQ(out.cut_deliveries, 0u);
  std::printf("PARTITION_PROFILE digest=%016llx placement=%016llx "
              "trace=%016llx checksum=%016llx replicas=%016llx "
              "commits=%llu held=%llu misses=%llu suspects=%llu "
              "restores=%llu parked=%llu retry_digest=%016llx\n",
              static_cast<unsigned long long>(out.decision_digest),
              static_cast<unsigned long long>(out.placement_digest),
              static_cast<unsigned long long>(out.trace_digest),
              static_cast<unsigned long long>(out.state_checksum),
              static_cast<unsigned long long>(out.replica_checksum),
              static_cast<unsigned long long>(out.commits),
              static_cast<unsigned long long>(out.held_total),
              static_cast<unsigned long long>(out.heartbeat_misses),
              static_cast<unsigned long long>(out.suspects),
              static_cast<unsigned long long>(out.restores),
              static_cast<unsigned long long>(out.parked_total),
              static_cast<unsigned long long>(out.retry_digest));
}

}  // namespace
}  // namespace hermes
