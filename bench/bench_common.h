#ifndef HERMES_BENCH_BENCH_COMMON_H_
#define HERMES_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"
#include "workload/google_trace.h"

namespace hermes::bench {

/// Parameters of one emulated run of the paper's "complex Google workload"
/// (§5.2.2), scaled down from the paper's testbed (20 servers, 200M
/// records, 3-day trace) to simulator scale; the scale factors are
/// documented in EXPERIMENTS.md.
struct GoogleRunParams {
  int num_nodes = 10;
  int windows = 12;                   ///< trace windows emulated
  SimTime window_us = SecToSim(4);    ///< emulated length of one window
  int clients = 2500;
  int workers_per_node = 2;
  uint64_t num_records = 100'000;
  double distributed_ratio = 0.5;
  double length_mean = 2.0;
  double length_stddev = 0.0;
  /// Fusion table capacity as a fraction of the database (paper: 2.5%).
  double fusion_capacity_frac = 0.025;
  size_t max_batch = 0;
  /// Sequencer epoch; 0 keeps the ClusterConfig default (10 ms). Longer
  /// epochs form larger batches (the Fig. 10 knob).
  SimTime epoch_us = 0;
  bool enable_clay = false;
  uint64_t seed = 42;
  /// Initial placement; null selects the naive range partitioning.
  std::unique_ptr<partition::PartitionMap> initial;
  /// Last-chance hook to adjust the assembled ClusterConfig (ablation
  /// switches, cost-model overrides).
  std::function<void(ClusterConfig&)> tweak;
};

/// Per-run outputs mirroring what the paper plots.
struct RunResult {
  std::vector<double> throughput;    ///< commits per window
  std::vector<double> cpu;           ///< cluster CPU utilization per window
  std::vector<double> net_per_txn;   ///< wire bytes sent per commit per window
  /// Wire bytes delivered per commit per window; diverges from
  /// `net_per_txn` when messages straddle a window boundary or a chaos
  /// profile drops/duplicates wire attempts.
  std::vector<double> net_recv_per_txn;
  /// Per-class wire bytes sent per commit per window (foreground = txn
  /// execution traffic, bulk = migration/replica shipments). All zero
  /// unless the wire substrate is enabled via the tweak hook
  /// (config.net.enabled; DESIGN.md §5 "Wire substrate").
  std::vector<double> net_fg_per_txn;
  std::vector<double> net_bulk_per_txn;
  /// Wire-substrate queueing delays (enqueue -> serializer accept) and
  /// counters, whole-run; zero when the substrate is disabled.
  SimTime wire_fg_delay_p50_us = 0;
  SimTime wire_fg_delay_p99_us = 0;
  SimTime wire_bulk_delay_p99_us = 0;
  uint64_t wire_envelopes = 0;
  uint64_t wire_coalesced = 0;
  uint64_t wire_credit_stalls = 0;
  LatencyBreakdown avg_latency;
  SimTime latency_p50_us = 0;
  SimTime latency_p99_us = 0;
  double mean_throughput = 0;        ///< txn/s after the first window
};

/// Builds the deterministic synthetic Google trace shared by all runs.
const workload::SyntheticGoogleTrace& SharedTrace(int num_machines,
                                                  SimTime window_us,
                                                  int windows);

/// Runs the Google workload on a fresh cluster with the given router.
RunResult RunGoogleWorkload(engine::RouterKind kind, GoogleRunParams params);

/// Prints a CSV series table: one row per window, one column per system.
void PrintSeriesTable(const std::string& title,
                      const std::vector<std::string>& systems,
                      const std::vector<std::vector<double>>& columns,
                      double window_seconds, const std::string& unit);

double MeanOf(const std::vector<double>& series, size_t from, size_t to);

std::string KindName(engine::RouterKind kind);

}  // namespace hermes::bench

#endif  // HERMES_BENCH_BENCH_COMMON_H_
