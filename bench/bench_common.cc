#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes::bench {

const workload::SyntheticGoogleTrace& SharedTrace(int num_machines,
                                                  SimTime window_us,
                                                  int windows) {
  struct Key {
    int machines;
    SimTime window;
    int windows;
    bool operator<(const Key& o) const {
      return std::tie(machines, window, windows) <
             std::tie(o.machines, o.window, o.windows);
    }
  };
  static std::map<Key, std::unique_ptr<workload::SyntheticGoogleTrace>>*
      traces = new std::map<Key, std::unique_ptr<workload::SyntheticGoogleTrace>>();
  const Key key{num_machines, window_us, windows};
  auto it = traces->find(key);
  if (it == traces->end()) {
    workload::GoogleTraceConfig config;
    config.num_machines = num_machines;
    config.window_us = window_us;
    config.num_windows = windows;
    it = traces
             ->emplace(key, std::make_unique<workload::SyntheticGoogleTrace>(
                                config))
             .first;
  }
  return *it->second;
}

RunResult RunGoogleWorkload(engine::RouterKind kind, GoogleRunParams params) {
  ClusterConfig config;
  config.num_nodes = params.num_nodes;
  config.num_records = params.num_records;
  config.workers_per_node = params.workers_per_node;
  config.max_batch_size = params.max_batch;
  if (params.epoch_us > 0) config.epoch_us = params.epoch_us;
  config.seed = params.seed;
  config.hermes.fusion_table_capacity = static_cast<size_t>(
      params.fusion_capacity_frac * static_cast<double>(params.num_records));

  if (params.tweak) params.tweak(config);
  std::unique_ptr<partition::PartitionMap> initial = std::move(params.initial);
  if (initial == nullptr) {
    initial = std::make_unique<partition::RangePartitionMap>(
        params.num_records, params.num_nodes);
  }
  engine::Cluster cluster(config, kind, std::move(initial));
  cluster.Load();
  if (params.enable_clay) {
    routing::ClayConfig clay;
    clay.monitor_window_us = params.window_us;
    clay.range_size = std::max<uint64_t>(params.num_records / 200, 1);
    cluster.EnableClay(clay);
  }

  const auto& trace =
      SharedTrace(params.num_nodes, params.window_us, params.windows);
  workload::YcsbConfig wl;
  wl.num_records = params.num_records;
  wl.num_partitions = params.num_nodes;
  wl.distributed_ratio = params.distributed_ratio;
  wl.length_mean = params.length_mean;
  wl.length_stddev = params.length_stddev;
  wl.hotspot_cycle_us = params.windows * params.window_us;
  wl.seed = params.seed;
  workload::YcsbWorkload gen(wl, &trace);

  workload::ClosedLoopDriver driver(
      &cluster, params.clients,
      [&gen](int, SimTime now) { return gen.Next(now); });
  const SimTime horizon = params.windows * params.window_us;
  driver.set_stop_time(horizon);
  driver.Start();
  cluster.RunUntil(horizon);
  cluster.Drain();

  RunResult result;
  const auto& m = cluster.metrics();
  const size_t metric_windows_per_trace_window =
      std::max<size_t>(params.window_us / m.window_us(), 1);
  result.throughput.assign(params.windows, 0.0);
  result.cpu.assign(params.windows, 0.0);
  result.net_per_txn.assign(params.windows, 0.0);
  result.net_recv_per_txn.assign(params.windows, 0.0);
  result.net_fg_per_txn.assign(params.windows, 0.0);
  result.net_bulk_per_txn.assign(params.windows, 0.0);
  const int total_workers = params.num_nodes * params.workers_per_node;
  for (int w = 0; w < params.windows; ++w) {
    double commits = 0, busy = 0, bytes = 0, recv = 0, fg = 0, bulk = 0;
    for (size_t i = 0; i < metric_windows_per_trace_window; ++i) {
      const size_t mw = w * metric_windows_per_trace_window + i;
      if (mw >= m.windows().size()) break;
      commits += static_cast<double>(m.windows()[mw].commits);
      busy += static_cast<double>(m.windows()[mw].busy_us);
      bytes += static_cast<double>(m.windows()[mw].net_bytes);
      recv += static_cast<double>(m.windows()[mw].net_bytes_received);
      fg += static_cast<double>(m.windows()[mw].net_fg_bytes);
      bulk += static_cast<double>(m.windows()[mw].net_bulk_bytes);
    }
    result.throughput[w] = commits;
    result.cpu[w] =
        busy / (static_cast<double>(params.window_us) * total_workers);
    result.net_per_txn[w] = commits > 0 ? bytes / commits : 0.0;
    result.net_recv_per_txn[w] = commits > 0 ? recv / commits : 0.0;
    result.net_fg_per_txn[w] = commits > 0 ? fg / commits : 0.0;
    result.net_bulk_per_txn[w] = commits > 0 ? bulk / commits : 0.0;
  }
  const net::Wire& wire = cluster.wire();
  result.wire_fg_delay_p50_us =
      wire.QueueDelay(TrafficClass::kForeground).Percentile(0.50);
  result.wire_fg_delay_p99_us =
      wire.QueueDelay(TrafficClass::kForeground).Percentile(0.99);
  result.wire_bulk_delay_p99_us =
      wire.QueueDelay(TrafficClass::kBulk).Percentile(0.99);
  result.wire_envelopes = wire.envelopes_sent();
  result.wire_coalesced = wire.coalesced_messages();
  result.wire_credit_stalls = wire.credit_stalls();
  result.avg_latency = m.AverageLatency();
  result.latency_p50_us = m.latency_histogram().Percentile(0.50);
  result.latency_p99_us = m.latency_histogram().Percentile(0.99);
  result.mean_throughput =
      m.Throughput(params.window_us, horizon);
  return result;
}

void PrintSeriesTable(const std::string& title,
                      const std::vector<std::string>& systems,
                      const std::vector<std::vector<double>>& columns,
                      double window_seconds, const std::string& unit) {
  std::printf("\n== %s (%s) ==\n", title.c_str(), unit.c_str());
  std::printf("window_end_s");
  for (const auto& s : systems) std::printf(",%s", s.c_str());
  std::printf("\n");
  size_t rows = 0;
  for (const auto& c : columns) rows = std::max(rows, c.size());
  for (size_t r = 0; r < rows; ++r) {
    std::printf("%.0f", (r + 1) * window_seconds);
    for (const auto& c : columns) {
      std::printf(",%.2f", r < c.size() ? c[r] : 0.0);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

double MeanOf(const std::vector<double>& series, size_t from, size_t to) {
  if (to > series.size()) to = series.size();
  if (from >= to) return 0.0;
  double sum = 0;
  for (size_t i = from; i < to; ++i) sum += series[i];
  return sum / static_cast<double>(to - from);
}

std::string KindName(engine::RouterKind kind) {
  switch (kind) {
    case engine::RouterKind::kCalvin:
      return "calvin";
    case engine::RouterKind::kGStore:
      return "gstore";
    case engine::RouterKind::kLeap:
      return "leap";
    case engine::RouterKind::kTPart:
      return "tpart";
    case engine::RouterKind::kHermes:
      return "hermes";
  }
  return "unknown";
}

}  // namespace hermes::bench
