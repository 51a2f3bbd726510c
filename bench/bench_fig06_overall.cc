// Reproduces Fig. 6(a)(b): overall throughput of Hermes and the baselines
// under the complex Google workload.
//
//  (a) vs look-back approaches: Calvin (range), Clay, Schism 1/2 (offline
//      "optimal" plans trained on two distinct trace windows).
//  (b) vs on-line approaches: Calvin, G-Store, T-Part, LEAP.
//
// Expected shape (paper): Clay ~ Calvin; each Schism plan helps only near
// its training window; G-Store ~ Calvin (+2%), LEAP above them, T-Part
// higher still, Hermes best overall (29%-137% over the baselines).

#include <cstdio>

#include "bench_common.h"
#include "routing/schism_partitioner.h"
#include "workload/ycsb.h"

namespace {

using hermes::SimTime;
using hermes::bench::GoogleRunParams;
using hermes::bench::MeanOf;
using hermes::bench::PrintSeriesTable;
using hermes::bench::RunGoogleWorkload;
using hermes::bench::RunResult;
using hermes::bench::SharedTrace;
using hermes::engine::RouterKind;

/// Trains Schism offline on the trace slice [from_window, to_window).
std::unique_ptr<hermes::partition::PartitionMap> TrainSchism(
    const GoogleRunParams& params, int from_window, int to_window) {
  const auto& trace =
      SharedTrace(params.num_nodes, params.window_us, params.windows);
  hermes::workload::YcsbConfig wl;
  wl.num_records = params.num_records;
  wl.num_partitions = params.num_nodes;
  wl.hotspot_cycle_us = params.windows * params.window_us;
  wl.seed = 999;  // offline trace, distinct from the live run
  hermes::workload::YcsbWorkload gen(wl, &trace);

  hermes::routing::SchismPartitioner schism(
      params.num_records, std::max<uint64_t>(params.num_records / 500, 1));
  const SimTime lo = from_window * params.window_us;
  const SimTime hi = to_window * params.window_us;
  const SimTime step = (hi - lo) / 20'000;
  for (SimTime t = lo; t < hi; t += step) {
    schism.Observe(gen.Next(t));
  }
  return schism.Partition(params.num_nodes);
}

}  // namespace

int main() {
  auto base = [] { return GoogleRunParams{}; };
  std::printf("Fig. 6 reproduction: overall throughput under the synthetic "
              "Google workload\n");
  const GoogleRunParams defaults;
  const double window_s = defaults.window_us / 1e6;
  const size_t n = defaults.windows;

  // ---- (a) look-back approaches ----
  RunResult calvin = RunGoogleWorkload(RouterKind::kCalvin, base());
  GoogleRunParams clay_params = base();
  clay_params.enable_clay = true;
  RunResult clay = RunGoogleWorkload(RouterKind::kCalvin, std::move(clay_params));
  GoogleRunParams schism1_params = base();
  schism1_params.initial = TrainSchism(defaults, 1, 4);
  RunResult schism1 =
      RunGoogleWorkload(RouterKind::kCalvin, std::move(schism1_params));
  GoogleRunParams schism2_params = base();
  schism2_params.initial = TrainSchism(defaults, 7, 10);
  RunResult schism2 =
      RunGoogleWorkload(RouterKind::kCalvin, std::move(schism2_params));
  RunResult hermes = RunGoogleWorkload(RouterKind::kHermes, base());

  PrintSeriesTable(
      "Fig 6a: Hermes vs look-back approaches",
      {"calvin", "clay", "schism1", "schism2", "hermes"},
      {calvin.throughput, clay.throughput, schism1.throughput,
       schism2.throughput, hermes.throughput},
      window_s, "committed txns per window");

  // ---- (b) on-line approaches ----
  RunResult gstore = RunGoogleWorkload(RouterKind::kGStore, base());
  RunResult tpart = RunGoogleWorkload(RouterKind::kTPart, base());
  RunResult leap = RunGoogleWorkload(RouterKind::kLeap, base());

  PrintSeriesTable(
      "Fig 6b: Hermes vs on-line approaches",
      {"calvin", "gstore", "tpart", "leap", "hermes"},
      {calvin.throughput, gstore.throughput, tpart.throughput,
       leap.throughput, hermes.throughput},
      window_s, "committed txns per window");

  std::printf("\nsummary (mean txn/window, windows 2..%zu):\n", n);
  auto row = [&](const char* name, const RunResult& r) {
    std::printf("  %-8s %8.0f  (%+.0f%% vs calvin)\n", name,
                MeanOf(r.throughput, 2, n),
                100.0 * (MeanOf(r.throughput, 2, n) /
                             MeanOf(calvin.throughput, 2, n) -
                         1.0));
  };
  row("calvin", calvin);
  row("clay", clay);
  row("schism1", schism1);
  row("schism2", schism2);
  row("gstore", gstore);
  row("tpart", tpart);
  row("leap", leap);
  row("hermes", hermes);
  return 0;
}
