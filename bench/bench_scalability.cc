// Scalability with cluster size (the §1 claim behind deterministic
// databases: without 2PC, throughput scales with nodes *if* data
// placement keeps distributed-transaction costs down). Runs the Google
// workload at several cluster sizes with clients and database scaled
// proportionally, for Calvin and Hermes.
//
// Expected shape: both scale with node count; Hermes scales steeper
// because prescient routing keeps the added nodes busy even though the
// per-node load distribution is skewed and drifting.

#include <cstdio>

#include "bench_common.h"

using hermes::bench::GoogleRunParams;
using hermes::bench::RunGoogleWorkload;
using hermes::engine::RouterKind;

int main() {
  std::printf("Scalability: throughput vs cluster size under the Google "
              "workload (txn/s)\n\n");
  std::printf("nodes,calvin,hermes,speedup\n");
  for (int nodes : {2, 5, 10, 20}) {
    auto make = [nodes] {
      GoogleRunParams params;
      params.windows = 4;
      params.num_nodes = nodes;
      params.clients = 250 * nodes;
      params.num_records = 10'000u * nodes;
      return params;
    };
    const double calvin =
        RunGoogleWorkload(RouterKind::kCalvin, make()).mean_throughput;
    const double hermes =
        RunGoogleWorkload(RouterKind::kHermes, make()).mean_throughput;
    std::printf("%d,%.0f,%.0f,%.2fx\n", nodes, calvin, hermes,
                hermes / calvin);
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: both rise with nodes; hermes holds a "
              "consistent multiple by keeping load balanced\n");
  return 0;
}
