// The repository benchmark: one fixed-seed cluster per workload on one host
// thread. It times only the measured phase (the sequenced run plus the
// drain), checks the outputs against a serial reference, and prints every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Usage and the metric catalogue are in perfbench/README.md.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/config.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/types.h"
#include "engine/cluster.h"
#include "host.h"
#include "partition/partition_map.h"
#include "refkernel.h"
#include "replay.h"
#include "spans.h"
#include "workload/google_trace.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using hermes::SecToSim;
using hermes::SimTime;
using hermes::TxnRequest;
using hermes::engine::Cluster;
using hermes::engine::RouterKind;

// ---------------------------------------------------------------------------
// Workloads. Every figure below is fixed; only --seed varies the inputs.

struct Spec {
  const char* name;
  RouterKind kind;
  bool tpcc;
  int clients;
  SimTime horizon;  ///< clients stop submitting here; the cluster drains
  SimTime warmup;   ///< throughput is counted over [warmup, horizon)
  /// RunUntil slices of the measured phase, sized to ~150 ms of host time
  /// each (see RunRep).
  int slices;
};

// Google (§5.2.2): 10 nodes, 100k records, 2-record YCSB txns, 50%
// distributed, 50% read-write, trace-driven per-node skew and a moving
// global hotspot whose cycle is the horizon; fusion table 2.5% of records.
// Windows, horizon, hotspot cycle and warm-up are those of the 10-node row
// of bench/bench_scalability.cc (bench_common's 4-s trace windows).
constexpr int kGoogleNodes = 10;
constexpr uint64_t kGoogleRecords = 100'000;
constexpr SimTime kGoogleWindow = SecToSim(4);
constexpr int kGoogleWindows = 4;

const Spec kSpecs[] = {
    {"google_hermes", RouterKind::kHermes, false, 2500,
     kGoogleWindow * kGoogleWindows, kGoogleWindow, 64},
    {"google_calvin", RouterKind::kCalvin, false, 2500,
     kGoogleWindow * kGoogleWindows, kGoogleWindow, 20},
    // TPC-C New-Order + Payment, 16 warehouses on 8 nodes, 90% of
    // requests on node 0's warehouses (Fig. 11).
    {"tpcc_hot", RouterKind::kHermes, true, 1600, SecToSim(12), SecToSim(4),
     16},
};

/// Everything one run builds before its measured phase.
struct Rig {
  hermes::ClusterConfig config;
  std::unique_ptr<hermes::workload::SyntheticGoogleTrace> trace;
  std::unique_ptr<hermes::workload::YcsbWorkload> ycsb;
  std::unique_ptr<hermes::workload::TpccWorkload> tpcc;
  std::unique_ptr<Cluster> cluster;

  std::unique_ptr<hermes::partition::PartitionMap> MakePartitioning() const {
    if (tpcc) return tpcc->WarehousePartitioning();
    return std::make_unique<hermes::partition::RangePartitionMap>(
        config.num_records, config.num_nodes);
  }
  TxnRequest Next(SimTime now) {
    return ycsb ? ycsb->Next(now) : tpcc->Next(now);
  }
};

std::unique_ptr<Rig> MakeRig(const Spec& spec, uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  hermes::ClusterConfig& config = rig->config;
  config.workers_per_node = 2;
  config.seed = seed;
  config.sim.threads = 0;
  if (spec.tpcc) {
    hermes::workload::TpccConfig tc;
    tc.num_warehouses = 16;
    tc.num_nodes = 8;
    tc.hotspot_concentration = 0.9;
    tc.seed = seed;
    rig->tpcc = std::make_unique<hermes::workload::TpccWorkload>(tc);
    config.num_nodes = tc.num_nodes;
    config.num_records = rig->tpcc->num_records();
  } else {
    hermes::workload::GoogleTraceConfig gt;
    gt.num_machines = kGoogleNodes;
    gt.window_us = kGoogleWindow;
    gt.num_windows = kGoogleWindows;
    rig->trace = std::make_unique<hermes::workload::SyntheticGoogleTrace>(gt);
    hermes::workload::YcsbConfig wl;
    wl.num_records = kGoogleRecords;
    wl.num_partitions = kGoogleNodes;
    wl.hotspot_cycle_us = spec.horizon;
    wl.seed = seed;
    rig->ycsb =
        std::make_unique<hermes::workload::YcsbWorkload>(wl, rig->trace.get());
    config.num_nodes = kGoogleNodes;
    config.num_records = kGoogleRecords;
  }
  config.hermes.fusion_table_capacity = config.num_records / 40;  // 2.5%
  rig->cluster =
      std::make_unique<Cluster>(config, spec.kind, rig->MakePartitioning());
  rig->cluster->Load();
  return rig;
}

// ---------------------------------------------------------------------------
// Closed-loop clients: one outstanding transaction each, as in the paper.

class Clients {
 public:
  Clients(Rig* rig, int n, SimTime stop, SpanLog* spans)
      : rig_(rig), stop_(stop), spans_(spans), expect_abort_(n, 0) {}

  void Start() {
    for (int c = 0; c < static_cast<int>(expect_abort_.size()); ++c) Next(c);
  }

  uint64_t submitted() const { return submitted_; }
  uint64_t answered() const { return answered_; }
  /// Answers that contradict the request: an abort the workload did not
  /// ask for, or a commit of a transaction it marked to abort.
  uint64_t unexpected() const { return unexpected_; }
  std::vector<SimTime>& latencies() { return latencies_; }

 private:
  void Next(int c) {
    Cluster& cluster = *rig_->cluster;
    const SimTime now = cluster.Now();
    if (now >= stop_) return;
    TxnRequest txn;
    {
      SpanLog::Scope span(spans_, Layer::kWorkloadGen, submitted_);
      txn = rig_->Next(now);
    }
    txn.client = c;
    expect_abort_[c] = txn.user_abort ? 1 : 0;
    ++submitted_;
    cluster.Submit(std::move(txn),
                   [this, c](const hermes::engine::TxnResult& r) {
                     ++answered_;
                     if (r.aborted != (expect_abort_[c] != 0)) ++unexpected_;
                     if (!r.aborted) latencies_.push_back(r.latency.total_us);
                     Next(c);
                   });
  }

  Rig* rig_;
  SimTime stop_;
  SpanLog* spans_;
  std::vector<uint8_t> expect_abort_;
  uint64_t submitted_ = 0;
  uint64_t answered_ = 0;
  uint64_t unexpected_ = 0;
  std::vector<SimTime> latencies_;
};

// ---------------------------------------------------------------------------
// One repetition: set-up, measured phase, checks and counters.

/// Deterministic outputs of a run: identical for every repetition at one
/// seed, which the benchmark checks.
struct Outputs {
  uint64_t submitted = 0;
  uint64_t answered = 0;
  uint64_t unexpected = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t events = 0;
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t batches = 0;
  uint64_t logged_txns = 0;
  uint64_t decision_digest = 0;
  uint64_t placement_digest = 0;
  uint64_t content_checksum = 0;
  uint64_t store_records = 0;
  uint64_t inflight = 0;
  uint64_t executor_aborts = 0;
  uint64_t evictions = 0;
  uint64_t reroutes = 0;
  uint64_t fusion_size = 0;
  uint64_t key_overrides = 0;
  SimTime p50_us = 0;
  SimTime p99_us = 0;
  double throughput = 0;
  hermes::LatencyBreakdown avg;

  /// Every field is an 8-byte scalar, so there is no padding to compare.
  /// A traced repetition allocates span storage, so its allocation counts
  /// are left out of the comparison.
  bool Reproduces(const Outputs& ref, bool traced) const {
    Outputs o = *this;
    if (traced) {
      o.allocs = ref.allocs;
      o.alloc_bytes = ref.alloc_bytes;
    }
    return std::memcmp(&o, &ref, sizeof(Outputs)) == 0;
  }
};

/// Reference-kernel time that defines the host speed `wall_s` is scaled
/// to (about the kernel's median on the 4-CPU Xeon the bounds were set on).
constexpr double kRefNominalSeconds = 0.030;
/// Set-up samples per section of a run, taken in groups between
/// reference-kernel runs.
constexpr int kSetupGroups = 6;
constexpr int kSetupsPerGroup = 4;

/// `raw_s` of host time scaled to the reference host speed, given the
/// reference-kernel times measured just before and just after it.
double Scaled(double raw_s, double ref_before, double ref_after) {
  return raw_s * kRefNominalSeconds / (0.5 * (ref_before + ref_after));
}

struct Rep {
  double wall_s = 0;      ///< measured phase, scaled to reference speed
  double raw_wall_s = 0;  ///< measured phase, unscaled
  std::vector<double> ref_s;  ///< reference-kernel times around the slices
  Outputs out;
  std::unique_ptr<Rig> rig;  ///< kept only when the caller asks for it
};

SimTime Quantile(std::vector<SimTime>* v, double q) {
  if (v->empty()) return 0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + k, v->end());
  return (*v)[k];
}

uint64_t TelemetryValue(const Cluster& cluster, const std::string& name) {
  for (const auto& [n, v] : cluster.telemetry().Snapshot()) {
    if (n == name) return static_cast<uint64_t>(v);
  }
  return 0;
}

Rep RunRep(const Spec& spec, uint64_t seed, SpanLog* spans, bool keep_rig) {
  Rep rep;
  std::unique_ptr<Rig> rig = MakeRig(spec, seed);
  Clients clients(rig.get(), spec.clients, spec.horizon, spans);
  Cluster& cluster = *rig->cluster;
  if (spans->enabled()) {
    cluster.set_batch_tap([spans](const hermes::Batch& batch) {
      SpanLog::Scope span(spans, Layer::kSequencerTap, batch.id);
    });
  }

  // The measured phase runs as spec.slices equal RunUntil slices plus the
  // drain. Between slices, outside the timed intervals, the reference
  // kernel samples host speed, and each slice's host time is scaled by the
  // mean reference time on either side of it (see README "Noise").
  AllocCount allocs;
  double ref_before = ReferenceKernelSeconds();
  rep.ref_s.push_back(ref_before);
  for (int i = 0; i <= spec.slices; ++i) {
    const AllocCount a0 = AllocSnapshot();
    const int64_t t0 = NowNs();
    {
      SpanLog::Scope span(spans, Layer::kClusterRun, i);
      if (i == 0) clients.Start();
      if (i < spec.slices) {
        cluster.RunUntil(spec.horizon * (i + 1) / spec.slices);
      } else {
        cluster.Drain();
      }
    }
    const double slice_s = (NowNs() - t0) * 1e-9;
    allocs += AllocSnapshot() - a0;
    const double ref_after = ReferenceKernelSeconds();
    rep.ref_s.push_back(ref_after);
    rep.raw_wall_s += slice_s;
    rep.wall_s += Scaled(slice_s, ref_before, ref_after);
    ref_before = ref_after;
  }

  Outputs& o = rep.out;
  o.submitted = clients.submitted();
  o.answered = clients.answered();
  o.unexpected = clients.unexpected();
  o.commits = cluster.metrics().total_commits();
  o.aborts = cluster.metrics().total_aborts();
  o.allocs = allocs.calls;
  o.alloc_bytes = allocs.bytes;
  o.events = cluster.simulator().events_executed();
  o.net_msgs = cluster.network().total_messages();
  o.net_bytes = cluster.network().total_bytes();
  o.batches = cluster.command_log().size();
  for (const hermes::Batch& b : cluster.command_log().batches()) {
    o.logged_txns += b.txns.size();
  }
  o.decision_digest = cluster.decision_digest().value();
  o.placement_digest = cluster.placement_digest().value();
  o.content_checksum = cluster.ContentChecksum();
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    o.store_records += cluster.node(n).store().size();
  }
  o.inflight = cluster.executor().inflight();
  o.executor_aborts = cluster.executor().aborted();
  o.evictions = TelemetryValue(cluster, "hermes_router_evictions_total");
  o.reroutes = TelemetryValue(cluster, "hermes_router_reroutes_total");
  o.fusion_size =
      cluster.fusion_table() ? cluster.fusion_table()->size() : 0;
  o.key_overrides = cluster.ownership().key_overlay().size();
  o.p50_us = Quantile(&clients.latencies(), 0.50);
  o.p99_us = Quantile(&clients.latencies(), 0.99);
  o.throughput = cluster.metrics().Throughput(spec.warmup, spec.horizon);
  o.avg = cluster.metrics().AverageLatency();

  cluster.set_batch_tap(nullptr);
  if (keep_rig) rep.rig = std::move(rig);
  return rep;
}

// ---------------------------------------------------------------------------
// Output.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

const char* EnvOrEmpty(const char* name) {
  const char* v = hermes::EnvRead(name);
  return v != nullptr ? v : "";
}

std::string StampJson(const HostStamp& host, const std::string& workload,
                      uint64_t seed, const Outputs& o, int reps) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%u,\"cpu_model\":\"%s\",\"cpu_mhz\":%.0f,"
      "\"build_type\":\"%s\",\"compiler\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%" PRIu64 ",\"reps\":%d,\"decision_digest\":\"%016" PRIx64
      "\",\"placement_digest\":\"%016" PRIx64 "\",\"commits\":%" PRIu64
      ",\"HERMES_SIM_THREADS\":\"%s\",\"HERMES_TRACE\":\"%s\","
      "\"HERMES_HASH_SALT\":\"%s\"}",
      host.nproc, JsonEscape(host.cpu_model).c_str(), host.cpu_mhz,
      JsonEscape(host.build_type).c_str(), JsonEscape(host.compiler).c_str(),
      workload.c_str(), seed, reps, o.decision_digest, o.placement_digest,
      o.commits, EnvOrEmpty("HERMES_SIM_THREADS"), EnvOrEmpty("HERMES_TRACE"),
      EnvOrEmpty("HERMES_HASH_SALT"));
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// The three environment variables that change how the library runs.
/// Any value but the default makes results incomparable (an inherited
/// HERMES_SIM_THREADS alone makes a run several times slower), so the
/// benchmark refuses them instead of measuring something else.
bool EnvPinned() {
  bool ok = true;
  for (const char* name :
       {"HERMES_SIM_THREADS", "HERMES_TRACE", "HERMES_HASH_SALT",
        "HERMES_TRACE_KEY"}) {
    const char* v = hermes::EnvRead(name);
    if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s=%s\n", name, v);
      ok = false;
    }
  }
  return ok;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val);
    } else if (key == "--trace") {
      args->trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      args->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (!EnvPinned()) return 2;

  SpanLog spans;  // holds the replay and the first traced repetition
  SpanLog scratch;  // later traced repetitions: timed, not kept
  std::vector<double> walls, raw_walls, traced_walls, ref_times;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto check = [&](bool ok, const char* what) {
    if (ok) return;
    ++failed;
    failures.push_back(what);
  };

  // Set-up is short, so it is sampled many times, in sections spread over
  // the run: after the replay and after every later repetition. Host speed
  // shifts over seconds, and set-up and the reference kernel do not shift
  // by quite the same factor, so sampling several moments averages that
  // out. No section runs while a cluster is alive (set-ups then take about
  // twice as long) or before the first repetition (a cold heap, and the
  // peak RSS reported is the first repetition's). A section times
  // kSetupGroups groups of set-ups with a reference-kernel run before and
  // after each group, and scales its samples by the median of those kernel
  // runs, since a single kernel run jitters by 10-15%.
  std::vector<double> setups, raw_setups;
  int setup_sections = 0;
  auto sample_setups = [&] {
    std::vector<double> raw, refs = {ReferenceKernelSeconds()};
    for (int g = 0; g < kSetupGroups; ++g) {
      for (int i = 0; i < kSetupsPerGroup; ++i) {
        const int64_t s0 = NowNs();
        std::unique_ptr<Rig> spare = MakeRig(*spec, args.seed);
        raw.push_back((NowNs() - s0) * 1e-9);
      }
      refs.push_back(ReferenceKernelSeconds());
    }
    const double scale = kRefNominalSeconds / Median(refs);
    for (double r : raw) setups.push_back(r * scale);
    raw_setups.insert(raw_setups.end(), raw.begin(), raw.end());
    ++setup_sections;
  };

  // Repetition 1: untraced; its outputs are the reference every later
  // repetition must reproduce exactly, and its command log is replayed.
  Rep first = RunRep(*spec, args.seed, &scratch, /*keep_rig=*/true);
  const double peak_rss_mb = PeakRssMb();
  const Outputs ref = first.out;
  walls.push_back(first.wall_s);
  raw_walls.push_back(first.raw_wall_s);
  ref_times = first.ref_s;

  spans.set_enabled(args.trace);
  const Rig& rig = *first.rig;
  const uint64_t num_records = rig.config.num_records;
  const int num_nodes = rig.config.num_nodes;
  const LayerReplay replay = ReplayLayers(
      rig.config, spec->kind, [&rig] { return rig.MakePartitioning(); },
      rig.cluster->command_log().batches(), &spans);
  spans.set_enabled(false);
  first.rig.reset();
  sample_setups();

  auto check_outputs = [&](const Outputs& o, bool traced) {
    attempted += o.submitted;
    failed += o.unexpected + (o.submitted - o.answered);
    check(o.answered == o.submitted, "every submitted txn was answered");
    check(o.inflight == 0, "executor().inflight() == 0 after Drain()");
    check(o.store_records == num_records,
          "store sizes sum to num_records");
    check(o.Reproduces(ref, traced),
          "repetition reproduces the first bit for bit");
  };
  check_outputs(ref, false);
  check(ref.content_checksum == replay.serial_checksum,
        "ContentChecksum() equals the serial reference");
  check(replay.txns == ref.logged_txns, "replay routed every logged txn");

  // Further repetitions until the time budget is spent. A traced run
  // alternates traced and untraced repetitions so the tracing overhead is
  // measured under the same host conditions.
  double measured = first.raw_wall_s;
  bool traced_next = args.trace;
  while (measured < args.seconds || (args.trace && traced_walls.empty())) {
    SpanLog* log = &scratch;
    if (traced_next) {
      log = traced_walls.empty() ? &spans : &scratch;
      scratch.Clear();
      log->set_enabled(true);
    }
    Rep rep = RunRep(*spec, args.seed, log, /*keep_rig=*/false);
    log->set_enabled(false);
    check_outputs(rep.out, traced_next);
    (traced_next ? traced_walls : walls).push_back(rep.wall_s);
    if (!traced_next) raw_walls.push_back(rep.raw_wall_s);
    ref_times.insert(ref_times.end(), rep.ref_s.begin(), rep.ref_s.end());
    sample_setups();
    measured += rep.raw_wall_s;
    if (args.trace) traced_next = !traced_next;
  }
  scratch.Clear();
  const HostStamp host = ReadHost();
  const int reps = static_cast<int>(walls.size() + traced_walls.size());
  const std::string stamp =
      StampJson(host, args.workload, args.seed, ref, reps);
  std::printf("stamp %s\n", stamp.c_str());
  for (const std::string& f : failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  if (replay.store_misses > 0) {
    std::printf("note: store replay found %" PRIu64
                " accesses away from their routed owner\n",
                replay.store_misses);
  }

  const double wall_s = Median(walls);
  const double raw_wall_s = Median(raw_walls);
  const double commits = static_cast<double>(ref.commits);
  const double failed_frac = Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted));
  std::vector<Metric> e2e = {
      {"wall_s", wall_s, "s"},
      {"setup_s", Median(setups), "s"},
      {"allocs_per_txn", Ratio(static_cast<double>(ref.allocs), commits),
       "count"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_throughput_txn_s", ref.throughput, "txn/s"},
      {"sim_latency_p50_ms", ref.p50_us / 1e3, "ms"},
      {"sim_latency_mean_ms", ref.avg.total_us / 1e3, "ms"},
      {"sim_latency_p99_ms", ref.p99_us / 1e3, "ms"},
  };
  std::printf("end-to-end (%s, seed %" PRIu64 ", %zu untraced reps, "
              "%.0f commits/rep):\n",
              args.workload.c_str(), args.seed, walls.size(), commits);
  for (const Metric& m : e2e) {
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  // Printed, not gated: failed_frac is 0 on every correct run.
  std::printf("  %-22s %14.6g %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("  %-22s %14.6g %s\n", "raw_wall_s", raw_wall_s, "s");
  std::printf("  %-22s %14.6g %s (median of %zu runs)\n", "ref_kernel_ms",
              Median(ref_times) * 1e3, "ms", ref_times.size());
  std::printf("  %-22s %14.6g %s (%zu set-ups in %d sections)\n",
              "raw_setup_s", Median(raw_setups), "s", raw_setups.size(),
              setup_sections);
  std::printf("  repetitions wall_s/raw_wall_s:");
  for (size_t i = 0; i < walls.size(); ++i) {
    std::printf(" %.4f/%.4f", walls[i], raw_walls[i]);
  }
  std::printf("\n");

  std::vector<Metric> layers;
  if (args.trace) {
    spans.set_enabled(true);
    const double queue_s =
        ReplaySimQueue(ref.events, num_nodes,
                       static_cast<uint64_t>(spec->clients), args.seed, &spans);
    spans.set_enabled(false);
    const auto total = spans.TotalSeconds();
    const auto self = spans.SelfSeconds();
    auto at = [](const auto& arr, Layer l) {
      return arr[static_cast<size_t>(l)];
    };
    const double batches = static_cast<double>(replay.batches);
    const double txns = static_cast<double>(replay.txns);
    const double events = static_cast<double>(ref.events);
    const double run_s = at(total, Layer::kClusterRun);
    const hermes::LatencyBreakdown& avg = ref.avg;
    layers = {
        {"workload.gen_us", at(total, Layer::kWorkloadGen) * 1e6, "us"},
        {"workload.txns", static_cast<double>(ref.submitted), "count"},
        {"sequencer.batches", static_cast<double>(ref.batches), "count"},
        {"sequencer.txns_per_batch",
         Ratio(static_cast<double>(ref.logged_txns),
               static_cast<double>(ref.batches)),
         "count"},
        {"sequencer.wait_ms", avg.scheduling_us / 1e3, "ms"},
        {"router.us_per_batch", Ratio(replay.route_s * 1e6, batches), "us"},
        {"router.share", Ratio(replay.route_s, raw_wall_s), "ratio"},
        {"router.allocs_per_batch",
         Ratio(static_cast<double>(replay.route_allocs.calls), batches),
         "count"},
        {"router.remote_reads_per_txn",
         Ratio(static_cast<double>(replay.remote_reads), txns), "count"},
        {"router.migrations_per_txn",
         Ratio(static_cast<double>(replay.migrations), txns), "count"},
        {"router.reroutes_per_batch",
         Ratio(static_cast<double>(ref.reroutes), batches), "count"},
        {"fusion.evictions_per_txn",
         Ratio(static_cast<double>(ref.evictions), txns), "count"},
        {"fusion.size", static_cast<double>(ref.fusion_size), "count"},
        {"ownership.ns_per_lookup",
         Ratio(replay.owner_s * 1e9, static_cast<double>(replay.lookups)),
         "ns"},
        {"ownership.lookups_per_txn",
         Ratio(static_cast<double>(replay.lookups), txns), "count"},
        {"ownership.key_overrides", static_cast<double>(ref.key_overrides),
         "count"},
        {"locks.ns_per_request",
         Ratio(replay.lock_s * 1e9, static_cast<double>(replay.lock_requests)),
         "ns"},
        {"locks.requests_per_txn",
         Ratio(static_cast<double>(replay.lock_requests), txns), "count"},
        {"locks.blocked_frac",
         Ratio(static_cast<double>(replay.lock_blocked),
               static_cast<double>(replay.lock_acquires)),
         "ratio"},
        {"locks.allocs_per_request",
         Ratio(static_cast<double>(replay.lock_allocs.calls),
               static_cast<double>(replay.lock_requests)),
         "count"},
        {"locks.wait_ms", avg.lock_wait_us / 1e3, "ms"},
        {"store.ns_per_op",
         Ratio(replay.store_s * 1e9, static_cast<double>(replay.store_ops)),
         "ns"},
        {"store.ops_per_txn",
         Ratio(static_cast<double>(replay.store_ops), txns), "count"},
        {"store.extracts_per_txn",
         Ratio(static_cast<double>(replay.store_extracts), txns), "count"},
        {"store.exec_ms", avg.storage_us / 1e3, "ms"},
        {"cluster.run_s", run_s, "s"},
        {"executor.remote_wait_ms", avg.remote_wait_us / 1e3, "ms"},
        {"executor.other_ms", avg.other_us / 1e3, "ms"},
        {"executor.aborts", static_cast<double>(ref.executor_aborts), "count"},
        {"sim.events_per_txn", Ratio(events, commits), "count"},
        {"sim.ns_per_event", Ratio(run_s * 1e9, events), "ns"},
        {"sim.allocs_per_event",
         Ratio(static_cast<double>(ref.allocs), events), "count"},
        {"sim.queue_ns_per_event", Ratio(queue_s * 1e9, events), "ns"},
        {"net.msgs_per_txn", Ratio(static_cast<double>(ref.net_msgs), commits),
         "count"},
        {"net.bytes_per_txn",
         Ratio(static_cast<double>(ref.net_bytes), commits), "B"},
        {"trace.overhead_frac", Ratio(Median(traced_walls), wall_s) - 1.0,
         "ratio"},
    };
    std::printf("per-layer (traced run; replay = the run's own inputs "
                "re-issued through the layer's API):\n");
    for (const Metric& m : layers) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("self time per span layer (s):\n");
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      std::printf("  %-20s self %10.6f  total %10.6f\n",
                  LayerName(static_cast<Layer>(l)), self[l], total[l]);
    }
    std::printf("section 3.2.4 row: router.share on %s = %.4f of raw_wall_s\n",
                args.workload.c_str(), Ratio(replay.route_s, raw_wall_s));
    if (!args.trace_out.empty()) {
      if (spans.WriteChromeJson(args.trace_out, stamp)) {
        std::printf("wrote %s (%zu spans)\n", args.trace_out.c_str(),
                    spans.spans().size());
      } else {
        check(false, "trace file written");
      }
    }
  }

  const bool correct = failures.empty() && failed == 0;
  PrintResult(correct, attempted, failed, args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
