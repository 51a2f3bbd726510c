#!/usr/bin/env sh
# Runs the headline benchmarks and emits BENCH_overall.json: the Fig. 6
# overall-throughput summary (parsed from bench_fig06_overall's series
# table) plus the routing microbenchmark numbers (google-benchmark JSON
# from bench_micro_routing), one file for dashboards and regression
# tracking. EXPERIMENTS.md records the paper-vs-measured comparison.
#
# With NET_BENCH=1 it also runs bench_fig08_resource_usage (which ends
# with the congested-fabric raw-vs-coalesced pair, Fig 8d) and emits
# BENCH_net.json: per-class queueing-delay percentiles, envelope fold
# counters, and the headline latency/throughput for both runs, parsed
# from the bench's "NET <label> k=v..." lines. EXPERIMENTS.md records
# the expected deltas (coalescing cuts fg p99 queueing delay).
#
# Usage: scripts/bench_all.sh
#   BUILD_DIR    cmake build tree containing bench/ (default: build)
#   OUT          output JSON path (default: BENCH_overall.json in repo root)
#   FILTER       bench_micro_routing --benchmark_filter (default: all)
#   NET_BENCH    1 = also run the wire-substrate section (bench_fig08)
#   NET_OUT      its output path (default: BENCH_net.json in repo root)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_overall.json}"
FILTER="${FILTER:-.}"
FIG06="$BUILD_DIR/bench/bench_fig06_overall"
MICRO="$BUILD_DIR/bench/bench_micro_routing"

for bin in "$FIG06" "$MICRO"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (run: cmake -B $BUILD_DIR && cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

fig06_txt="$(mktemp)"
micro_json="$(mktemp)"
trap 'rm -f "$fig06_txt" "$micro_json"' EXIT

echo "== $FIG06 =="
"$FIG06" | tee "$fig06_txt"

echo "== $MICRO =="
"$MICRO" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$micro_json" \
  --benchmark_out_format=json

# Merge: the fig06 summary rows ("  <system> <mean> (<delta>% vs calvin)")
# become {"system": ..., "mean_txn_per_window": ..., "vs_calvin_pct": ...}
# and the google-benchmark JSON is embedded whole under "micro_routing".
# host_cpus is stamped so trajectory tooling can discount numbers measured
# on a starved container.
python3 - "$fig06_txt" "$micro_json" "$OUT" <<'EOF'
import json
import os
import re
import sys

fig06_path, micro_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

summary = []
in_summary = False
for line in open(fig06_path):
    if line.startswith("summary ("):
        in_summary = True
        continue
    if not in_summary:
        continue
    m = re.match(r"\s+(\S+)\s+(\d+)\s+\(([+-]\d+)% vs calvin\)", line)
    if m:
        summary.append({
            "system": m.group(1),
            "mean_txn_per_window": int(m.group(2)),
            "vs_calvin_pct": int(m.group(3)),
        })

if not summary:
    sys.exit("error: no summary rows parsed from bench_fig06_overall output")

with open(micro_path) as f:
    micro = json.load(f)

with open(out_path, "w") as f:
    json.dump({
        "host_cpus": os.cpu_count(),
        "fig06_overall": summary,
        "micro_routing": micro,
    }, f, indent=2, sort_keys=True)
    f.write("\n")
EOF

echo "wrote $OUT"

# ---- Wire-substrate congestion bench (BENCH_net.json) ----
if [ "${NET_BENCH:-0}" = "1" ]; then
  NET_OUT="${NET_OUT:-BENCH_net.json}"
  FIG08="$BUILD_DIR/bench/bench_fig08_resource_usage"
  if [ ! -x "$FIG08" ]; then
    echo "error: $FIG08 not built" >&2
    exit 1
  fi
  fig08_txt="$(mktemp)"
  trap 'rm -f "$fig06_txt" "$micro_json" "$fig08_txt"' EXIT
  echo "== $FIG08 =="
  "$FIG08" | tee "$fig08_txt"
  # Each "NET <label> k=v ..." line becomes one object keyed by label;
  # numeric values are parsed as numbers so dashboards can diff the raw
  # and coalesced runs directly.
  python3 - "$fig08_txt" "$NET_OUT" <<'EOF'
import json
import os
import sys

fig08_path, out_path = sys.argv[1], sys.argv[2]

runs = {}
for line in open(fig08_path):
    if not line.startswith("NET "):
        continue
    parts = line.split()
    label, fields = parts[1], parts[2:]
    run = {}
    for field in fields:
        key, _, value = field.partition("=")
        run[key] = float(value) if "." in value else int(value)
    runs[label] = run

if "congested_raw" not in runs or "congested_coalesced" not in runs:
    sys.exit("error: NET lines missing from bench_fig08_resource_usage output")

with open(out_path, "w") as f:
    json.dump({
        "host_cpus": os.cpu_count(),
        "wire_substrate": runs,
    }, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
EOF
fi
