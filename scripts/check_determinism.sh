#!/usr/bin/env sh
# Multi-salt determinism check, cross-process edition.
#
# The in-process tests already rerun their workloads under several
# SetHashSalt() values. This wrapper additionally proves the
# HERMES_HASH_SALT *environment* path: each profile below runs its test
# binary in separate processes under distinct env salts, and every line
# the binary prints under the profile's prefix — across all processes and
# all in-process salts — must be one value. Any difference means some
# decision depends on hash iteration order.
#
# The profiles:
#   DECISION_DIGEST      plain workload (determinism_perturbation_test)
#   CHAOS_PROFILE        seeded fault plan: mid-run crash + rejoin + link
#                        drop/duplicate/jitter (digests, checksum, commits,
#                        chaos counters, recovery times)
#   DEGRADED_PROFILE     kCrashNoStall plan: the retry-transcript digest
#                        and park/retry/watchdog counters, i.e. the full
#                        degraded decision history, not just the end state
#   TRACE_DIGEST         the FNV-1a digest over the structured trace stream
#   REPLICATION_PROFILE  read-heavy leased workload with a crash/rejoin
#                        lapsing every lease (digests, replica checksum,
#                        lease counters)
#   PARTITION_PROFILE    two-sided + one-way cuts, a gray link and the
#                        heartbeat failure detector (digests, held/miss/
#                        suspect/restore counters, retry digest)
#   NET_PROFILE          net-enabled lifetime: bounded links, coalescing,
#                        credit backpressure, AddNode and a cut/heal cycle
#                        (digests, envelope/transmit/stall counters,
#                        per-class queueing p99s)
#
# Usage: scripts/check_determinism.sh [build-dir]   (default: build)

set -eu

BUILD_DIR="${1:-build}"

# Env salts for the separate processes. 0 is the unsalted default; the
# others are arbitrary and distinct from the tests' in-process constants.
SALTS="0 0x5bd1e9955bd1e995 0x94d049bb133111eb"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

# One line per binary: test binary, gtest filter, comma-separated profile
# prefixes it prints.
while read -r bin filter prefixes; do
  [ -n "$bin" ] || continue
  path="$BUILD_DIR/tests/$bin"
  if [ ! -x "$path" ]; then
    echo "error: $path not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
    exit 2
  fi
  : >"$out"
  for salt in $SALTS; do
    echo "== $bin HERMES_HASH_SALT=$salt =="
    HERMES_HASH_SALT="$salt" "$path" --gtest_filter="$filter" | tee -a "$out"
  done
  for prefix in $(printf '%s' "$prefixes" | tr ',' ' '); do
    # In-process salt sweeps prefix their lines with "SALT <salt> ".
    lines="$(sed -n "s/^\(SALT [0-9a-fx]* \)\{0,1\}\($prefix .*\)/\2/p" "$out" \
      | sort -u)"
    count="$(printf '%s\n' "$lines" | grep -c . || true)"
    if [ "$count" -ne 1 ]; then
      echo "FAIL: expected one $prefix line across all salts, got $count:" >&2
      printf '%s\n' "$lines" >&2
      exit 1
    fi
    echo "OK: $prefix identical across all env and in-process salts:"
    echo "  $lines"
  done
done <<EOF
determinism_perturbation_test DeterminismPerturbationTest.* DECISION_DIGEST
chaos_property_test ChaosScriptProfile.* CHAOS_PROFILE,DEGRADED_PROFILE
trace_determinism_test TraceDeterminismTest.TraceBitIdenticalAcrossSalts TRACE_DIGEST
replica_lease_test ReplicaLeaseTest.DigestsInvariantAcrossSalts REPLICATION_PROFILE
partition_chaos_test PartitionScriptProfile.* PARTITION_PROFILE
wire_determinism_test NetScriptProfile.* NET_PROFILE
EOF
