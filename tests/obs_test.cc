// Unit tests for the observability subsystem (src/obs/): trace ring
// bounds, tracer enable/mirror semantics, the trace digest, the telemetry
// registry's sorted export, and the Chrome trace_event JSON shape. The
// end-to-end properties (bit-identical traces across salts, chaos/degraded
// coverage) live in trace_determinism_test.
#include "obs/export.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace hermes::obs {
namespace {

TEST(TraceRingTest, FillsThenOverwritesOldest) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 4; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded, 4u);
  EXPECT_EQ(ring.dropped, 0u);

  // Two more pushes overwrite seq 0 and 1; memory stays bounded.
  for (uint64_t i = 4; i < 6; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded, 6u);
  EXPECT_EQ(ring.dropped, 2u);

  const std::vector<TraceEvent> in_order = ring.InOrder();
  ASSERT_EQ(in_order.size(), 4u);
  for (size_t i = 0; i < in_order.size(); ++i) {
    EXPECT_EQ(in_order[i].seq, 2 + i) << "oldest-first order broke at " << i;
  }
}

TEST(TraceRingTest, InOrderBeforeWrapIsInsertionOrder) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 3; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.Push(e);
  }
  const std::vector<TraceEvent> in_order = ring.InOrder();
  ASSERT_EQ(in_order.size(), 3u);
  for (size_t i = 0; i < in_order.size(); ++i) {
    EXPECT_EQ(in_order[i].seq, i);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  SimTime now = 42;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  EXPECT_FALSE(t.active());

  // Call sites guard with HERMES_TRACE_ACTIVE / the macro; an unguarded
  // Record() on an inactive tracer must still be a no-op.
  t.Record(EventKind::kTxnCommit, 0, 7);
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_EQ(t.digest().count(), 0u);
}

TEST(TracerTest, NullTracerMacroIsANoOp) {
  Tracer* none = nullptr;
  // Must compile and do nothing — this is the cost model for components
  // whose set_tracer was never called (e.g. bare routers in benches).
  HERMES_TRACE(none, EventKind::kTxnCommit, 0, 7);
  HERMES_TRACE_SPAN(none, EventKind::kPhaseExecute, 0, 7, Key(3), 0, 10);
  EXPECT_FALSE(HERMES_TRACE_ACTIVE(none));
}

TEST(TracerTest, EnabledTracerDigestsAndRoutesToNodeRings) {
  SimTime now = 100;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  t.set_enabled(true);
  ASSERT_TRUE(t.active());

  t.Record(EventKind::kBatchSequenced, kInvalidNode, 1);  // ring 0
  t.Record(EventKind::kTxnDispatch, 0, 2);                // ring 1 (node 0)
  now = 150;
  t.RecordSpan(EventKind::kPhaseExecute, 2, 2, Key(9), 120, 30);  // ring 3

  EXPECT_EQ(t.total_recorded(), 3u);
  ASSERT_EQ(t.num_rings(), 4u);  // cluster + nodes 0..2 (auto-grown)
  EXPECT_EQ(t.ring(0).recorded, 1u);
  EXPECT_EQ(t.ring(1).recorded, 1u);
  EXPECT_EQ(t.ring(2).recorded, 0u);
  EXPECT_EQ(t.ring(3).recorded, 1u);
  // Each ring digests its own events (7 Mix() words per event); the
  // tracer digest folds the non-empty rings (two words per ring) in ring
  // order.
  EXPECT_EQ(t.ring(0).digest.count(), 1u * 7)
      << "ring digest no longer covers the full event";
  EXPECT_EQ(t.ring(2).digest.count(), 0u);
  EXPECT_EQ(t.digest().count(), 3u * 2);

  const TraceEvent& span = t.ring(3).events[0];
  EXPECT_EQ(span.when, 120u);
  EXPECT_EQ(span.dur, 30u);
  EXPECT_EQ(span.seq, 0u);  // ring-local emission order
  EXPECT_EQ(span.key, Key(9));
}

TEST(TracerTest, SameEventsSameDigestDifferentOrderDifferentDigest) {
  SimTime now = 0;
  auto run = [&now](bool swapped) {
    Tracer t;
    t.Configure(16);
    t.set_clock(&now);
    t.set_enabled(true);
    if (swapped) {
      t.Record(EventKind::kTxnCommit, 1, 8);
      t.Record(EventKind::kTxnDispatch, 1, 8);
    } else {
      t.Record(EventKind::kTxnDispatch, 1, 8);
      t.Record(EventKind::kTxnCommit, 1, 8);
    }
    return t.digest().value();
  };
  EXPECT_EQ(run(false), run(false));
  EXPECT_NE(run(false), run(true)) << "digest must be order-sensitive";
}

TEST(TracerTest, MirrorOnlyTracerDoesNotDigestOrBuffer) {
  SimTime now = 5;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  t.set_mirror_key(123);  // HERMES_TRACE_KEY UX without full tracing
  EXPECT_TRUE(t.active());
  EXPECT_FALSE(t.enabled());

  t.Record(EventKind::kRecordExtract, 0, 1, Key(123));
  t.Record(EventKind::kRecordExtract, 0, 1, Key(456));
  // The mirror prints to stderr but must not perturb the digest or rings:
  // a run debugged with HERMES_TRACE_KEY still matches a clean run.
  EXPECT_EQ(t.digest().count(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(EventKindTest, NamesAndSpanKinds) {
  EXPECT_STREQ(EventKindName(EventKind::kTxnDispatch), "txn_dispatch");
  EXPECT_STREQ(EventKindName(EventKind::kFusionEvict), "fusion_evict");
  EXPECT_STREQ(EventKindName(EventKind::kUnavailable), "unavailable");
  EXPECT_TRUE(IsSpan(EventKind::kPhaseLockWait));
  EXPECT_TRUE(IsSpan(EventKind::kBatchRouted));
  EXPECT_FALSE(IsSpan(EventKind::kTxnCommit));
  EXPECT_FALSE(IsSpan(EventKind::kFusionEvict));
}

TEST(RegistryTest, SnapshotIsNameSortedAcrossRegistrationOrder) {
  Registry reg;
  uint64_t b = 2, a = 1;
  int64_t g = -3;
  reg.RegisterCounter("hermes_zeta_total", [&b] { return b; });
  reg.RegisterCounter("hermes_alpha_total", [&a] { return a; });
  reg.RegisterGauge("hermes_mid_gauge", [&g] { return g; });

  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "hermes_alpha_total");
  EXPECT_EQ(snap[0].second, 1);
  EXPECT_EQ(snap[1].first, "hermes_zeta_total");
  EXPECT_EQ(snap[1].second, 2);
  EXPECT_EQ(snap[2].first, "hermes_mid_gauge");
  EXPECT_EQ(snap[2].second, -3);

  // Closures read live values: no re-registration needed after updates.
  a = 10;
  EXPECT_EQ(reg.Snapshot()[0].second, 10);
}

TEST(RegistryTest, PrometheusTextShape) {
  Registry reg;
  reg.RegisterCounter("hermes_commits_total", [] { return uint64_t{7}; });
  reg.RegisterGauge("hermes_inflight", [] { return int64_t{2}; });
  reg.RegisterHistogram("hermes_latency_us", [] {
    HistogramSnapshot h;
    h.count = 3;
    h.sum = 60;
    h.buckets = {{10, 1}, {20, 2}};
    return h;
  });

  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE hermes_commits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_commits_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hermes_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("hermes_inflight 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hermes_latency_us histogram"),
            std::string::npos);
  // Cumulative buckets: le="20" counts the le="10" bucket too.
  EXPECT_NE(text.find("hermes_latency_us_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_latency_us_bucket{le=\"20\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_latency_us_sum 60"), std::string::npos);
  EXPECT_NE(text.find("hermes_latency_us_count 3"), std::string::npos);
}

TEST(ChromeTraceTest, JsonShapeAndMetadata) {
  SimTime now = 10;
  Tracer t;
  t.Configure(16);
  t.set_clock(&now);
  t.set_enabled(true);
  t.Record(EventKind::kBatchSequenced, kInvalidNode, 1, Key(-1), 5);
  t.RecordSpan(EventKind::kPhaseExecute, 0, 2, Key(7), 10, 30);

  const std::string json = ChromeTraceJson(t, /*lanes=*/4);
  // Structural markers rather than a JSON parser: the CI artifact step
  // loads the real output in a parser; here we pin the shape.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"batch_sequenced\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase_execute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"dur\":30"), std::string::npos);
  EXPECT_NE(json.find("\"trace_digest\""), std::string::npos);

  // Byte-identical on re-export: the exporter itself adds no state.
  EXPECT_EQ(json, ChromeTraceJson(t, /*lanes=*/4));
}

}  // namespace
}  // namespace hermes::obs
