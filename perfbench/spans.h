#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host-time reading used for every benchmark measurement.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundary a span wraps. Spans are recorded only from the
/// benchmark's own files, around its calls into each layer's public API.
enum class Layer : uint8_t {
  kClusterRun,    ///< one Cluster::RunUntil slice or the Drain()
  kWorkloadGen,   ///< one generator call (a client's next transaction)
  kSequencerTap,  ///< one batch-tap callback (a batch was totally ordered)
  kRouterReplay,  ///< one Router::RouteBatch call of the replay
  kOwnerReplay,   ///< OwnershipMap::Owner calls for one replayed batch
  kLockReplay,    ///< LockManager Acquire/Release for one replayed batch
  kStoreReplay,   ///< RecordStore operations for one replayed batch
  kQueueReplay,   ///< the standalone Simulator schedule+run
  kCount,
};

const char* LayerName(Layer layer);

/// In-memory span log: name (layer), start, end, parent and an id (batch
/// id, txn submission index or slice index). Disabled logs record
/// nothing, so the same code path serves traced and untraced runs.
class SpanLog {
 public:
  struct Span {
    Layer layer;
    int32_t parent;  ///< index of the enclosing span, -1 at top level
    uint64_t id;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Opens and closes one span; nests under whatever span is open.
  class Scope {
   public:
    Scope(SpanLog* log, Layer layer, uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void Clear();

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of span durations per layer, in seconds.
  std::array<double, static_cast<size_t>(Layer::kCount)> TotalSeconds() const;
  /// Per layer: span durations minus the time their child spans cover.
  std::array<double, static_cast<size_t>(Layer::kCount)> SelfSeconds() const;

  /// Writes the spans as Chrome trace_event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span). `metadata` is a
  /// JSON object stored under "metadata". False on I/O error.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
