#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClusterRun: return "cluster.run";
    case Layer::kWorkloadGen: return "workload.gen";
    case Layer::kSequencerTap: return "sequencer.tap";
    case Layer::kRouterReplay: return "router.replay";
    case Layer::kOwnerReplay: return "ownership.replay";
    case Layer::kLockReplay: return "locks.replay";
    case Layer::kStoreReplay: return "store.replay";
    case Layer::kQueueReplay: return "sim.queue_replay";
    case Layer::kCount: break;
  }
  return "unknown";
}

SpanLog::Scope::Scope(SpanLog* log, Layer layer, uint64_t id) : log_(log) {
  if (!log_->enabled_) return;
  index_ = static_cast<int32_t>(log_->spans_.size());
  const int32_t parent = log_->open_.empty() ? -1 : log_->open_.back();
  log_->spans_.push_back(Span{layer, parent, id, NowNs(), 0});
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->spans_[index_].end_ns = NowNs();
  log_->open_.pop_back();
}

void SpanLog::Clear() {
  spans_.clear();
  open_.clear();
}

std::array<double, static_cast<size_t>(Layer::kCount)> SpanLog::TotalSeconds()
    const {
  std::array<double, static_cast<size_t>(Layer::kCount)> out{};
  for (const Span& s : spans_) {
    out[static_cast<size_t>(s.layer)] += (s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

std::array<double, static_cast<size_t>(Layer::kCount)> SpanLog::SelfSeconds()
    const {
  std::array<double, static_cast<size_t>(Layer::kCount)> out{};
  // Children close before their parent and never overlap their siblings,
  // so a parent's covered time is the sum of its direct children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[static_cast<size_t>(s.layer)] +=
        (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":%s,"
                  "\"traceEvents\":[",
               metadata.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"span\":%zu,\"parent\":%" PRId32 "}}",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 (s.start_ns - origin) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                 s.id, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
