#include "sim/network.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace hermes::sim {

Network::Network(Simulator* sim, const CostModel* costs, int num_nodes)
    : sim_(sim), costs_(costs) {
  EnsureCapacity(num_nodes);
}

uint64_t Network::Sum(const std::vector<uint64_t>& row) {
  uint64_t total = 0;
  for (uint64_t v : row) total += v;
  return total;
}

void Network::EnsureCapacity(int num_nodes) {
  const size_t n = static_cast<size_t>(num_nodes);
  if (bytes_sent_.size() >= n) return;
  for (std::vector<uint64_t>* row :
       {&bytes_sent_, &bytes_received_, &messages_received_}) {
    row->resize(n, 0);
  }
  for (std::vector<std::vector<uint64_t>>* matrix :
       {&link_messages_, &send_seq_}) {
    for (auto& row : *matrix) row.resize(n, 0);
    matrix->resize(n, std::vector<uint64_t>(n, 0));
  }
  for (auto& row : cut_) row.resize(n, 0);
  cut_.resize(n, std::vector<uint8_t>(n, 0));
  for (auto& row : held_) row.resize(n);
  while (held_.size() < n) held_.emplace_back(n);
}

bool Network::reachable(NodeId src, NodeId dst) const {
  return cut_[src][dst] == 0;
}

void Network::CutLink(NodeId src, NodeId dst) {
  assert(src != dst && "a node always reaches itself");
  if (cut_[src][dst]) return;
  cut_[src][dst] = 1;
  ++cut_links_;
}

void Network::HealLink(NodeId src, NodeId dst) {
  if (!cut_[src][dst]) return;
  cut_[src][dst] = 0;
  --cut_links_;
  // Release the pen in FIFO order. Each message keeps its send-time
  // perturbation (draws were keyed by link_seq at Send) and re-measures
  // its wire time from the heal point; per-link arrival order can still
  // interleave by jitter, exactly as live traffic can.
  std::vector<HeldMessage> pen = std::move(held_[src][dst]);
  held_[src][dst].clear();
  for (HeldMessage& m : pen) {
    ScheduleDelivery(src, dst, m.bytes, m.delivered, m.wire,
                     /*was_held=*/true, m.cls, std::move(m.cb));
  }
}

uint64_t Network::messages_held() const {
  uint64_t total = 0;
  for (const auto& row : held_) {
    for (const auto& pen : row) total += pen.size();
  }
  return total;
}

namespace {

// Receipt layout: src and dst in 16 bits each, then the traffic class,
// the was-held flag, and the delivered-copy count in the top 23 bits.
constexpr int kReceiptDstShift = 16;
constexpr int kReceiptClassShift = 32;
constexpr int kReceiptHeldShift = 40;
constexpr int kReceiptCopiesShift = 41;
constexpr uint64_t kReceiptNodeMask = 0xffff;

}  // namespace

void Network::ScheduleDelivery(NodeId src, NodeId dst, uint64_t bytes,
                               uint64_t delivered, SimTime wire, bool was_held,
                               TrafficClass cls, Task cb) {
  assert(static_cast<uint64_t>(src) <= kReceiptNodeMask &&
         static_cast<uint64_t>(dst) <= kReceiptNodeMask &&
         delivered < (uint64_t{1} << (64 - kReceiptCopiesShift)) &&
         "delivery receipt field overflow");
  const uint64_t receipt =
      static_cast<uint64_t>(src) |
      static_cast<uint64_t>(dst) << kReceiptDstShift |
      static_cast<uint64_t>(cls) << kReceiptClassShift |
      static_cast<uint64_t>(was_held) << kReceiptHeldShift |
      delivered << kReceiptCopiesShift;
  sim_->Schedule(
      wire, std::move(cb),
      Prelude{&Network::ChargeDelivery, this, bytes * delivered, receipt});
}

void Network::ChargeDelivery(void* self, uint64_t bytes_delivered,
                             uint64_t receipt) {
  Network& net = *static_cast<Network*>(self);
  const auto src = static_cast<NodeId>(receipt & kReceiptNodeMask);
  const auto dst =
      static_cast<NodeId>((receipt >> kReceiptDstShift) & kReceiptNodeMask);
  const auto cls = static_cast<int>((receipt >> kReceiptClassShift) & 0xff);
  const bool was_held = (receipt >> kReceiptHeldShift) & 1;
  const uint64_t delivered = receipt >> kReceiptCopiesShift;
  // A released message must never land under a still-live cut: the pen
  // only drains on heal, so a nonzero count means a release raced a
  // re-cut (the partition oracle asserts zero).
  if (was_held && net.cut_[src][dst]) ++net.cut_deliveries_;
  net.bytes_received_[dst] += bytes_delivered;
  net.messages_received_[dst] += delivered;
  net.class_bytes_received_[cls] += bytes_delivered;
}

void Network::Send(NodeId src, NodeId dst, uint64_t payload_bytes,
                   Task on_delivery, TrafficClass cls) {
  assert(src >= 0 && src < static_cast<NodeId>(bytes_sent_.size()));
  assert(dst >= 0 && dst < static_cast<NodeId>(bytes_sent_.size()));
  if (src == dst) {
    // Local hand-off: no wire bytes, no latency, but still asynchronous so
    // that callers never re-enter themselves.
    sim_->Schedule(0, std::move(on_delivery));
    return;
  }
  const uint64_t bytes = payload_bytes + costs_->message_overhead_bytes;
  const uint64_t link_seq = send_seq_[src][dst]++;

  Perturbation p;
  if (perturb_) p = perturb_(src, dst, bytes, sim_->Now(), link_seq);
  assert(p.dropped_attempts >= 0 && p.duplicates >= 0);

  // Every wire attempt — dropped, duplicated, or delivered — costs sender
  // bytes and counts on the directed link.
  const uint64_t attempts =
      1 + static_cast<uint64_t>(p.dropped_attempts) +
      static_cast<uint64_t>(p.duplicates);
  bytes_sent_[src] += bytes * attempts;
  messages_sent_ += attempts;
  class_bytes_sent_[static_cast<int>(cls)] += bytes * attempts;
  class_messages_sent_[static_cast<int>(cls)] += attempts;
  link_messages_[src][dst] += attempts;
  messages_dropped_ += static_cast<uint64_t>(p.dropped_attempts);
  messages_duplicated_ += static_cast<uint64_t>(p.duplicates);

  const SimTime wire =
      costs_->net_latency_us +
      static_cast<SimTime>(std::llround(bytes * costs_->net_us_per_byte)) +
      p.extra_delay_us;
  // Delivered copies (the real one plus dedup-suppressed duplicates) are
  // charged to the receiver by the delivery event itself.
  const uint64_t delivered = 1 + static_cast<uint64_t>(p.duplicates);
  // A send into a live cut parks in the per-link FIFO pen with its
  // charges and perturbation already final; HealLink releases it.
  // Sender-side counters above were charged as usual: the bytes left the
  // NIC and died on the cut wire.
  if (cut_[src][dst]) {
    held_[src][dst].push_back(
        HeldMessage{bytes, delivered, wire, cls, std::move(on_delivery)});
    ++messages_held_total_;
    return;
  }
  ScheduleDelivery(src, dst, bytes, delivered, wire, /*was_held=*/false, cls,
                   std::move(on_delivery));
}

}  // namespace hermes::sim
