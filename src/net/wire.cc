#include "net/wire.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace hermes::net {

// ---------------------------------------------------------------------------
// DelayHistogram

DelayHistogram::DelayHistogram() : buckets_(kBuckets, 0) {}

size_t DelayHistogram::BucketFor(SimTime v) {
  if (v < 1) v = 1;
  int band = 63 - __builtin_clzll(v);
  if (band >= 30) band = 29;
  const uint64_t base = 1ULL << band;
  const size_t sub = band == 0 ? 0 : ((v - base) * kSubBuckets) / base;
  return static_cast<size_t>(band) * kSubBuckets +
         std::min<size_t>(sub, kSubBuckets - 1);
}

SimTime DelayHistogram::UpperBound(size_t bucket) {
  const size_t band = bucket / kSubBuckets;
  const size_t sub = bucket % kSubBuckets;
  const uint64_t base = 1ULL << band;
  return base + (base * (sub + 1)) / kSubBuckets;
}

void DelayHistogram::Record(SimTime delay_us) {
  ++buckets_[BucketFor(delay_us)];
  ++count_;
}

SimTime DelayHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const auto target =
      static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > target) return UpperBound(b);
  }
  return UpperBound(buckets_.size() - 1);
}

obs::HistogramSnapshot DelayHistogram::Snapshot() const {
  obs::HistogramSnapshot snap;
  snap.count = count_;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    snap.buckets.emplace_back(UpperBound(b), buckets_[b]);
    snap.sum += UpperBound(b) * buckets_[b];
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Wire

Wire::Wire(sim::Simulator* sim, sim::Network* network, const CostModel* costs,
           const NetConfig* config, int num_nodes)
    : sim_(sim), net_(network), costs_(costs), config_(config) {
  GrowLinks(num_nodes);
}

void Wire::GrowLinks(int num_nodes) {
  const size_t n = static_cast<size_t>(num_nodes);
  if (links_.size() >= n) return;
  for (auto& row : links_) row.resize(n);
  while (links_.size() < n) links_.emplace_back(n);
}

SimTime Wire::SerializationTime(uint64_t wire_bytes) const {
  // A zero rate derives the serializer from the cost model's per-byte wire
  // time, which is exactly what the Network charges per delivery — so the
  // serializer's occupancy and the message's wire time agree and nothing
  // is double-charged (the Send below is simply delayed until the
  // serializer frees up).
  const double us_per_byte = config_->bytes_per_us > 0
                                 ? 1.0 / config_->bytes_per_us
                                 : costs_->net_us_per_byte;
  return static_cast<SimTime>(std::llround(wire_bytes * us_per_byte));
}

bool Wire::CanAdmit(const Link& link, uint64_t wire_bytes) const {
  if (config_->link_credit_bytes == 0) return true;
  // An idle link always admits, so one oversized message can never wedge.
  if (link.outstanding == 0) return true;
  return link.outstanding + wire_bytes <= config_->link_credit_bytes;
}

void Wire::Send(NodeId src, NodeId dst, uint64_t payload_bytes,
                TrafficClass cls, sim::Task on_delivery) {
  assert(src >= 0 && src < static_cast<NodeId>(links_.size()));
  assert(dst >= 0 && dst < static_cast<NodeId>(links_.size()));
  if (!config_->enabled || src == dst) {
    net_->Send(src, dst, payload_bytes, std::move(on_delivery), cls);
    return;
  }
  // A send into a live cut bypasses the queue and parks in the Network's
  // holding pen: OnLinkCut already drained this link's queue into the pen,
  // so going straight there keeps per-link FIFO order intact.
  if (!net_->reachable(src, dst)) {
    net_->Send(src, dst, payload_bytes, std::move(on_delivery), cls);
    return;
  }
  if (cls == TrafficClass::kBulk && config_->coalesce_window_us > 0) {
    AppendEnvelope(src, dst, payload_bytes, std::move(on_delivery));
    return;
  }
  Link& link = links_[src][dst];
  Pending p;
  p.cls = cls;
  p.payload_bytes = payload_bytes;
  p.enqueued = sim_->Now();
  p.cbs.push_back(std::move(on_delivery));
  link.queue.push_back(std::move(p));
  Pump(src, dst);
}

void Wire::AppendEnvelope(NodeId src, NodeId dst, uint64_t payload_bytes,
                          sim::Task on_delivery) {
  Link& link = links_[src][dst];
  if (!link.env_open) {
    link.env_open = true;
    link.env_bytes = 0;
    link.env_msgs = 0;
    ++link.env_gen;
    // Window timer: seal the envelope after the coalescing window unless
    // something else (size cap, link cut) sealed it first — the
    // generation check makes a stale timer a no-op.
    const uint64_t gen = link.env_gen;
    sim_->Schedule(config_->coalesce_window_us, [this, src, dst, gen]() {
      Link& l = links_[src][dst];
      if (!l.env_open || l.env_gen != gen) return;
      FlushEnvelope(src, dst);
      Pump(src, dst);
    });
  }
  link.env_bytes += payload_bytes;
  ++link.env_msgs;
  link.env_cbs.push_back(std::move(on_delivery));
  if (config_->coalesce_max_bytes > 0 &&
      link.env_bytes >= config_->coalesce_max_bytes) {
    FlushEnvelope(src, dst);
    Pump(src, dst);
  }
}

void Wire::FlushEnvelope(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  if (!link.env_open) return;
  link.env_open = false;
  ++link.env_gen;  // invalidate the pending window timer
  envelopes_sent_ += 1;
  coalesced_messages_ += link.env_msgs;
  Pending p;
  p.cls = TrafficClass::kBulk;
  p.payload_bytes = link.env_bytes;
  p.enqueued = sim_->Now();
  p.cbs = std::move(link.env_cbs);
  link.env_cbs.clear();
  link.env_bytes = 0;
  link.env_msgs = 0;
  link.queue.push_back(std::move(p));
}

void Wire::Pump(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  if (link.timer_armed || link.queue.empty()) return;
  const SimTime now = sim_->Now();
  const SimTime start = std::max(now, link.busy_until);
  link.timer_armed = true;
  sim_->Schedule(start - now, [this, src, dst]() { TransmitNext(src, dst); });
}

void Wire::TransmitNext(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  link.timer_armed = false;
  if (link.queue.empty()) return;
  const SimTime now = sim_->Now();
  if (now < link.busy_until) {
    // The serializer advanced past this timer (an earlier transmission was
    // scheduled after it was armed); try again when it frees up.
    link.timer_armed = true;
    sim_->Schedule(link.busy_until - now,
                   [this, src, dst]() { TransmitNext(src, dst); });
    return;
  }

  // Fixed two-class weighted round-robin: the slot index alone decides the
  // preferred class; if that class has nothing admissible the other gets
  // the slot, so the link stays work-conserving.
  const int fg_w = std::max(config_->fg_weight, 0);
  const int bulk_w = std::max(config_->bulk_weight, 0);
  const uint64_t cycle = static_cast<uint64_t>(fg_w + bulk_w);
  const TrafficClass want =
      (cycle == 0 || link.wrr_slot % cycle < static_cast<uint64_t>(fg_w))
          ? TrafficClass::kForeground
          : TrafficClass::kBulk;
  const TrafficClass other = want == TrafficClass::kForeground
                                 ? TrafficClass::kBulk
                                 : TrafficClass::kForeground;

  size_t chosen = link.queue.size();
  for (TrafficClass cls : {want, other}) {
    for (size_t i = 0; i < link.queue.size(); ++i) {
      if (link.queue[i].cls != cls) continue;
      const uint64_t wire_bytes =
          link.queue[i].payload_bytes + costs_->message_overhead_bytes;
      if (CanAdmit(link, wire_bytes)) chosen = i;
      break;  // only the FIFO-first message of each class is eligible
    }
    if (chosen < link.queue.size()) break;
  }
  if (chosen >= link.queue.size()) {
    // Queue non-empty but nothing fits the credit window: outstanding is
    // necessarily non-zero, so a delivery (and its credit return) is in
    // flight and will re-pump this link.
    ++credit_stalls_;
    return;
  }

  Pending p = std::move(link.queue[chosen]);
  link.queue.erase(link.queue.begin() + static_cast<long>(chosen));
  const uint64_t wire_bytes = p.payload_bytes + costs_->message_overhead_bytes;
  queue_delay_[static_cast<int>(p.cls)].Record(now - p.enqueued);
  ++transmits_[static_cast<int>(p.cls)];
  link.outstanding += wire_bytes;
  ++link.wrr_slot;
  const SimTime ser = SerializationTime(wire_bytes);
  link.busy_until = now + ser;

  // Envelope callbacks run in append order, then the credit returns.
  net_->Send(src, dst, p.payload_bytes,
             [this, src, dst, wire_bytes, cbs = std::move(p.cbs)]() mutable {
               for (auto& cb : cbs) cb();
               ReturnCredit(src, dst, wire_bytes);
             },
             p.cls);

  if (!link.queue.empty()) {
    link.timer_armed = true;
    sim_->Schedule(ser, [this, src, dst]() { TransmitNext(src, dst); });
  }
}

void Wire::ReturnCredit(NodeId src, NodeId dst, uint64_t wire_bytes) {
  Link& link = links_[src][dst];
  assert(link.outstanding >= wire_bytes);
  link.outstanding -= wire_bytes;
  Pump(src, dst);
}

void Wire::OnLinkCut(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  FlushEnvelope(src, dst);
  // Drain the transmit queue FIFO into the Network: each Send parks in the
  // cut link's holding pen with its perturbation drawn now, in queue
  // order — exactly the order it would have hit the wire. These messages
  // never charged credits (they were not yet transmitted), so their
  // delivery callbacks return none.
  while (!link.queue.empty()) {
    Pending p = std::move(link.queue.front());
    link.queue.pop_front();
    net_->Send(src, dst, p.payload_bytes,
               [cbs = std::move(p.cbs)]() mutable {
                 for (auto& cb : cbs) cb();
               },
               p.cls);
  }
}

uint64_t Wire::queued_now() const {
  uint64_t total = 0;
  for (const auto& row : links_) {
    for (const Link& link : row) {
      for (const Pending& p : link.queue) total += p.cbs.size();
      total += link.env_msgs;
    }
  }
  return total;
}

}  // namespace hermes::net
