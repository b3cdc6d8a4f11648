#include "net/link.hpp"

#include <algorithm>

#include "net/node.hpp"

namespace tfmcc {

Link::Link(Simulator& sim, Node& to, LinkConfig cfg, Rng rng)
    : sim_{sim}, to_{to}, cfg_{cfg}, rng_{std::move(rng)} {
  if (cfg_.use_red) {
    RedQueue::Config red;
    red.limit_packets = cfg_.queue_limit_packets;
    red.max_th = static_cast<double>(cfg_.queue_limit_packets) * 0.5;
    red.min_th = red.max_th / 3.0;
    queue_ = std::make_unique<RedQueue>(red, rng_.substream(1));
  } else {
    queue_ = std::make_unique<DropTailQueue>(cfg_.queue_limit_packets);
  }
}

void Link::retire(SimTime now) {
  while (size_ != 0 && ring_[slot(0)].done <= now) {
    const Pending& e = ring_[slot(0)];
    ++delivered_;
    delivered_bytes_ += e.bytes;
    retired_arrival_ = e.arrival;
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }
}

void Link::send(const PacketPtr& p) {
  if (cfg_.loss_rate > 0.0 && rng_.bernoulli(cfg_.loss_rate)) {
    ++loss_drops_;
    return;
  }
  const SimTime now = sim_.now();
  retire(now);
  // Every pending packet waits except the head once it has started.
  const std::size_t backlog =
      size_ - (size_ != 0 && ring_[slot(0)].start <= now ? 1 : 0);
  if (!queue_->admit(backlog)) return;

  if (size_ == ring_.size()) {
    std::vector<Pending> grown(std::max<std::size_t>(2, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = ring_[slot(i)];
    ring_ = std::move(grown);
    head_ = 0;
  }
  Pending e;
  e.start = size_ != 0 ? ring_[slot(size_ - 1)].done : now;
  e.done = e.start + transmission_time(p->size_bytes);
  e.jitter = cfg_.jitter > SimTime::zero()
                 ? cfg_.jitter * rng_.uniform(0.0, 1.0)
                 : SimTime::zero();
  e.arrival = std::max(e.done + cfg_.delay + e.jitter, last_arrival_);
  last_arrival_ = e.arrival;
  e.event = sim_.at(e.arrival, [node = &to_, p]() { node->receive(p); });
  e.bytes = p->size_bytes;
  ring_[slot(size_++)] = e;
}

void Link::set_delay(SimTime d) {
  cfg_.delay = d;
  retire(sim_.now());
  // What is left completes after now: recompute its arrivals in order.
  SimTime prev = retired_arrival_;
  for (std::size_t i = 0; i < size_; ++i) {
    Pending& e = ring_[slot(i)];
    e.arrival = std::max(e.done + d + e.jitter, prev);
    prev = e.arrival;
    sim_.scheduler().reschedule(e.event, e.arrival);
  }
  last_arrival_ = prev;
}

std::size_t Link::completed_pending() const {
  std::size_t n = 0;
  while (n < size_ && ring_[slot(n)].done <= sim_.now()) ++n;
  return n;
}

std::int64_t Link::delivered_packets() const {
  return delivered_ + static_cast<std::int64_t>(completed_pending());
}

std::int64_t Link::delivered_bytes() const {
  std::int64_t bytes = delivered_bytes_;
  for (std::size_t i = 0, n = completed_pending(); i < n; ++i) {
    bytes += ring_[slot(i)].bytes;
  }
  return bytes;
}

std::int64_t Link::in_link_packets() const {
  return static_cast<std::int64_t>(size_ - completed_pending());
}

}  // namespace tfmcc
