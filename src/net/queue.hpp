#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/rng.hpp"

namespace tfmcc {

/// Admission rule of a link's output queue.  The link itself schedules
/// every accepted packet (see Link); the queue only decides whether a
/// packet that survived the loss model joins the `backlog` packets already
/// waiting to start transmission, and counts the outcome.
class Queue {
 public:
  virtual ~Queue() = default;

  /// Admit or drop one arriving packet; `backlog` excludes the packet in
  /// transmission, if any.
  bool admit(std::size_t backlog) {
    const bool ok = accepts(backlog);
    ++(ok ? accepted_ : drops_);
    return ok;
  }

  std::int64_t drops() const { return drops_; }
  std::int64_t accepted() const { return accepted_; }

 private:
  virtual bool accepts(std::size_t backlog) = 0;

  std::int64_t drops_{0};
  std::int64_t accepted_{0};
};

/// Drop-tail with a packet-count limit — the queue discipline used for
/// every experiment in the paper ("drop-tail queues were used at the
/// routers", §4).
class DropTailQueue final : public Queue {
 public:
  explicit DropTailQueue(std::size_t limit_packets) : limit_{limit_packets} {}

  std::size_t limit() const { return limit_; }

 private:
  bool accepts(std::size_t backlog) override { return backlog < limit_; }

  std::size_t limit_;
};

/// Random Early Detection (Floyd & Jacobson 1993, "gentle" variant).
///
/// The paper notes that fairness "generally improves when active queuing
/// (e.g. RED) is used instead" of drop-tail; this implementation backs the
/// `ablation_red_queue` bench that checks exactly that claim.
class RedQueue final : public Queue {
 public:
  struct Config {
    std::size_t limit_packets{50};
    double min_th{5};     // packets
    double max_th{15};    // packets
    double max_p{0.10};   // drop probability at max_th
    double weight{0.002}; // EWMA weight for the average queue size
  };

  RedQueue(Config cfg, Rng rng) : cfg_{cfg}, rng_{std::move(rng)} {}

  double avg_queue() const { return avg_; }

 private:
  bool accepts(std::size_t backlog) override;

  Config cfg_;
  Rng rng_;
  double avg_{0.0};
  std::int64_t count_since_drop_{-1};
};

}  // namespace tfmcc
