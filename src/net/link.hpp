#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

class Node;

/// Configuration of a unidirectional link.
struct LinkConfig {
  double rate_bps{1e6};          // transmission rate in bits/second
  SimTime delay{SimTime::millis(10)};  // propagation delay
  std::size_t queue_limit_packets{50}; // ns-2's default DropTail limit
  double loss_rate{0.0};         // independent Bernoulli loss probability
  bool use_red{false};           // RED instead of drop-tail (ablation)
  /// Random per-packet processing jitter added to the propagation delay,
  /// uniform in [0, jitter] and drawn when the link accepts the packet.
  /// Perfectly deterministic delays phase-lock ACK-clocked TCP arrivals to
  /// queue departures at a full drop-tail queue ("phase effects", Floyd &
  /// Jacobson 1992), starving paced flows; jitter on the order of one
  /// bottleneck packet service time breaks the lock, as ns-2's random
  /// processing overhead did.  It never reorders a link's arrivals (see
  /// Link).  Defaults to zero so unit tests stay exactly deterministic; the
  /// experiment scenarios enable it.
  SimTime jitter{SimTime::zero()};
};

/// A unidirectional point-to-point link: Bernoulli loss model, output
/// queue, serialising transmitter and propagation delay.
///
/// Transmission is modelled analytically, with one scheduler event per
/// packet.  The loss model drops packets on arrival at the link (before
/// queueing), modelling ns-2's error-model-on-link setup used for the
/// paper's lossy-path experiments.  The queue then admits or drops the
/// packet given the backlog of packets waiting to start.  An accepted
/// packet's whole schedule is fixed at that moment:
///
///   start   = max(now, done of the previous packet)
///   done    = start + size * 8 / rate
///   arrival = max(done + delay + jitter, arrival of the previous packet)
///
/// and only its arrival at the destination node is an event.  The max on
/// arrival keeps the link FIFO under jitter: receivers' loss detection
/// relies on in-order arrival.
///
/// Tie rule: at time `now` a packet with `start <= now` is in transmission,
/// not waiting, and one with `done <= now` has completed.  A packet sent at
/// exactly another's completion time therefore finds the next packet
/// already transmitting, and delivered_packets() counts a transmission
/// that completes at exactly `now`.
///
/// set_delay() applies to every packet whose transmission completes after
/// the call (`done > now`), including those already accepted: their
/// arrivals are recomputed in order, with their jitter draws and the FIFO
/// guard, and rescheduled.
class Link {
 public:
  Link(Simulator& sim, Node& to, LinkConfig cfg, Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Submit a packet for transmission (may be dropped by loss model/queue).
  /// Takes a reference so multicast fan-out shares one PacketPtr across all
  /// branches without per-branch refcount churn; the arrival event copies
  /// it once on accept.
  void send(const PacketPtr& p);

  const LinkConfig& config() const { return cfg_; }
  Node& destination() { return to_; }
  const Node& destination() const { return to_; }

  SimTime transmission_time(std::int32_t bytes) const {
    return SimTime::seconds(static_cast<double>(bytes) * 8.0 / cfg_.rate_bps);
  }

  // Counters for experiment harnesses.  Packet conservation holds at every
  // instant: offered = loss_model_drops() + queue_drops() + accepted, and
  // accepted = delivered_packets() + in_link_packets().
  /// Transmissions completed by now, and their bytes.
  std::int64_t delivered_packets() const;
  std::int64_t delivered_bytes() const;
  /// Accepted packets whose transmission has not completed by now: the
  /// waiting backlog plus the packet in transmission.
  std::int64_t in_link_packets() const;
  std::int64_t queue_drops() const { return queue_->drops(); }
  std::int64_t loss_model_drops() const { return loss_drops_; }
  const Queue& queue() const { return *queue_; }

  /// Change the Bernoulli loss rate mid-experiment (fig. 11 join/leave
  /// scenarios reconfigure paths while the simulation runs).
  void set_loss_rate(double p) { cfg_.loss_rate = p; }
  /// Change the propagation delay mid-experiment (fig. 13 RTT changes).
  void set_delay(SimTime d);

 private:
  /// An accepted packet whose transmission had not completed at the last
  /// send().  Entries are in send order, so start, done and arrival are
  /// all non-decreasing along the ring.
  struct Pending {
    SimTime start;
    SimTime done;
    SimTime jitter;
    SimTime arrival;
    EventId event;  // the arrival
    std::int32_t bytes;
  };

  /// Folds entries with done <= now into the delivered counters.
  void retire(SimTime now);
  /// Leading entries with done <= now, not yet retired.
  std::size_t completed_pending() const;
  /// Ring index of the i-th oldest entry.
  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (ring_.size() - 1);
  }

  Simulator& sim_;
  Node& to_;
  LinkConfig cfg_;
  Rng rng_;
  std::unique_ptr<Queue> queue_;
  // FIFO ring with a power-of-two capacity that grows on demand: a link
  // typically holds a packet or two, a congested bottleneck up to its
  // queue limit plus one.
  std::vector<Pending> ring_;
  std::size_t head_{0};
  std::size_t size_{0};
  SimTime last_arrival_{};     // FIFO guard: arrival of the newest packet
  SimTime retired_arrival_{};  // arrival of the newest retired packet
  std::int64_t delivered_{0};  // retired entries only
  std::int64_t delivered_bytes_{0};
  std::int64_t loss_drops_{0};
};

}  // namespace tfmcc
