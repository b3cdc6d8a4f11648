#pragma once

// Outside-in layer tracing for the benchmark harness.
//
// Nothing here touches the simulator's code.  Spans are opened around the
// public entry points the harness can reach: the Agent each protocol object
// is attached as (shims re-attached with Node::attach_agent), the
// EquationBackend handed in through TfmccConfig::equation (a decorator), and
// the receivers' join()/leave() calls the harness makes itself.  A span's
// self time is its duration minus the spans nested inside it, so the sum of
// every layer's self time equals the time covered by root spans and the
// remainder of the run phase is the engine's own time (scheduler, links,
// queues, node fan-out, timers, RNG, stats).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/node.hpp"
#include "tfrc/equation_backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

enum class Layer : std::size_t {
  kRx,          // TfmccReceiver::handle_packet
  kBlock,       // ModeledReceiverBlock::handle_packet
  kTx,          // TfmccSender::handle_packet (receiver reports)
  kEquation,    // EquationBackend calls
  kMembership,  // receiver / block join() and leave()
  kCount
};

struct LayerStats {
  std::int64_t calls{0};
  std::int64_t self_ns{0};  // time inside the layer's spans minus nested spans
  std::int64_t items{0};    // batch items (equation batches only)
};

/// Per-layer totals; value type so phases can be snapshotted and diffed.
struct TraceTotals {
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> layer{};
  std::int64_t root_ns{0};  // time covered by spans with no parent

  LayerStats& operator[](Layer l) { return layer[static_cast<std::size_t>(l)]; }
  const LayerStats& operator[](Layer l) const {
    return layer[static_cast<std::size_t>(l)];
  }
  TraceTotals& operator+=(const TraceTotals& o);
  TraceTotals operator-(const TraceTotals& o) const;
};

/// Span stack for one single-threaded simulation.
class Tracer {
 public:
  void open(Layer l) { stack_.push_back({l, Clock::now(), 0}); }
  void close();
  void add_items(Layer l, std::int64_t n) { totals_[l].items += n; }
  const TraceTotals& totals() const { return totals_; }
  /// Spans currently open; 0 between events.
  std::size_t depth() const { return stack_.size(); }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  TraceTotals totals_;
};

/// RAII span; a null tracer makes it a no-op so untraced code paths can
/// share the call site.
class Span {
 public:
  Span(Tracer* t, Layer l) : t_{t} {
    if (t_ != nullptr) t_->open(l);
  }
  ~Span() {
    if (t_ != nullptr) t_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Stands in for a protocol agent at its node port and times every packet
/// handed to it.  endpoint_count() is forwarded untimed: it is a one-line
/// getter whose timing would cost more than it measures.
class AgentShim final : public tfmcc::Agent {
 public:
  AgentShim(Tracer& tracer, Layer layer, tfmcc::Agent& inner)
      : tracer_{tracer}, layer_{layer}, inner_{inner} {}

  void handle_packet(const tfmcc::Packet& p) override {
    Span s{&tracer_, layer_};
    inner_.handle_packet(p);
  }
  int endpoint_count() const override { return inner_.endpoint_count(); }

 private:
  Tracer& tracer_;
  Layer layer_;
  tfmcc::Agent& inner_;
};

/// Timing decorator over an equation backend; results are the inner
/// backend's, bit for bit.
class TimedEquation final : public tfmcc::EquationBackend {
 public:
  TimedEquation(Tracer& tracer, const tfmcc::EquationBackend& inner)
      : tracer_{tracer}, inner_{inner} {}

  std::string_view name() const override { return inner_.name(); }
  double throughput_Bps(double packet_bytes, tfmcc::SimTime rtt,
                        double p) const override {
    Span s{&tracer_, Layer::kEquation};
    return inner_.throughput_Bps(packet_bytes, rtt, p);
  }
  double loss_for_throughput(double packet_bytes, tfmcc::SimTime rtt,
                             double rate_Bps) const override {
    Span s{&tracer_, Layer::kEquation};
    return inner_.loss_for_throughput(packet_bytes, rtt, rate_Bps);
  }
  void throughput_batch(double packet_bytes, const tfmcc::SimTime* rtts,
                        const double* ps, double* out_Bps,
                        std::size_t n) const override {
    Span s{&tracer_, Layer::kEquation};
    tracer_.add_items(Layer::kEquation, static_cast<std::int64_t>(n));
    inner_.throughput_batch(packet_bytes, rtts, ps, out_Bps, n);
  }

 private:
  Tracer& tracer_;
  const tfmcc::EquationBackend& inner_;
};

}  // namespace perfbench
