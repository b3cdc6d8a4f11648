#include "tfrc/equation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tfmcc::tcp_model {

namespace {

/// The loss-only factors of Eq. (1) at a given p, clamped to 1.
struct LossTerms {
  double p;
  double cwnd;  // sqrt(2bp/3)
  double rto;   // min(1, 3 sqrt(3bp/8))
  double q;     // 1 + 32p^2
};

LossTerms loss_terms(double p, double b) {
  p = std::min(p, 1.0);
  return {p, std::sqrt(2.0 * b * p / 3.0),
          std::min(1.0, 3.0 * std::sqrt(3.0 * b * p / 8.0)),
          1.0 + 32.0 * p * p};
}

double throughput_Bps(double packet_bytes, double r, const LossTerms& l) {
  const double t_rto = 4.0 * r;
  return packet_bytes / (r * l.cwnd + t_rto * l.rto * l.p * l.q);
}

}  // namespace

double throughput_Bps(double packet_bytes, SimTime rtt, double p, double b) {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return throughput_Bps(packet_bytes, rtt.to_seconds(), loss_terms(p, b));
}

void throughput_batch_Bps(double packet_bytes, const SimTime* rtts,
                          const double* ps, double* out_Bps, std::size_t n) {
  // Receiver blocks pass one shared p for the whole batch: recompute the
  // loss terms (two square roots) only when p changes.
  constexpr double b = 1.0;
  double last_p = std::numeric_limits<double>::quiet_NaN();
  LossTerms terms{};
  for (std::size_t i = 0; i < n; ++i) {
    if (ps[i] <= 0.0) {
      out_Bps[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    if (!(ps[i] == last_p)) {
      last_p = ps[i];
      terms = loss_terms(last_p, b);
    }
    out_Bps[i] = throughput_Bps(packet_bytes, rtts[i].to_seconds(), terms);
  }
}

double loss_for_throughput(double packet_bytes, SimTime rtt, double rate_Bps,
                           double b) {
  if (rate_Bps <= 0.0) return 1.0;
  if (rate_Bps >= throughput_Bps(packet_bytes, rtt, kMinLossRate, b)) {
    return kMinLossRate;
  }
  // throughput is strictly decreasing in p: bisection.
  double lo = kMinLossRate, hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (throughput_Bps(packet_bytes, rtt, mid, b) > rate_Bps) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double simple_throughput_Bps(double packet_bytes, SimTime rtt, double p) {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return packet_bytes * kMathisConstant / (rtt.to_seconds() * std::sqrt(p));
}

double simple_loss_for_throughput(double packet_bytes, SimTime rtt,
                                  double rate_Bps) {
  if (rate_Bps <= 0.0) return 1.0;
  const double root = packet_bytes * kMathisConstant /
                      (rtt.to_seconds() * rate_Bps);
  return std::clamp(root * root, kMinLossRate, 1.0);
}

double loss_events_per_rtt(double p, double b) {
  // L = p * (X * R / s); X*R/s is the rate in packets per RTT, so the s and
  // R dependencies cancel and any values may be used.
  constexpr double s = 1000.0;
  const SimTime r = SimTime::millis(100);
  const double pkts_per_rtt = throughput_Bps(s, r, p, b) * r.to_seconds() / s;
  return p * pkts_per_rtt;
}

}  // namespace tfmcc::tcp_model
