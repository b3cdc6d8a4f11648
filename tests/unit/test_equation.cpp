#include "tfrc/equation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tfrc/equation_backend.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;
namespace tm = tcp_model;

TEST(Equation, ZeroLossIsInfinite) {
  EXPECT_TRUE(std::isinf(tm::throughput_Bps(1000, 100_ms, 0.0)));
  EXPECT_TRUE(std::isinf(tm::simple_throughput_Bps(1000, 100_ms, 0.0)));
}

TEST(Equation, KnownOperatingPoint) {
  // The paper's §3 anchor: s=1000 B, RTT=50 ms, p=10% -> fair rate around
  // 300 kbit/s.
  const double rate = tm::throughput_Bps(1000, 50_ms, 0.10);
  const double kbps = rate * 8.0 / 1000.0;
  EXPECT_GT(kbps, 200.0);
  EXPECT_LT(kbps, 400.0);
}

TEST(Equation, MonotonicallyDecreasingInLoss) {
  double prev = tm::throughput_Bps(1000, 100_ms, 1e-6);
  for (double p = 1e-5; p <= 1.0; p *= 3.0) {
    const double cur = tm::throughput_Bps(1000, 100_ms, p);
    EXPECT_LT(cur, prev) << "p=" << p;
    prev = cur;
  }
}

TEST(Equation, ScalesInverselyWithRtt) {
  const double x1 = tm::throughput_Bps(1000, 50_ms, 0.01);
  const double x2 = tm::throughput_Bps(1000, 100_ms, 0.01);
  EXPECT_NEAR(x1 / x2, 2.0, 1e-9);  // both terms scale linearly in R
}

TEST(Equation, ScalesLinearlyWithPacketSize) {
  const double x1 = tm::throughput_Bps(500, 50_ms, 0.01);
  const double x2 = tm::throughput_Bps(1000, 50_ms, 0.01);
  EXPECT_NEAR(x2 / x1, 2.0, 1e-9);
}

TEST(Equation, InverseRoundTripFullModel) {
  for (double p : {0.001, 0.01, 0.05, 0.2}) {
    const double rate = tm::throughput_Bps(1000, 80_ms, p);
    const double p_back = tm::loss_for_throughput(1000, 80_ms, rate);
    EXPECT_NEAR(p_back, p, p * 1e-4) << "p=" << p;
  }
}

TEST(Equation, InverseClampsExtremes) {
  // Absurdly high target rate -> minimal loss.
  EXPECT_DOUBLE_EQ(tm::loss_for_throughput(1000, 100_ms, 1e15),
                   tm::kMinLossRate);
  // Zero / negative rate -> total loss.
  EXPECT_DOUBLE_EQ(tm::loss_for_throughput(1000, 100_ms, 0.0), 1.0);
}

TEST(Equation, SimpleModelMatchesMathisForm) {
  const double s = 1000, p = 0.01;
  const double expect = s * std::sqrt(1.5) / (0.1 * std::sqrt(p));
  EXPECT_NEAR(tm::simple_throughput_Bps(s, 100_ms, p), expect, 1e-6);
}

TEST(Equation, SimpleInverseRoundTrip) {
  for (double p : {0.001, 0.01, 0.1}) {
    const double rate = tm::simple_throughput_Bps(1000, 60_ms, p);
    EXPECT_NEAR(tm::simple_loss_for_throughput(1000, 60_ms, rate), p, p * 1e-9);
  }
}

TEST(Equation, SimpleInverseIsMoreConservative) {
  // Appendix B: for the same target rate the simplified model implies a
  // *higher* loss rate (smaller initial interval), i.e. a more conservative
  // loss-history initialisation.
  for (double rate_kbps : {100.0, 500.0, 2000.0}) {
    const double rate = rate_kbps * 1000.0 / 8.0;
    EXPECT_GE(tm::simple_loss_for_throughput(1000, 100_ms, rate),
              tm::loss_for_throughput(1000, 100_ms, rate) * 0.99)
        << rate_kbps;
  }
}

TEST(Equation, LossEventsPerRttPeaksNearPointOneThree) {
  // Appendix A / fig. 17: max_p L(p) ~ 0.13 loss events per RTT (paper's
  // b = 2 model).
  double max_l = 0.0;
  for (double p = 1e-4; p <= 1.0; p *= 1.05) {
    max_l = std::max(max_l, tm::loss_events_per_rtt(p));
  }
  EXPECT_GT(max_l, 0.10);
  EXPECT_LT(max_l, 0.16);
}

TEST(Equation, LossEventsPerRttIndependentOfScale) {
  // L(p) must not depend on the packet size / RTT used internally.
  EXPECT_NEAR(tm::loss_events_per_rtt(0.01, 1.0),
              0.01 * tm::throughput_Bps(1000, 100_ms, 0.01) * 0.1 / 1000.0,
              1e-12);
}

TEST(Equation, DelayedAckModelIsSlower) {
  // b = 2 halves the per-RTT window growth: throughput drops by ~sqrt(2).
  const double x1 = tm::throughput_Bps(1000, 100_ms, 0.01, 1.0);
  const double x2 = tm::throughput_Bps(1000, 100_ms, 0.01, 2.0);
  EXPECT_GT(x1 / x2, 1.2);
  EXPECT_LT(x1 / x2, 1.5);
}

TEST(Equation, BatchMatchesScalarExactly) {
  // Runs of one shared p (the receiver-block case) interleaved with p
  // changes, p <= 0, p > 1 and extreme RTTs: the batch reuses its loss terms
  // only while p repeats, and must equal the scalar call bit for bit.
  const std::vector<double> p_values{0.01, 0.01, 0.01, 0.0,   0.01, -1.0,
                                     0.02, 0.02, 0.01, 1.0,   1.5,  2.0,
                                     2.0,  1e-8, 1e-12, 0.3,  0.3,  -0.0,
                                     0.3,  0.999999, 1e-3, 1e-3};
  const std::vector<SimTime> rtt_values{
      SimTime::zero(),       SimTime::nanos(1),       SimTime::micros(3),
      1_ms,                  SimTime::millis(37),     100_ms,
      SimTime::millis(499),  SimTime::seconds(7.5),   SimTime::seconds(1e6)};
  std::vector<double> ps;
  std::vector<SimTime> rtts;
  for (std::size_t i = 0; i < 5 * p_values.size(); ++i) {
    ps.push_back(p_values[i % p_values.size()]);
    rtts.push_back(rtt_values[(3 * i) % rtt_values.size()]);
  }
  std::vector<double> out(ps.size());
  tm::throughput_batch_Bps(1000.0, rtts.data(), ps.data(), out.data(),
                           ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(out[i], tm::throughput_Bps(1000.0, rtts[i], ps[i]))
        << "i=" << i << " p=" << ps[i];
  }
  const EquationBackend& f = float_equation_backend();
  std::vector<double> via_backend(ps.size());
  f.throughput_batch(1460.0, rtts.data(), ps.data(), via_backend.data(),
                     ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(via_backend[i], f.throughput_Bps(1460.0, rtts[i], ps[i]))
        << "i=" << i << " p=" << ps[i];
  }
}

}  // namespace
}  // namespace tfmcc
