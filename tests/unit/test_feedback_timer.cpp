#include "tfmcc/feedback_timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace tfmcc {
namespace {

namespace ft = feedback_timer;

FeedbackTimerConfig make_cfg(BiasMethod m, double n = 10000.0,
                             double zeta = 0.25) {
  FeedbackTimerConfig cfg;
  cfg.method = m;
  cfg.n_estimate = n;
  cfg.zeta = zeta;
  return cfg;
}

TEST(FeedbackTimer, TruncateRatioEndpoints) {
  // §2.5.1: bias saturates at 50% and vanishes above 90% of the send rate.
  EXPECT_DOUBLE_EQ(ft::truncate_ratio(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ft::truncate_ratio(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ft::truncate_ratio(0.9), 1.0);
  EXPECT_DOUBLE_EQ(ft::truncate_ratio(1.0), 1.0);
  EXPECT_NEAR(ft::truncate_ratio(0.7), 0.5, 1e-12);
}

TEST(FeedbackTimer, DrawIsInUnitInterval) {
  Rng rng{1};
  for (auto m : {BiasMethod::kUnbiased, BiasMethod::kOffset,
                 BiasMethod::kModifiedOffset, BiasMethod::kModifiedN}) {
    const auto cfg = make_cfg(m);
    for (int i = 0; i < 10000; ++i) {
      const double t = ft::draw(0.5, cfg, rng);
      ASSERT_GE(t, 0.0);
      ASSERT_LE(t, 1.0);
    }
  }
}

TEST(FeedbackTimer, UnbiasedImmediateResponseProbabilityIsOneOverN) {
  // P(t == 0) = P(u <= 1/N).
  Rng rng{2};
  const auto cfg = make_cfg(BiasMethod::kUnbiased, 100.0);
  int zeros = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) zeros += (ft::draw(0.0, cfg, rng) == 0.0);
  EXPECT_NEAR(static_cast<double>(zeros) / n, 0.01, 0.002);
}

TEST(FeedbackTimer, OffsetBiasShiftsLowRateReceiversEarlier) {
  Rng rng{3};
  const auto cfg = make_cfg(BiasMethod::kOffset);
  double sum_low = 0, sum_high = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum_low += ft::draw(0.0, cfg, rng);
  for (int i = 0; i < n; ++i) sum_high += ft::draw(1.0, cfg, rng);
  // High-x receivers are offset by zeta on average.
  EXPECT_NEAR(sum_high / n - sum_low / n, cfg.zeta, 0.01);
}

TEST(FeedbackTimer, OffsetNeverBelowOffsetFloor) {
  Rng rng{4};
  const auto cfg = make_cfg(BiasMethod::kOffset);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(ft::draw(1.0, cfg, rng), cfg.zeta);
  }
}

TEST(FeedbackTimer, ModifiedNSaturatesForLowX) {
  // x = 0 reduces the effective N to its floor: nearly every draw becomes
  // an immediate response.
  Rng rng{5};
  const auto cfg = make_cfg(BiasMethod::kModifiedN);
  int zeros = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) zeros += (ft::draw(0.0, cfg, rng) == 0.0);
  EXPECT_GT(static_cast<double>(zeros) / n, 0.3);
}

TEST(FeedbackTimer, CdfMatchesEmpiricalDistribution) {
  for (auto m : {BiasMethod::kUnbiased, BiasMethod::kOffset,
                 BiasMethod::kModifiedOffset, BiasMethod::kModifiedN}) {
    const auto cfg = make_cfg(m, 1000.0);
    Rng rng{6};
    const double x = 0.6;
    const int n = 100000;
    std::vector<double> draws(n);
    for (auto& d : draws) d = ft::draw(x, cfg, rng);
    for (double t : {0.1, 0.3, 0.5, 0.8}) {
      const auto below = std::count_if(draws.begin(), draws.end(),
                                       [&](double d) { return d <= t; });
      EXPECT_NEAR(static_cast<double>(below) / n, ft::cdf(t, x, cfg), 0.01)
          << "method=" << static_cast<int>(m) << " t=" << t;
    }
  }
}

TEST(FeedbackTimer, CdfIsMonotone) {
  const auto cfg = make_cfg(BiasMethod::kModifiedOffset);
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.01) {
    const double f = ft::cdf(t, 0.3, cfg);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

TEST(FeedbackTimer, FromUniformIsDeterministic) {
  const auto cfg = make_cfg(BiasMethod::kOffset);
  EXPECT_DOUBLE_EQ(ft::from_uniform(0.5, 0.3, cfg),
                   ft::from_uniform(0.5, 0.3, cfg));
  // u = 1 gives the maximum base timer.
  EXPECT_DOUBLE_EQ(ft::from_uniform(1.0, 0.0, make_cfg(BiasMethod::kUnbiased)),
                   1.0);
}

TEST(FeedbackTimer, BiasOrderingHolds) {
  // For the same uniform draw, a lower x never yields a later timer.
  const auto cfg = make_cfg(BiasMethod::kModifiedOffset);
  for (double u : {0.01, 0.2, 0.5, 0.9, 1.0}) {
    EXPECT_LE(ft::from_uniform(u, 0.2, cfg), ft::from_uniform(u, 0.8, cfg));
  }
}

/// The timer transform as written before log(N) was hoisted out of the
/// per-draw path: the reference the hoisted form must match bit for bit.
double reference_timer(double u, double x, const FeedbackTimerConfig& cfg) {
  auto base = [u](double n) {
    return std::max(0.0, 1.0 + std::log(u) / std::log(n));
  };
  switch (cfg.method) {
    case BiasMethod::kUnbiased:
      return base(cfg.n_estimate);
    case BiasMethod::kOffset:
      return cfg.zeta * std::clamp(x, 0.0, 1.0) +
             (1.0 - cfg.zeta) * base(cfg.n_estimate);
    case BiasMethod::kModifiedOffset:
      return cfg.zeta * ft::truncate_ratio(x) +
             (1.0 - cfg.zeta) * base(cfg.n_estimate);
    case BiasMethod::kModifiedN:
      return base(std::max(2.0, cfg.n_estimate * std::clamp(x, 0.0, 1.0)));
  }
  return base(cfg.n_estimate);
}

TEST(FeedbackTimer, HoistedLogNMatchesReferenceExactly) {
  for (const auto method : {BiasMethod::kUnbiased, BiasMethod::kOffset,
                            BiasMethod::kModifiedOffset,
                            BiasMethod::kModifiedN}) {
    for (const double n : {2.0, 37.0, 10000.0, 1e6}) {
      const auto cfg = make_cfg(method, n);
      const double ln_n = ft::log_n(cfg);
      for (const double u : {1e-300, 1e-9, 1e-4, 0.01, 0.1, 0.3, 0.5,
                             0.7311, 0.9, 0.999999, 1.0}) {
        for (const double x : {-0.5, 0.0, 1e-6, 0.25, 0.5, 0.55, 0.7, 0.9,
                               0.95, 1.0, 1.5}) {
          const double want = reference_timer(u, x, cfg);
          EXPECT_EQ(ft::from_uniform(u, x, cfg, ln_n), want)
              << "method " << static_cast<int>(method) << " n " << n
              << " u " << u << " x " << x;
          EXPECT_EQ(ft::from_uniform(u, x, cfg), want);
        }
      }
    }
  }
}

TEST(FeedbackTimer, HoistedDrawMatchesReferenceExactly) {
  for (const auto method : {BiasMethod::kUnbiased, BiasMethod::kOffset,
                            BiasMethod::kModifiedOffset,
                            BiasMethod::kModifiedN}) {
    const auto cfg = make_cfg(method);
    const double ln_n = ft::log_n(cfg);
    Rng hoisted{17}, plain{17}, reference{17};
    for (int i = 0; i < 1000; ++i) {
      const double x = (i % 23) / 22.0;
      const double want = reference_timer(reference.uniform01(), x, cfg);
      ASSERT_EQ(ft::draw(x, cfg, ln_n, hoisted), want) << i;
      ASSERT_EQ(ft::draw(x, cfg, plain), want) << i;
    }
  }
}

}  // namespace
}  // namespace tfmcc
