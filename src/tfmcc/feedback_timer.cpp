#include "tfmcc/feedback_timer.hpp"

#include <algorithm>
#include <cmath>

namespace tfmcc::feedback_timer {

namespace {

constexpr double kMinModifiedN = 2.0;

double effective_n(double x, const FeedbackTimerConfig& cfg) {
  return std::max(kMinModifiedN, cfg.n_estimate * std::clamp(x, 0.0, 1.0));
}

/// max(0, 1 + log_N(u)) for u in (0,1]: the basic exponential timer, Eq. (2),
/// with ln_n = log(N).
double base_timer(double u, double ln_n) {
  return std::max(0.0, 1.0 + std::log(u) / ln_n);
}

/// CDF of base_timer at t in [0,1]:  P(u <= N^(t-1)) = N^(t-1).
double base_cdf(double t, double n) {
  if (t < 0.0) return 0.0;
  if (t >= 1.0) return 1.0;
  return std::pow(n, t - 1.0);
}

}  // namespace

double truncate_ratio(double x) {
  return (std::clamp(x, 0.5, 0.9) - 0.5) / 0.4;
}

double log_n(const FeedbackTimerConfig& cfg) { return std::log(cfg.n_estimate); }

double draw(double x, const FeedbackTimerConfig& cfg, Rng& rng) {
  return draw(x, cfg, log_n(cfg), rng);
}

double from_uniform(double u, double x, const FeedbackTimerConfig& cfg) {
  return from_uniform(u, x, cfg, log_n(cfg));
}

double draw(double x, const FeedbackTimerConfig& cfg, double ln_n, Rng& rng) {
  return from_uniform(rng.uniform01(), x, cfg, ln_n);
}

double from_uniform(double u, double x, const FeedbackTimerConfig& cfg,
                    double ln_n) {
  switch (cfg.method) {
    case BiasMethod::kUnbiased:
      return base_timer(u, ln_n);
    case BiasMethod::kOffset:
      return cfg.zeta * std::clamp(x, 0.0, 1.0) +
             (1.0 - cfg.zeta) * base_timer(u, ln_n);
    case BiasMethod::kModifiedOffset:
      return cfg.zeta * truncate_ratio(x) +
             (1.0 - cfg.zeta) * base_timer(u, ln_n);
    case BiasMethod::kModifiedN:
      return base_timer(u, std::log(effective_n(x, cfg)));
  }
  return base_timer(u, ln_n);
}

double cdf(double t, double x, const FeedbackTimerConfig& cfg) {
  switch (cfg.method) {
    case BiasMethod::kUnbiased:
      return base_cdf(t, cfg.n_estimate);
    case BiasMethod::kOffset: {
      const double off = cfg.zeta * std::clamp(x, 0.0, 1.0);
      return base_cdf((t - off) / (1.0 - cfg.zeta), cfg.n_estimate);
    }
    case BiasMethod::kModifiedOffset: {
      const double off = cfg.zeta * truncate_ratio(x);
      return base_cdf((t - off) / (1.0 - cfg.zeta), cfg.n_estimate);
    }
    case BiasMethod::kModifiedN:
      return base_cdf(t, effective_n(x, cfg));
  }
  return base_cdf(t, cfg.n_estimate);
}

}  // namespace tfmcc::feedback_timer
