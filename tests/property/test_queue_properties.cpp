#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "net/queue.hpp"
#include "util/rng.hpp"

// Admission properties of the queues over a random walk of the backlog a
// link would report: each admitted packet joins it, and departures drain it
// one packet at a time.  FIFO order and byte accounting are link properties
// (test_link_properties).

namespace tfmcc {
namespace {

/// (queue limit, arrival probability per step, seed).
using QParam = std::tuple<int, double, int>;

class QueueSweep : public ::testing::TestWithParam<QParam> {};

TEST_P(QueueSweep, DropTailInvariantsUnderRandomWorkload) {
  const auto [limit, p_enq, seed] = GetParam();
  DropTailQueue q{static_cast<std::size_t>(limit)};
  Rng rng{static_cast<std::uint64_t>(seed)};
  std::size_t backlog = 0;
  std::int64_t offered = 0;

  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(p_enq)) {
      const bool accepted = q.admit(backlog);
      ++offered;
      ASSERT_EQ(accepted, backlog < static_cast<std::size_t>(limit));
      if (accepted) ++backlog;
    } else if (backlog > 0) {
      --backlog;
    }
    ASSERT_LE(backlog, static_cast<std::size_t>(limit));
    ASSERT_EQ(q.accepted() + q.drops(), offered);
  }
}

TEST_P(QueueSweep, RedNeverExceedsHardLimit) {
  const auto [limit, p_enq, seed] = GetParam();
  RedQueue::Config cfg;
  cfg.limit_packets = static_cast<std::size_t>(limit);
  cfg.max_th = limit * 0.5;
  cfg.min_th = limit * 0.2;
  RedQueue q{cfg, Rng{static_cast<std::uint64_t>(seed + 100)}};
  Rng rng{static_cast<std::uint64_t>(seed)};
  std::size_t backlog = 0;
  std::int64_t offered = 0;
  double avg = 0.0;

  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(p_enq)) {
      avg = (1.0 - cfg.weight) * avg +
            cfg.weight * static_cast<double>(backlog);
      const bool accepted = q.admit(backlog);
      ++offered;
      if (backlog >= static_cast<std::size_t>(limit)) {
        ASSERT_FALSE(accepted);
      }
      if (accepted) ++backlog;
      ASSERT_DOUBLE_EQ(q.avg_queue(), avg);
    } else if (backlog > 0) {
      --backlog;
    }
    ASSERT_LE(backlog, static_cast<std::size_t>(limit));
    ASSERT_EQ(q.accepted() + q.drops(), offered);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, QueueSweep,
                         ::testing::Combine(::testing::Values(5, 50, 200),
                                            ::testing::Values(0.4, 0.5, 0.7),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace tfmcc
