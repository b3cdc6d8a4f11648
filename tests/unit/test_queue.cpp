#include "net/queue.hpp"

#include <gtest/gtest.h>

// Queues are admission rules over the backlog a link reports; FIFO order
// and byte accounting live in Link (test_link_node, test_link_properties).

namespace tfmcc {
namespace {

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q{2};
  EXPECT_TRUE(q.admit(0));
  EXPECT_TRUE(q.admit(1));
  EXPECT_FALSE(q.admit(2));
  EXPECT_FALSE(q.admit(3));
  EXPECT_EQ(q.drops(), 2);
  EXPECT_EQ(q.accepted(), 2);
  EXPECT_EQ(q.limit(), 2u);
}

TEST(DropTailQueue, AdmitsAgainOnceTheBacklogDrains) {
  DropTailQueue q{2};
  EXPECT_FALSE(q.admit(2));
  EXPECT_TRUE(q.admit(1));
  EXPECT_EQ(q.accepted() + q.drops(), 2);
}

TEST(DropTailQueue, ZeroLimitDropsEverything) {
  DropTailQueue q{0};
  EXPECT_FALSE(q.admit(0));
  EXPECT_EQ(q.drops(), 1);
  EXPECT_EQ(q.accepted(), 0);
}

TEST(RedQueue, AcceptsBelowMinThreshold) {
  RedQueue::Config cfg;
  cfg.limit_packets = 50;
  cfg.min_th = 5;
  cfg.max_th = 15;
  RedQueue q{cfg, Rng{1}};
  for (std::size_t backlog = 0; backlog < 4; ++backlog) {
    EXPECT_TRUE(q.admit(backlog));
  }
  EXPECT_EQ(q.drops(), 0);
}

TEST(RedQueue, HardLimitAlwaysDrops) {
  RedQueue::Config cfg;
  cfg.limit_packets = 5;
  RedQueue q{cfg, Rng{1}};
  for (std::size_t backlog = 0; backlog < 5; ++backlog) q.admit(backlog);
  EXPECT_FALSE(q.admit(5));
  EXPECT_FALSE(q.admit(6));
}

TEST(RedQueue, ProbabilisticDropsUnderSustainedLoad) {
  RedQueue::Config cfg;
  cfg.limit_packets = 100;
  cfg.min_th = 2;
  cfg.max_th = 6;
  cfg.weight = 0.5;  // fast-moving average for the test
  RedQueue q{cfg, Rng{1}};
  std::size_t backlog = 0;
  int drops = 0;
  for (int i = 0; i < 500; ++i) {
    if (q.admit(backlog)) {
      ++backlog;
    } else {
      ++drops;
    }
    if (backlog > 4) --backlog;  // keep the backlog near the thresholds
  }
  EXPECT_GT(drops, 0);    // RED drops before the hard limit
  EXPECT_LT(drops, 500);  // but not everything
  EXPECT_EQ(q.drops(), drops);
  EXPECT_EQ(q.accepted() + q.drops(), 500);
}

TEST(RedQueue, AverageIsAnEwmaOfTheBacklog) {
  RedQueue::Config cfg;
  cfg.weight = 0.25;
  RedQueue q{cfg, Rng{2}};
  q.admit(4);
  EXPECT_DOUBLE_EQ(q.avg_queue(), 1.0);
  q.admit(0);
  EXPECT_DOUBLE_EQ(q.avg_queue(), 0.75);
}

}  // namespace
}  // namespace tfmcc
