#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_ms);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventId id = s.schedule_at(1_ms, [&] { fired = true; });
  EXPECT_TRUE(id.pending());
  s.cancel(id);
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeOnEmptyId) {
  Scheduler s;
  EventId empty;
  s.cancel(empty);  // must not crash
  EventId id = s.schedule_at(1_ms, [] {});
  s.cancel(id);
  s.cancel(id);
  s.run();
}

TEST(Scheduler, EmptyReportsTrueWhenOnlyCancelledEventsRemain) {
  // Regression: empty() used to answer from the raw heap, reporting false
  // while every remaining entry was cancelled (i.e. semantically gone).
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EventId a = s.schedule_at(1_ms, [] {});
  EventId b = s.schedule_at(2_ms, [] {});
  EXPECT_FALSE(s.empty());
  s.cancel(a);
  EXPECT_FALSE(s.empty());  // b is still pending
  s.cancel(b);
  EXPECT_TRUE(s.empty());
  // step()/run() semantics are unchanged: nothing left to execute.
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.executed(), 0u);
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(Scheduler, EmptyDropsCancelledHeadButKeepsLivePendingEvent) {
  Scheduler s;
  EventId head = s.schedule_at(1_ms, [] {});
  bool fired = false;
  s.schedule_at(2_ms, [&] { fired = true; });
  s.cancel(head);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RejectsEmptyCallbackAtScheduleTime) {
  // Regression: an empty EventCallback used to be accepted and blow up
  // step() with std::bad_function_call far from the offending call site.
  Scheduler s;
  EXPECT_THROW(s.schedule_at(1_ms, EventCallback{}), std::logic_error);
  EXPECT_THROW(s.schedule_in(1_ms, nullptr), std::logic_error);
  EXPECT_TRUE(s.empty());  // the rejected event was never enqueued
  s.run();                 // and the scheduler is still usable
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Scheduler, EventIdNotPendingAfterFire) {
  Scheduler s;
  EventId id = s.schedule_at(1_ms, [] {});
  s.run();
  EXPECT_FALSE(id.pending());
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(10_ms, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5_ms, [] {}), std::logic_error);
}

TEST(Scheduler, RescheduleMovesEventAndTakesFreshSeq) {
  Scheduler s;
  std::vector<int> order;
  EventId moved = s.schedule_at(1_ms, [&] { order.push_back(0); });
  s.schedule_at(3_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.reschedule(moved, 3_ms);  // now after event 1 at the same time
  EXPECT_TRUE(moved.pending());
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(s.now(), 3_ms);
  s.reschedule(moved, 9_ms);  // fired: a no-op
  EXPECT_TRUE(s.empty());
  EventId late = s.schedule_at(4_ms, [] {});
  EXPECT_THROW(s.reschedule(late, 2_ms), std::logic_error);
  s.reschedule(late, 3_ms);  // now itself is allowed
  s.run();
  EXPECT_EQ(s.now(), 3_ms);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_in(1_ms, chain);
  };
  s.schedule_at(SimTime::zero(), chain);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 4_ms);
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] { ++fired; });
  s.schedule_at(10_ms, [&] { ++fired; });
  s.run_until(5_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_ms);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilExecutesEventAtBoundary) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(5_ms, [&] { fired = true; });
  s.run_until(5_ms);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, EventLimitGuard) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_in(SimTime::zero(), forever); };
  s.schedule_at(SimTime::zero(), forever);
  EXPECT_THROW(s.run(1000), std::runtime_error);
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Scheduler, CancelledEventReleasesCallbackState) {
  Scheduler s;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> weak = token;
  EventId id = s.schedule_at(1_ms, [t = std::move(token)] { (void)t; });
  s.cancel(id);
  EXPECT_TRUE(weak.expired());  // captured state freed on cancellation
}

TEST(Simulator, FacadeSchedulesAndRuns) {
  Simulator sim{123};
  int fired = 0;
  sim.in(2_ms, [&] { ++fired; });
  sim.at(1_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2_ms);
}

TEST(Simulator, UidsAreUnique) {
  Simulator sim{1};
  EXPECT_NE(sim.next_uid(), sim.next_uid());
}

TEST(Simulator, RngStreamsReproducible) {
  Simulator a{99}, b{99};
  EXPECT_EQ(a.make_rng(5).next_u64(), b.make_rng(5).next_u64());
}

}  // namespace
}  // namespace tfmcc
