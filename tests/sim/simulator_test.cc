#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mn {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now().usec(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint{300}, [&] { order.push_back(3); });
  sim.schedule_at(TimePoint{100}, [&] { order.push_back(1); });
  sim.schedule_at(TimePoint{200}, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().usec(), 300);
}

TEST(Simulator, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint{50}, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired{};
  sim.schedule_at(TimePoint{100}, [&] {
    sim.schedule_after(usec(50), [&] { fired = sim.now(); });
  });
  sim.run_until_idle();
  EXPECT_EQ(fired.usec(), 150);
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.run_until(TimePoint{1000});
  bool fired = false;
  sim.schedule_at(TimePoint{10}, [&] {
    fired = true;
    EXPECT_EQ(sim.now().usec(), 1000);
  });
  sim.run_until_idle();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(TimePoint{5}, [&] { fired = true; });
  sim.cancel(id);
  sim.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(9999);
  SUCCEED();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint{100}, [&] { ++fired; });
  sim.schedule_at(TimePoint{200}, [&] { ++fired; });
  sim.run_until(TimePoint{150});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().usec(), 150);
  sim.run_until(TimePoint{250});
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(TimePoint{100}, [] {});
  sim.schedule_at(TimePoint{200}, [&] { fired = true; });
  sim.cancel(id);
  sim.run_until(TimePoint{300});
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(usec(10), chain);
  };
  sim.schedule_after(usec(10), chain);
  sim.run_until_idle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now().usec(), 1000);
  EXPECT_EQ(sim.events_fired(), 100u);
}

TEST(Timer, FiresOnceAfterDelay) {
  Simulator sim;
  int fires = 0;
  Timer t{sim, [&] { ++fires; }};
  t.restart(msec(5));
  EXPECT_TRUE(t.armed());
  sim.run_until_idle();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.now().usec(), 5000);
}

TEST(Timer, RestartResetsDeadline) {
  Simulator sim;
  TimePoint fired{};
  Timer t{sim, [&] { fired = sim.now(); }};
  t.restart(msec(5));
  sim.schedule_at(TimePoint{3000}, [&] { t.restart(msec(5)); });
  sim.run_until_idle();
  EXPECT_EQ(fired.usec(), 8000);
}

TEST(Timer, StopPreventsFiring) {
  Simulator sim;
  int fires = 0;
  Timer t{sim, [&] { ++fires; }};
  t.restart(msec(5));
  t.stop();
  sim.run_until_idle();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, DestructionCancelsPending) {
  Simulator sim;
  int fires = 0;
  {
    Timer t{sim, [&] { ++fires; }};
    t.restart(msec(5));
  }
  sim.run_until_idle();
  EXPECT_EQ(fires, 0);
}

// Cancel edge cases exercised by the fault injector's disarm path: an
// EventId may be cancelled after it fired, twice, or never — none of
// which may corrupt the pending_events() accounting.
TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_at(TimePoint{5}, [&] { ++fires; });
  sim.run_until_idle();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.cancel(id);  // already fired: must not resurrect a phantom entry
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule_at(TimePoint{10}, [&] { ++fires; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until_idle();
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DoubleCancelCountsOnce) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(TimePoint{5}, [&] { fired = true; });
  sim.schedule_at(TimePoint{6}, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(id);  // second cancel of the same id must not double-count
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until_idle();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PendingEventsNeverUnderflows) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_at(TimePoint{i * 10}, [] {}));
  }
  // Cancel everything twice, plus ids that never existed.
  for (const EventId id : ids) sim.cancel(id);
  for (const EventId id : ids) sim.cancel(id);
  sim.cancel(123456);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(Simulator, CancelledHeadDoesNotAdvanceClockInRunUntil) {
  Simulator sim;
  const EventId id = sim.schedule_at(TimePoint{100}, [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(TimePoint{50});
  EXPECT_EQ(sim.now().usec(), 50);
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression: with the cursor mid-L1-bucket, an event whose *time*
// distance is just under the L1 horizon (2^24 us) is already a full
// wheel revolution away in *bucket* distance.  Filing it into L1 by
// absolute bucket index would wrap it into the cursor's own bucket and
// fire it ~16.7 s early; it must take the overflow heap instead.
// (Constants mirror the engine: L1 buckets are 4096 us, 4096 of them.)
TEST(Simulator, L1HorizonBoundaryFromMidBucketCursor) {
  constexpr std::int64_t kBucket = 4096;
  constexpr std::int64_t kHorizon = kBucket * 4096;  // 2^24 us
  Simulator sim;
  // Park the cursor mid-bucket.
  sim.schedule_at(TimePoint{1000}, [] {});
  sim.run_until_idle();
  ASSERT_EQ(sim.now().usec(), 1000);

  std::vector<std::int64_t> fired;
  auto record = [&] { fired.push_back(sim.now().usec()); };
  // Last tick of the farthest in-range L1 bucket (bucket distance 4095).
  const std::int64_t in_range_at = (1000 / kBucket + 4096) * kBucket - 1;
  // Under the horizon in time distance, but bucket distance 4096: one
  // full revolution ahead of the cursor's bucket.
  const std::int64_t wrap_at = 1000 + kHorizon - 1;
  // At the horizon exactly: overflow in any case.
  const std::int64_t beyond_at = 1000 + kHorizon;
  sim.schedule_at(TimePoint{beyond_at}, record);
  sim.schedule_at(TimePoint{wrap_at}, record);
  sim.schedule_at(TimePoint{in_range_at}, record);
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{in_range_at, wrap_at, beyond_at}));
  EXPECT_EQ(sim.now().usec(), beyond_at);
}

// The next-event scan reads the cursor's bitmap word, then the level's
// summary (one bit per word) from the following word on, wrapping.
// (Constants mirror the engine: L0 is 16384 one-microsecond buckets, 64
// per bitmap word, 64 words per summary word.)
TEST(Simulator, L0ScanWrapsIntoAnEarlierSummaryWord) {
  constexpr std::int64_t kL0 = 16384;
  Simulator sim;
  // Cursor at bucket 16000: bitmap word 250, in the last summary word.
  sim.schedule_at(TimePoint{16000}, [] {});
  sim.run_until_idle();
  ASSERT_EQ(sim.now().usec(), 16000);

  std::vector<std::int64_t> fired;
  auto record = [&] { fired.push_back(sim.now().usec()); };
  // Across the wrap: buckets 100 (word 1) and 5000 (word 78), both in
  // earlier summary words than the cursor's.
  sim.schedule_at(TimePoint{kL0 + 5000}, record);
  sim.schedule_at(TimePoint{kL0 + 100}, record);
  EXPECT_TRUE(sim.bookkeeping_consistent());
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{kL0 + 100, kL0 + 5000}));
  EXPECT_TRUE(sim.bookkeeping_consistent());
}

TEST(Simulator, L0ScanFindsAFullRevolutionBelowTheCursorBit) {
  Simulator sim;
  // Cursor at bucket 1000: word 15, bit 40.
  sim.schedule_at(TimePoint{1000}, [] {});
  sim.run_until_idle();
  ASSERT_EQ(sim.now().usec(), 1000);

  std::vector<std::int64_t> fired;
  auto record = [&] { fired.push_back(sim.now().usec()); };
  // 16380 us ahead is still L0, in bucket 996: the cursor's own word,
  // below the cursor bit, so the scan must go all the way round.
  const std::int64_t ahead = 1000 + 16380;
  sim.schedule_at(TimePoint{ahead}, record);
  EXPECT_TRUE(sim.bookkeeping_consistent());
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{ahead}));
  EXPECT_TRUE(sim.bookkeeping_consistent());
}

// Property sweep: with random schedules and cancellations, firing order is
// always non-decreasing in time and cancelled events never fire.
class SimulatorFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzzTest, OrderAndCancellationInvariants) {
  Simulator sim;
  std::vector<std::int64_t> fire_times;
  std::vector<EventId> ids;
  std::uint64_t x = GetParam();
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 500; ++i) {
    const auto at = static_cast<std::int64_t>(next() % 10000);
    ids.push_back(sim.schedule_at(TimePoint{at}, [&fire_times, &sim] {
      fire_times.push_back(sim.now().usec());
    }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    sim.cancel(ids[i]);
    ++cancelled;
  }
  sim.run_until_idle();
  EXPECT_EQ(fire_times.size(), 500u - static_cast<std::size_t>(cancelled));
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace mn
