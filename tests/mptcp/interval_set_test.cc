#include "util/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace mn {
namespace {

TEST(IntervalSet, EmptyInitially) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total(), 0);
  EXPECT_EQ(s.contiguous_from(0), 0);
}

TEST(IntervalSet, SingleAdd) {
  IntervalSet s;
  EXPECT_EQ(s.add(10, 20), 10);
  EXPECT_EQ(s.total(), 10);
  EXPECT_EQ(s.contiguous_from(10), 10);
  EXPECT_EQ(s.contiguous_from(0), 0);
  EXPECT_TRUE(s.covers(10, 20));
  EXPECT_FALSE(s.covers(10, 21));
}

TEST(IntervalSet, DuplicateAddGainsNothing) {
  IntervalSet s;
  s.add(0, 100);
  EXPECT_EQ(s.add(0, 100), 0);
  EXPECT_EQ(s.add(20, 50), 0);
  EXPECT_EQ(s.total(), 100);
}

TEST(IntervalSet, OverlapMerges) {
  IntervalSet s;
  s.add(0, 10);
  EXPECT_EQ(s.add(5, 15), 5);
  EXPECT_EQ(s.total(), 15);
  EXPECT_EQ(s.interval_count(), 1u);
}

TEST(IntervalSet, AdjacentMerges) {
  IntervalSet s;
  s.add(0, 10);
  s.add(10, 20);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.contiguous_from(0), 20);
}

TEST(IntervalSet, GapKeepsSeparate) {
  IntervalSet s;
  s.add(0, 10);
  s.add(20, 30);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.total(), 20);
  EXPECT_EQ(s.contiguous_from(0), 10);
  // Filling the gap merges everything.
  EXPECT_EQ(s.add(10, 20), 10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.contiguous_from(0), 30);
}

TEST(IntervalSet, SpanningAddSwallowsMany) {
  IntervalSet s;
  s.add(10, 20);
  s.add(30, 40);
  s.add(50, 60);
  EXPECT_EQ(s.add(0, 100), 70);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), 100);
}

TEST(IntervalSet, EmptyRangeIsNoop) {
  IntervalSet s;
  EXPECT_EQ(s.add(5, 5), 0);
  EXPECT_EQ(s.add(7, 3), 0);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, CoversEdgeCases) {
  IntervalSet s;
  s.add(10, 20);
  EXPECT_TRUE(s.covers(15, 15));  // empty range
  EXPECT_FALSE(s.covers(5, 15));
  EXPECT_FALSE(s.covers(15, 25));
}

// Property: every query matches a brute-force bitmap after every add —
// add's return value, total(), interval_count() (the maximal runs of the
// bitmap), contiguous_from(k) and covers(a, b) at random points.  Two
// insertion streams: wide random ranges, then short ranges that mostly
// extend the in-order prefix (which bridges into runs that arrived
// ahead of it), with holes, duplicates and re-fills that end exactly
// where a run starts (the MPTCP receive pattern).  The query points come
// from their own stream, so they never perturb the sequence of adds.
class IntervalSetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetFuzz, TotalMatchesBruteForce) {
  constexpr std::int64_t kSpan = 1000;
  Rng rng{GetParam()};
  Rng probe{mix_seed(GetParam(), "probe")};
  IntervalSet s;
  std::vector<bool> covered(kSpan, false);
  const auto bit = [&](std::int64_t j) {
    return j < kSpan && covered[static_cast<std::size_t>(j)];
  };
  const auto add_and_check = [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t fresh = 0;
    for (std::int64_t j = lo; j < hi; ++j) {
      fresh += !bit(j);
      covered[static_cast<std::size_t>(j)] = true;
    }
    ASSERT_EQ(s.add(lo, hi), fresh) << "add [" << lo << "," << hi << ")";
    std::int64_t expect = 0;
    std::size_t runs = 0;
    for (std::int64_t j = 0; j < kSpan; ++j) {
      expect += bit(j);
      runs += bit(j) && (j == 0 || !bit(j - 1));
    }
    ASSERT_EQ(s.total(), expect) << "after add [" << lo << "," << hi << ")";
    ASSERT_EQ(s.interval_count(), runs) << "after add [" << lo << "," << hi << ")";
    ASSERT_EQ(s.empty(), expect == 0);
    for (int q = 0; q < 8; ++q) {
      const std::int64_t k = q == 0 ? 0 : probe.uniform_int(0, kSpan);
      std::int64_t run = 0;
      while (bit(k + run)) ++run;
      ASSERT_EQ(s.contiguous_from(k), run) << "contiguous_from(" << k << ")";
      const auto a = probe.uniform_int(0, kSpan);
      const auto b = probe.uniform_int(0, kSpan);
      const auto from = std::min(a, b);
      const auto to = q == 1 ? from : std::max(a, b);
      bool all = true;
      for (std::int64_t j = from; j < to; ++j) all = all && bit(j);
      ASSERT_EQ(s.covers(from, to), all) << "covers(" << from << "," << to << ")";
    }
  };
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.uniform_int(0, 999);
    const auto b = rng.uniform_int(0, 999);
    add_and_check(std::min(a, b), std::max(a, b));
    if (HasFatalFailure()) return;
  }

  s = IntervalSet{};
  covered.assign(kSpan, false);
  std::int64_t next = 0;  // first uncovered byte
  while (next < kSpan) {
    const auto len = rng.uniform_int(1, 40);
    auto lo = rng.chance(0.7) ? next : rng.uniform_int(0, kSpan - 1);
    auto hi = std::min(lo + len, kSpan);
    if (rng.chance(0.2)) {
      // End exactly where the next covered run starts, in the first gap
      // at or after lo, so the add touches the interval on its right
      // (and fills the gap, touching both sides, when it is short).
      std::int64_t gap = lo;
      while (gap < kSpan && bit(gap)) ++gap;
      std::int64_t run = gap;
      while (run < kSpan && !bit(run)) ++run;
      if (run < kSpan) {
        hi = run;
        lo = std::max(gap, run - len);
      }
    }
    add_and_check(lo, hi);
    if (HasFatalFailure()) return;
    while (bit(next)) ++next;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetFuzz, ::testing::Values(1, 7, 42, 99, 1234));

}  // namespace
}  // namespace mn
