#include "faults/chaos.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

// Keep the per-run workload small so 200+ runs stay inside the normal
// ctest budget; the bench binary runs the heavyweight version.
ChaosSoakOptions soak_options(int runs) {
  ChaosSoakOptions options;
  options.runs = runs;
  options.max_bytes = 600'000;
  options.timeout = sec(60);
  options.stall_limit = sec(10);
  options.plan.horizon = sec(6);
  options.plan.max_events = 6;
  return options;
}

TEST(ChaosSoak, SingleRunIsDeterministic) {
  const ChaosSoakOptions options = soak_options(1);
  const ChaosRunReport a = run_chaos_run(91, options);
  const ChaosRunReport b = run_chaos_run(91, options);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.max_stall.usec(), b.max_stall.usec());
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.bytes_observed, b.bytes_observed);
  EXPECT_EQ(a.plan_text, b.plan_text);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(ChaosSoak, ReportCarriesReplayMaterial) {
  const ChaosRunReport r = run_chaos_run(7, soak_options(1));
  EXPECT_EQ(r.seed, 7u);
  EXPECT_FALSE(r.plan_text.empty());
  EXPECT_GT(r.bytes_requested, 0);
  // The serialized plan must be replayable as-is.
  EXPECT_GE(FaultPlan::parse(r.plan_text).size(), 1u);
}

// The acceptance gate: 200+ seeded random fault plans, every run obeying
// all four invariants (byte conservation, no event leak, bounded stall,
// consistent stage counters).  Violations print the offending seed and
// serialized plan so the run can be replayed in isolation.
TEST(ChaosSoak, TwoHundredSeededPlansHoldAllInvariants) {
  const ChaosSoakOptions options = soak_options(200);
  const ChaosSoakSummary summary = run_chaos_soak(options);
  EXPECT_EQ(summary.runs, 200);
  EXPECT_EQ(summary.completed + summary.aborted, 200);
  // Chaos must actually bite sometimes and heal sometimes.
  EXPECT_GT(summary.completed, 0);
  EXPECT_LE(summary.max_stall.usec(), options.stall_limit.usec());
  for (const ChaosRunReport& r : summary.violating) {
    ADD_FAILURE() << "seed " << r.seed << " violated invariants:\n"
                  << "  plan:\n" << r.plan_text << "\n  violations:";
    for (const std::string& v : r.violations) ADD_FAILURE() << "  - " << v;
  }
  EXPECT_TRUE(summary.ok());
}

// Each run is a pure function of its seed, so spreading the soak over
// four workers must not change a count, the worst stall, or which seeds
// violated an invariant.
TEST(ChaosSoak, ParallelSummaryIsIdenticalToSerial) {
  ChaosSoakOptions options = soak_options(40);
  options.parallelism = 0;
  const ChaosSoakSummary serial = run_chaos_soak(options);
  options.parallelism = 4;
  const ChaosSoakSummary parallel = run_chaos_soak(options);
  const auto violating_seeds = [](const ChaosSoakSummary& summary) {
    std::vector<std::uint64_t> seeds;
    for (const ChaosRunReport& r : summary.violating) seeds.push_back(r.seed);
    return seeds;
  };
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.completed, serial.completed);
  EXPECT_EQ(parallel.aborted, serial.aborted);
  EXPECT_EQ(parallel.max_stall.usec(), serial.max_stall.usec());
  EXPECT_EQ(violating_seeds(parallel), violating_seeds(serial));
}

}  // namespace
}  // namespace mn
