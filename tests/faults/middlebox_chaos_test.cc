// Middlebox adversary in the fault layer: plan round-trip, gated random
// draws, injector application, and the middlebox chaos soak — every
// flow must terminate, and under middlebox-only plans every watchdog
// abort must carry a recorded fallback reason.
#include <gtest/gtest.h>

#include "faults/chaos.hpp"
#include "faults/fault_plan.hpp"

namespace mn {
namespace {

TEST(MiddleboxFaultPlan, SerializeParseRoundTripsMiddleboxEvents) {
  FaultPlan plan;
  MiddleboxSpec spec;
  spec.strip_capable = 0.75;
  spec.strip_join = 0.5;
  spec.drop_unknown_syn = 0.125;
  spec.mangle_dss = 0.03125;
  spec.rewrite_seq = 0.25;
  spec.seed = 0xdeadbeefcafe;
  plan.middlebox_on(msec(100), PathId::kWifi, spec, LinkDir::kDown);
  plan.middlebox_off(sec(2), PathId::kWifi, LinkDir::kDown);
  const std::string text = plan.serialize();
  const FaultPlan back = FaultPlan::parse(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.serialize(), text);
  const FaultEvent& on = back.events()[0];
  EXPECT_EQ(on.kind, FaultKind::kMiddleboxOn);
  EXPECT_EQ(on.middlebox.strip_capable, 0.75);
  EXPECT_EQ(on.middlebox.strip_join, 0.5);
  EXPECT_EQ(on.middlebox.drop_unknown_syn, 0.125);
  EXPECT_EQ(on.middlebox.mangle_dss, 0.03125);
  EXPECT_EQ(on.middlebox.rewrite_seq, 0.25);
  EXPECT_EQ(on.middlebox.seed, 0xdeadbeefcafeull);
  EXPECT_EQ(back.events()[1].kind, FaultKind::kMiddleboxOff);
}

TEST(MiddleboxFaultPlan, ParseRejectsOutOfRangeProbabilities) {
  EXPECT_THROW(
      (void)FaultPlan::parse("100000 mbox_on wifi both 1.5 0 0 0 0 7\n"),
      std::runtime_error);
}

TEST(MiddleboxFaultPlan, GatedDrawKeepsLegacyStreamIdentical) {
  // The middlebox draw happens after the legacy event loop and only
  // when the knob is on: for any seed, the legacy prefix of a
  // middlebox-enabled plan equals the whole legacy plan byte for byte.
  RandomPlanOptions legacy;
  RandomPlanOptions with_box = legacy;
  with_box.middlebox_probability = 1.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan a = random_fault_plan(seed, legacy);
    const FaultPlan b = random_fault_plan(seed, with_box);
    ASSERT_GT(b.size(), a.size()) << "seed " << seed;
    // Plans keep themselves time-sorted, so the middlebox event may
    // interleave anywhere: compare the legacy plan against b with the
    // middlebox events filtered out.
    std::vector<std::string> b_legacy;
    bool has_box = false;
    for (const FaultEvent& ev : b.events()) {
      if (ev.kind == FaultKind::kMiddleboxOn || ev.kind == FaultKind::kMiddleboxOff) {
        has_box = has_box || ev.kind == FaultKind::kMiddleboxOn;
        continue;
      }
      b_legacy.push_back(ev.describe());
    }
    ASSERT_EQ(b_legacy.size(), a.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.events()[i].describe(), b_legacy[i])
          << "seed " << seed << " event " << i;
    }
    EXPECT_TRUE(has_box) << "seed " << seed;
  }
}

TEST(MiddleboxFaultPlan, MaxEventsZeroYieldsMiddleboxOnlyPlans) {
  RandomPlanOptions options;
  options.max_events = 0;
  options.middlebox_probability = 1.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FaultPlan plan = random_fault_plan(seed, options);
    ASSERT_GE(plan.size(), 1u);
    for (const FaultEvent& ev : plan.events()) {
      EXPECT_TRUE(ev.kind == FaultKind::kMiddleboxOn ||
                  ev.kind == FaultKind::kMiddleboxOff)
          << ev.describe();
    }
  }
}

ChaosSoakOptions middlebox_soak_options(int runs) {
  ChaosSoakOptions options;
  options.runs = runs;
  options.max_bytes = 400'000;
  options.timeout = sec(60);
  options.stall_limit = sec(10);
  options.plan.horizon = sec(4);
  options.plan.max_events = 0;  // middlebox-only plans
  options.plan.middlebox_probability = 1.0;
  return options;
}

TEST(MiddleboxChaos, SingleRunIsDeterministicIncludingNegotiationFields) {
  const ChaosSoakOptions options = middlebox_soak_options(1);
  const ChaosRunReport a = run_chaos_run(17, options);
  const ChaosRunReport b = run_chaos_run(17, options);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.plan_text, b.plan_text);
  EXPECT_EQ(a.negotiated_mp, b.negotiated_mp);
  EXPECT_EQ(a.achieved_mp, b.achieved_mp);
  EXPECT_EQ(a.fallback_reason, b.fallback_reason);
  EXPECT_EQ(a.bytes_observed, b.bytes_observed);
}

// The middlebox acceptance gate: 200 runs whose plans contain ONLY
// middlebox events.  Every flow must terminate (complete or abort
// within the watchdog — the soak returning at all proves no hang), hold
// all four chaos invariants, and any watchdog abort must carry a
// recorded fallback_reason: under a pure middlebox adversary, "stalled
// with no explanation" is exactly the bug class this PR removes.
TEST(MiddleboxChaos, TwoHundredMiddleboxPlansTerminateWithRecordedReasons) {
  const ChaosSoakOptions options = middlebox_soak_options(200);
  int completed = 0;
  int aborted = 0;
  int degraded = 0;
  for (int i = 0; i < options.runs; ++i) {
    const ChaosRunReport r = run_chaos_run(options.seed + static_cast<std::uint64_t>(i),
                                           options);
    for (const std::string& v : r.violations) {
      ADD_FAILURE() << "seed " << r.seed << " violated: " << v << "\nplan:\n"
                    << r.plan_text;
    }
    if (r.completed) {
      ++completed;
    } else {
      ++aborted;
      EXPECT_FALSE(r.fallback_reason.empty())
          << "seed " << r.seed << " aborted (" << r.failure_reason
          << ") without a recorded fallback reason\nplan:\n" << r.plan_text;
    }
    degraded += !r.fallback_reason.empty();
  }
  EXPECT_EQ(completed + aborted, options.runs);
  // Middleboxes must actually bite: some flows degrade, most complete.
  EXPECT_GT(degraded, 0);
  EXPECT_GT(completed, options.runs / 2);
}

}  // namespace
}  // namespace mn
