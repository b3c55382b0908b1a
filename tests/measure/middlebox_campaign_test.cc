// The middlebox strip-probability sweep through the campaign: the
// negotiated/achieved/fallback columns, their CSV round-trip, and the
// parallel-vs-serial determinism golden for a middlebox campaign.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "measure/campaign.hpp"

namespace mn {
namespace {

std::vector<ClusterSpec> tiny_world() {
  return {make_cluster("FastWiFi", {40.0, -70.0}, 12, 0.10, 14.0),
          make_cluster("FastLTE", {10.0, 100.0}, 12, 0.85, 4.0)};
}

CampaignOptions middlebox_campaign(double strip) {
  CampaignOptions opt;
  opt.run_scale = 0.25;  // 6 runs
  opt.incomplete_probability = 0.0;
  opt.transfer_bytes = 300'000;
  opt.mp_probe_bytes = 150'000;
  opt.middlebox_strip_probability = strip;
  return opt;
}

std::string campaign_bytes(const std::vector<RunRecord>& runs) {
  return to_csv(runs).str() + "\n===\n" + merge_run_metrics(runs).prometheus_text();
}

TEST(MiddleboxCampaign, ZeroKnobKeepsLegacyPlansAndColumnsEmpty) {
  const CampaignOptions opt = middlebox_campaign(0.0);
  for (const RunPlan& p : plan_campaign(tiny_world(), opt)) {
    EXPECT_FALSE(p.has_middlebox);
  }
  const auto runs = run_campaign(tiny_world(), opt);
  for (const auto& r : runs) EXPECT_FALSE(r.mp_probed);
  // The new columns exist but stay empty — a legacy-shaped dataset.
  const auto data = parse_csv(to_csv(runs).str());
  const auto c = data.col("negotiated_mp");
  for (const auto& row : data.rows) EXPECT_EQ(row[c], "");
}

TEST(MiddleboxCampaign, SweepProducesNegotiatedVersusAchievedSplit) {
  // At strip probability 1 every MP_CAPABLE dies: nothing negotiates.
  // At 0 every probe negotiates and achieves.  In between the fractions
  // separate (capable survives more often than capable AND join).
  const auto none = run_campaign(tiny_world(), middlebox_campaign(0.0));
  // 0.0 disables the probe entirely; use a tiny epsilon for "clean".
  const auto clean = run_campaign(tiny_world(), middlebox_campaign(1e-9));
  const auto hostile = run_campaign(tiny_world(), middlebox_campaign(1.0));
  for (const auto& r : none) EXPECT_FALSE(r.mp_probed);
  for (const auto& r : clean) {
    ASSERT_TRUE(r.mp_probed);
    EXPECT_TRUE(r.negotiated_mp);
    EXPECT_TRUE(r.achieved_mp);
    EXPECT_FALSE(r.failed) << r.failure_reason;
  }
  for (const auto& r : hostile) {
    ASSERT_TRUE(r.mp_probed);
    EXPECT_FALSE(r.negotiated_mp);
    EXPECT_FALSE(r.achieved_mp);
    EXPECT_FALSE(r.fallback_reason.empty());
    // Graceful degradation: a hostile middlebox must not fail the run.
    EXPECT_FALSE(r.failed) << r.failure_reason;
  }
}

TEST(MiddleboxCampaign, CsvRoundTripsNegotiationColumns) {
  const auto runs = complete_runs(run_campaign(tiny_world(), middlebox_campaign(0.5)));
  ASSERT_FALSE(runs.empty());
  const auto back = from_csv(parse_csv(to_csv(runs).str()));
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(back[i].mp_probed, runs[i].mp_probed);
    EXPECT_EQ(back[i].negotiated_mp, runs[i].negotiated_mp);
    EXPECT_EQ(back[i].achieved_mp, runs[i].achieved_mp);
    EXPECT_EQ(back[i].fallback_reason, runs[i].fallback_reason);
  }
  EXPECT_EQ(to_csv(back).str(), to_csv(runs).str());
}

// Golden parallel-vs-serial: a middlebox campaign's full observable
// output is byte-identical for every worker count (MN_THREADS contract).
TEST(MiddleboxCampaign, ParallelAndSerialAreByteIdentical) {
  CampaignOptions opt = middlebox_campaign(0.5);
  opt.parallelism = 0;
  const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));
  for (int workers : {1, 4}) {
    opt.parallelism = workers;
    EXPECT_EQ(campaign_bytes(run_campaign(tiny_world(), opt)), golden)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace mn
