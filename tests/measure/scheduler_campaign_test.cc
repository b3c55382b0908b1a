// The scheduler sweep through the campaign: the mp_scheduler knob
// selects the policy per probe, the energy/scheduler columns round-trip
// CSV, and the parallel-vs-serial determinism golden holds.
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

CampaignOptions scheduler_campaign(MpScheduler s) {
  CampaignOptions opt;
  opt.run_scale = 0.25;  // 6 runs
  opt.incomplete_probability = 0.0;
  opt.transfer_bytes = 300'000;
  opt.mp_probe_bytes = 150'000;
  // A vanishing strip probability enables the multipath probe (0.0
  // disables it) without making any middlebox hostile.
  opt.middlebox_strip_probability = 1e-9;
  opt.mp_scheduler = s;
  return opt;
}

std::string campaign_bytes(const std::vector<RunRecord>& runs) {
  return to_csv(runs).str() + "\n===\n" + merge_run_metrics(runs).prometheus_text();
}

TEST(SchedulerCampaign, SweepPopulatesEnergyAndSchedulerColumns) {
  for (int i = 0; i < kMpSchedulerCount; ++i) {
    const auto s = static_cast<MpScheduler>(i);
    const auto runs = run_campaign(tiny_world(), scheduler_campaign(s));
    for (const auto& r : runs) {
      ASSERT_TRUE(r.mp_probed);
      EXPECT_EQ(r.scheduler, to_string(s));
      // Every probe moved real bytes over WiFi; the radio model charges
      // at least one burst + tail for that.
      EXPECT_GT(r.energy_wifi_j, 0.0) << to_string(s);
      EXPECT_GE(r.energy_lte_j, 0.0) << to_string(s);
    }
  }
}

TEST(SchedulerCampaign, KnobIsInertWithoutMultipathProbes) {
  // With the probe disabled the scheduler knob must not leak into the
  // dataset (columns empty).
  CampaignOptions opt = scheduler_campaign(MpScheduler::kEnergyAware);
  opt.middlebox_strip_probability = 0.0;
  const auto runs = run_campaign(tiny_world(), opt);
  for (const auto& r : runs) {
    EXPECT_FALSE(r.mp_probed);
    EXPECT_TRUE(r.scheduler.empty());
  }
  const auto data = parse_csv(to_csv(runs).str());
  const auto c_e = data.col("m_energy_wifi_j");
  const auto c_s = data.col("scheduler");
  for (const auto& row : data.rows) {
    EXPECT_EQ(row[c_e], "");
    EXPECT_EQ(row[c_s], "");
  }
}

TEST(SchedulerCampaign, CsvRoundTripsEnergyColumns) {
  const auto runs = complete_runs(
      run_campaign(tiny_world(), scheduler_campaign(MpScheduler::kEnergyAware)));
  ASSERT_FALSE(runs.empty());
  const auto back = from_csv(parse_csv(to_csv(runs).str()));
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(back[i].energy_wifi_j, runs[i].energy_wifi_j);
    EXPECT_EQ(back[i].energy_lte_j, runs[i].energy_lte_j);
    EXPECT_EQ(back[i].scheduler, runs[i].scheduler);
  }
  // format_double emits the shortest round-trip form, so a second pass
  // through the CSV is byte-identical — energy columns included.
  EXPECT_EQ(to_csv(back).str(), to_csv(runs).str());
}

// Golden parallel-vs-serial: a scheduler-sweep campaign's observable
// output is byte-identical for every worker count (MN_THREADS contract).
TEST(SchedulerCampaign, ParallelAndSerialAreByteIdentical) {
  for (MpScheduler s : {MpScheduler::kEnergyAware, MpScheduler::kRedundant}) {
    CampaignOptions opt = scheduler_campaign(s);
    opt.parallelism = 0;
    const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));
    for (int workers : {1, 4}) {
      opt.parallelism = workers;
      EXPECT_EQ(campaign_bytes(run_campaign(tiny_world(), opt)), golden)
          << to_string(s) << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace mn
