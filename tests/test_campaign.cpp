// The campaign registry (harness/campaign.h): bench_runner is the one way to
// run a thesis artefact, so every DESIGN.md §4 artefact must resolve by name,
// names must be unique, and the campaigns that carry no committed baseline
// must still return a named report of ungated series.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/campaign.h"

namespace gfsl::harness {
namespace {

TEST(CampaignRegistry, EveryThesisArtefactResolves) {
  for (const char* name :
       {"table_5_1_warps_gfsl", "table_5_2_warps_mc", "fig_5_1_chunk_size",
        "fig_5_2_ratio", "fig_5_3_mixed_ops", "fig_5_4_single_op",
        "ablation_p_chunk", "ext_dual_team_warp"}) {
    const Campaign* c = find_campaign(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->name, name);
    EXPECT_FALSE(c->description.empty()) << name;
  }
  EXPECT_EQ(find_campaign("no_such_campaign"), nullptr);
}

TEST(CampaignRegistry, NamesAreUnique) {
  std::set<std::string> seen;
  for (const Campaign& c : campaigns()) {
    EXPECT_TRUE(seen.insert(c.name).second) << "duplicate " << c.name;
  }
}

// The four artefacts without a committed baseline: each returns a report
// named after itself whose series are all ungated, so none of them can fail
// the bench gate until a baseline is recorded for it.
class UngatedCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(UngatedCampaign, ReportsItsSeriesUngated) {
  const Campaign* c = find_campaign(GetParam());
  ASSERT_NE(c, nullptr);
  CampaignOptions opts;
  opts.quick = true;
  opts.reps = 1;
  const BenchReport r = run_campaign(*c, opts);
  EXPECT_EQ(r.campaign, GetParam());
  ASSERT_FALSE(r.metrics.empty());
  for (const BenchMetric& m : r.metrics) {
    EXPECT_FALSE(m.gate) << m.name;
    EXPECT_FALSE(m.samples.empty()) << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Campaigns, UngatedCampaign,
                         ::testing::Values("table_5_1_warps_gfsl",
                                           "table_5_2_warps_mc",
                                           "ablation_p_chunk",
                                           "ext_dual_team_warp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gfsl::harness
