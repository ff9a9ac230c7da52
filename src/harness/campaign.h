// Canonical benchmark campaigns behind the `bench_runner` tool, the one way
// to run a thesis table or figure (DESIGN.md §4).
//
// A campaign bundles one experiment family (a thesis table or figure sweep,
// the p_chunk ablation, the dual-team extension, the batch A/B, the churn
// soak, the host-overhead A/Bs): it prints human-readable tables AND returns
// a BenchReport (gfsl-bench-v1) carrying every measured series with its
// per-repetition samples, so one run feeds eyeballs, dashboards and the
// bench_compare regression gate alike.
#pragma once

#include <string>
#include <vector>

#include "harness/bench_schema.h"

namespace gfsl::harness {

struct CampaignOptions {
  /// Reduced fixed scale (ops=6000, ranges to 100K, 4 teams) so a full
  /// campaign finishes in seconds — the CI regression gate runs this.
  /// Ignores GFSL_OPS/GFSL_MAX_RANGE/GFSL_TEAMS; GFSL_SEED still applies.
  bool quick = false;
  int reps = 0;             // > 0 overrides the scale's repetition count
  std::string out_dir;      // non-empty: write BENCH_<campaign>.json here
};

struct Campaign {
  std::string name;
  std::string description;
  BenchReport (*run)(const CampaignOptions&);
};

/// All registered campaigns, in canonical order.
const std::vector<Campaign>& campaigns();
const Campaign* find_campaign(const std::string& name);

/// Run one campaign and, when opts.out_dir is set, write
/// `<out_dir>/BENCH_<name>.json`.  Returns the report.
BenchReport run_campaign(const Campaign& c, const CampaignOptions& opts);

}  // namespace gfsl::harness
