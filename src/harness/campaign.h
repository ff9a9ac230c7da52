// Canonical benchmark campaigns behind both the per-figure bench binaries
// and the unified `bench_runner` tool.
//
// A campaign bundles one experiment family (a thesis figure sweep, the batch
// A/B, the churn soak, the host-micro suite): it prints the same
// human-readable tables the standalone binaries always printed AND returns a
// BenchReport (gfsl-bench-v1) carrying every measured series with its
// per-repetition samples, so one run feeds eyeballs, dashboards and the
// bench_compare regression gate alike.  The per-figure binaries are thin
// shims over campaign_main(); bench_runner iterates the registry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/bench_schema.h"
#include "harness/experiment.h"
#include "harness/workload.h"

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

/// Resolve the experiment scale for `opts` (env scale, or the fixed quick
/// scale) and apply the reps override.
Scale campaign_scale(const CampaignOptions& opts);

/// Entry point for the single-campaign bench binaries: run `name` at env
/// scale and print its tables.  When GFSL_BENCH_JSON_DIR is set the
/// gfsl-bench-v1 report is also written there.  Returns a main()-style exit
/// code (2 = unknown campaign).
int campaign_main(const std::string& name);

/// Run one campaign and, when opts.out_dir is set, write
/// `<out_dir>/BENCH_<name>.json`.  Returns the report.
BenchReport run_campaign(const Campaign& c, const CampaignOptions& opts);

// Shared bench plumbing: the campaign implementations and the standalone
// bench binaries use these directly.

StructureSetup setup_from_scale(const Scale& sc, int team_size = 32);

WorkloadConfig make_workload(const Mix& mix, std::uint64_t range,
                             std::uint64_t ops, std::uint64_t seed);

void print_scale_banner(const Scale& sc);

/// Stable metric-name fragment for a mix ("mix_10_10_80") or range ("r10000").
std::string mix_key(const Mix& mix);
std::string range_key(std::uint64_t range);

}  // namespace gfsl::harness
