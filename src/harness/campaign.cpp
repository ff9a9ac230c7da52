#include "harness/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/env.h"
#include "common/random.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/stack.h"
#include "model/cost_model.h"
#include "model/occupancy.h"
#include "obs/metrics.h"
#include "simt/team.h"
#include "simt/trace.h"

namespace gfsl::harness {
namespace {

StructureSetup setup_from_scale(const Scale& sc, int team_size = 32) {
  StructureSetup s;
  s.team_size = team_size;
  s.num_workers = static_cast<int>(sc.teams);
  s.warmup_ops = std::min<std::uint64_t>(sc.ops / 4, 20'000);
  return s;
}

WorkloadConfig make_workload(const Mix& mix, std::uint64_t range,
                             std::uint64_t ops, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.mix = mix;
  wl.key_range = range;
  wl.num_ops = ops;
  wl.prefill = default_prefill(mix);
  wl.seed = seed;
  return wl;
}

void print_scale_banner(const Scale& sc) {
  std::printf(
      "# scale: ops=%llu max_range=%llu reps=%llu teams=%llu "
      "(env: GFSL_OPS, GFSL_MAX_RANGE, GFSL_REPS, GFSL_TEAMS; "
      "paper scale: ops=10M, ranges to 100M, reps=10)\n",
      static_cast<unsigned long long>(sc.ops),
      static_cast<unsigned long long>(sc.max_range),
      static_cast<unsigned long long>(sc.reps),
      static_cast<unsigned long long>(sc.teams));
}

/// Stable metric-name fragment for a mix ("mix_10_10_80").
std::string mix_key(const Mix& mix) {
  return "mix_" + std::to_string(mix.insert_pct) + "_" +
         std::to_string(mix.delete_pct) + "_" +
         std::to_string(mix.contains_pct);
}

/// Stable metric-name fragment for a key range ("r10000").
std::string range_key(std::uint64_t range) {
  return "r" + std::to_string(range);
}

/// Resolve the experiment scale for `opts` (env scale, or the fixed quick
/// scale) and apply the reps override.
Scale campaign_scale(const CampaignOptions& opts) {
  Scale sc = Scale::from_env();
  if (opts.quick) {
    // Fixed footprint for the CI gate: the point is run-to-run stability on
    // one config, not coverage — the committed baselines were produced at
    // exactly this scale.
    sc.ops = 6'000;
    sc.max_range = 100'000;
    sc.teams = 4;
    sc.reps = 3;
  }
  if (opts.reps > 0) sc.reps = static_cast<std::uint64_t>(opts.reps);
  return sc;
}

/// "p50/p90/p99" tail column for a repetition summary (same unit as mean).
std::string fmt_tail(const Summary& s) {
  return fmt(s.p50, 1) + "/" + fmt(s.p90, 1) + "/" + fmt(s.p99, 1);
}

/// Share of a run's memory transactions the modeled L2 served.
double l2_hit_rate(const model::KernelRun& k) {
  return k.mem.transactions ? static_cast<double>(k.mem.l2_hits) /
                                  static_cast<double>(k.mem.transactions)
                            : 0.0;
}

void stamp_scale(BenchReport& r, const Scale& sc, const CampaignOptions& o) {
  r.set_config("ops", std::to_string(sc.ops));
  r.set_config("max_range", std::to_string(sc.max_range));
  r.set_config("reps", std::to_string(sc.reps));
  r.set_config("teams", std::to_string(sc.teams));
  r.set_config("seed", std::to_string(sc.seed));
  r.set_config("quick", o.quick ? "1" : "0");
}

void add_metric(BenchReport& r, std::string name, std::string unit,
                Better better, bool gate, std::vector<double> samples) {
  BenchMetric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.better = better;
  m.gate = gate;
  m.samples = std::move(samples);
  r.metrics.push_back(std::move(m));
}

// ---------------------------------------------------------------------------
// Tables 5.1 and 5.2 — "Effects on GFSL / M&C of limiting warps launched per
// block".  One measured run of [10,10,80] at the 1M key range (reduced with
// the scale); occupancy, registers, active blocks and spill come from the
// occupancy calculator, and the throughput row feeds the measured simulator
// events through the cost model under each launch configuration.  The
// thesis's values sit in the adjacent columns.

struct PaperWarpsRow {
  int warps;
  double occ, theo;
  int regs, blocks;
  double spill, mops;
};

/// Print the launch-configuration table and record its modeled series;
/// returns the modeled MOPS per row, in row order.
std::vector<double> run_warps_table(const model::KernelRun& measured,
                                    const model::KernelResources& kernel,
                                    const std::vector<PaperWarpsRow>& paper,
                                    BenchReport& report) {
  const model::Occupancy occ_calc;
  const model::CostModel cm;
  Table t({"warps/block", "occup/theor", "paper", "regs", "paper", "blocks",
           "paper", "spill", "paper", "MOPS(model)", "paper"});
  std::vector<double> mops;
  for (const auto& p : paper) {
    const auto o = occ_calc.compute(kernel, p.warps);
    const auto r = cm.throughput(measured, o);
    mops.push_back(r.mops);
    t.add_row({std::to_string(p.warps),
               fmt_pct(o.achieved_occupancy) + "/" +
                   fmt_pct(o.theoretical_occupancy),
               fmt_pct(p.occ) + "/" + fmt_pct(p.theo),
               std::to_string(o.registers_per_thread), std::to_string(p.regs),
               std::to_string(o.active_blocks), std::to_string(p.blocks),
               fmt_pct(o.spill_fraction, 0), fmt_pct(p.spill, 0), fmt(r.mops),
               fmt(p.mops)});
    const std::string wk = "w" + std::to_string(p.warps);
    add_metric(report, "model_mops." + wk, "mops", Better::kHigher, false,
               {r.mops});
    add_metric(report, "occupancy." + wk, "fraction", Better::kHigher, false,
               {o.achieved_occupancy});
    add_metric(report, "spill." + wk, "fraction", Better::kLower, false,
               {o.spill_fraction});
  }
  t.print(std::cout);
  return mops;
}

BenchReport run_table_5_1(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "table_5_1_warps_gfsl";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  const std::uint64_t range = std::min<std::uint64_t>(1'000'000, sc.max_range);
  std::printf("# Table 5.1: GFSL, mix [10,10,80], range %s\n\n",
              fmt_range(range).c_str());

  // One measured run; the launch configuration only changes the model side.
  const auto measured = measure_gfsl(
      make_workload(kMix_10_10_80, range, sc.ops, sc.seed), setup_from_scale(sc));
  const std::vector<PaperWarpsRow> paper = {
      {8, 0.367, 0.375, 79, 3, 0.00, 58.9},
      {16, 0.488, 0.500, 64, 2, 0.10, 65.7},
      {24, 0.730, 0.750, 40, 2, 0.43, 62.5},
      {32, 0.958, 1.000, 32, 2, 0.53, 52.9},
  };
  const std::vector<double> mops =
      run_warps_table(measured.kernel, model::kGfslKernel, paper, report);
  const auto best = std::max_element(mops.begin(), mops.end()) - mops.begin();
  std::printf(
      "\nbest modeled configuration: %d warps/block (paper: 16 warps/block "
      "peaks at 65.7 MOPS)\n",
      paper[static_cast<std::size_t>(best)].warps);
  return report;
}

BenchReport run_table_5_2(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "table_5_2_warps_mc";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  const std::uint64_t range = std::min<std::uint64_t>(1'000'000, sc.max_range);
  std::printf("# Table 5.2: M&C, mix [10,10,80], range %s\n\n",
              fmt_range(range).c_str());

  // The thesis's observation to reproduce: M&C's throughput "varies very
  // little, regardless of the number of warps launched" because it is
  // memory-dependence bound, and spill stays ~23-25% everywhere (the
  // thread-local path arrays).
  const auto measured = measure_mc(
      make_workload(kMix_10_10_80, range, sc.ops, sc.seed), setup_from_scale(sc));
  const std::vector<double> mops = run_warps_table(
      measured.kernel, model::kMcKernel,
      {
          {8, 0.529, 0.625, 42, 5, 0.25, 20.7},
          {16, 0.416, 0.500, 42, 2, 0.23, 21.3},
          {24, 0.590, 0.750, 40, 2, 0.23, 20.6},
          {32, 0.794, 1.000, 32, 2, 0.24, 20.2},
      },
      report);
  const double lo = *std::min_element(mops.begin(), mops.end());
  const double hi = *std::max_element(mops.begin(), mops.end());
  std::printf(
      "\nmodeled throughput spread across configs: %.1f%% "
      "(paper: ~5%% — flat, memory-dependence bound)\n",
      hi > 0 ? (hi - lo) / hi * 100.0 : 0.0);
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.1 — GFSL-16 vs GFSL-32 vs M&C on [10,10,80].

BenchReport run_fig_5_1(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_1_chunk_size";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Figure 5.1: GFSL-16 vs GFSL-32 vs M&C, mix [10,10,80]\n");
  std::printf(
      "# paper @1M: GFSL-32 ~65.7, GFSL-16 within 28%% below, M&C ~21.3 "
      "MOPS\n\n");

  const int reps = static_cast<int>(sc.reps);
  Table t({"range", "GFSL-16 MOPS", "GFSL-32 MOPS", "M&C MOPS",
           "GFSL-32/GFSL-16"});
  for (const auto range : sweep_ranges(sc.max_range)) {
    auto wl = make_workload(kMix_10_10_80, range, sc.ops, sc.seed);
    auto s16 = setup_from_scale(sc, /*team_size=*/16);
    auto s32 = setup_from_scale(sc, /*team_size=*/32);
    const auto g16 = repeat_gfsl(wl, s16, reps);
    const auto g32 = repeat_gfsl(wl, s32, reps);
    const auto mc = repeat_mc(wl, s32, reps);
    t.add_row({fmt_range(range), fmt_ci(g16.mops.mean, g16.mops.ci95_half),
               fmt_ci(g32.mops.mean, g32.mops.ci95_half),
               mc.oom ? "OOM" : fmt_ci(mc.mops.mean, mc.mops.ci95_half),
               fmt(g32.mops.mean / g16.mops.mean, 2)});
    const std::string rk = range_key(range);
    add_metric(report, "gfsl16_mops." + rk, "mops", Better::kHigher, true,
               g16.samples);
    add_metric(report, "gfsl32_mops." + rk, "mops", Better::kHigher, true,
               g32.samples);
    if (!mc.oom) {
      add_metric(report, "mc_mops." + rk, "mops", Better::kHigher, true,
                 mc.samples);
    }
  }
  t.print(std::cout);
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.2 — GFSL / M&C ratio per mix per range.

BenchReport run_fig_5_2(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_2_ratio";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Figure 5.2: GFSL / M&C throughput ratio per key range\n");
  std::printf("# paper: 0.54-0.85 @10K, ~1 @30K, 1.27-10.64 above\n\n");

  const Mix mixes[] = {kMix_1_1_98, kMix_5_5_90, kMix_10_10_80, kMix_20_20_60};
  const auto ranges = sweep_ranges(sc.max_range);
  const int reps = static_cast<int>(sc.reps);

  std::vector<std::string> header{"range"};
  for (const auto& m : mixes) header.push_back(m.name());
  Table t(header);

  for (const auto range : ranges) {
    std::vector<std::string> row{fmt_range(range)};
    for (const auto& mix : mixes) {
      auto wl = make_workload(mix, range, sc.ops, sc.seed);
      const auto setup = setup_from_scale(sc);
      const auto g = repeat_gfsl(wl, setup, reps);
      const auto m = repeat_mc(wl, setup, reps);
      if (m.oom) {
        row.push_back("M&C OOM");
      } else {
        row.push_back(fmt(g.mops.mean / m.mops.mean, 2) + "x");
        // Informational: the MOPS series in fig_5_1/fig_5_3 already gate;
        // a ratio of two noisy series is too jittery to gate on its own.
        add_metric(report, "ratio." + mix_key(mix) + "." + range_key(range),
                   "x", Better::kHigher, false,
                   {g.mops.mean / m.mops.mean});
      }
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.3 — throughput vs key range per mixed-op distribution.

BenchReport run_fig_5_3(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_3_mixed_ops";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf(
      "# Figure 5.3: throughput vs key range, per mix (MOPS, mean ±95%% "
      "CI)\n\n");

  const Mix mixes[] = {kMix_1_1_98, kMix_5_5_90, kMix_10_10_80, kMix_20_20_60};
  const auto ranges = sweep_ranges(sc.max_range);
  const int reps = static_cast<int>(sc.reps);

  for (const auto& mix : mixes) {
    std::printf("## mix %s\n", mix.name().c_str());
    Table t({"range", "GFSL MOPS", "GFSL p50/p90/p99", "M&C MOPS",
             "GFSL spins/op", "L2 hit (GFSL)", "L2 hit (M&C)"});
    for (const auto range : ranges) {
      auto wl = make_workload(mix, range, sc.ops, sc.seed);
      const auto setup = setup_from_scale(sc);
      const auto g = repeat_gfsl(wl, setup, reps);
      const auto m = repeat_mc(wl, setup, reps);
      // One extra instrumented run for the diagnostic columns.
      const auto gd = measure_gfsl(wl, setup);
      const auto md = measure_mc(wl, setup);
      const double spins = static_cast<double>(gd.kernel.lock_spins) /
                           static_cast<double>(gd.kernel.ops);
      t.add_row({fmt_range(range), fmt_ci(g.mops.mean, g.mops.ci95_half),
                 fmt_tail(g.mops),
                 m.oom ? "OOM" : fmt_ci(m.mops.mean, m.mops.ci95_half),
                 fmt(spins, 3), fmt_pct(l2_hit_rate(gd.kernel)),
                 fmt_pct(l2_hit_rate(md.kernel))});
      const std::string key = mix_key(mix) + "." + range_key(range);
      add_metric(report, "gfsl_mops." + key, "mops", Better::kHigher, true,
                 g.samples);
      if (!m.oom) {
        add_metric(report, "mc_mops." + key, "mops", Better::kHigher, true,
                   m.samples);
      }
      add_metric(report, "gfsl_spins_per_op." + key, "spins", Better::kLower,
                 false, {spins});
      add_metric(report, "gfsl_chunks_per_trav." + key, "chunks",
                 Better::kLower, false, {gd.avg_chunks_per_traversal});
      add_metric(report, "gfsl_l2_hit." + key, "fraction", Better::kHigher,
                 false, {l2_hit_rate(gd.kernel)});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "paper anchors @[10,10,80]: GFSL ~65.7 MOPS and M&C ~21.3 MOPS at 1M; "
      "GFSL loses up to 46%% at 10K with few updates.\n");
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.4 — single-op-type throughput vs key range.

BenchReport run_fig_5_4(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_4_single_op";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Figure 5.4: single-op-type throughput vs key range\n\n");

  struct Panel {
    Mix mix;
    const char* key;
    const char* title;
    const char* paper;
  };
  const Panel panels[] = {
      {kContainsOnly, "contains", "Contains-only",
       "paper: GFSL 2.9x-4.4x over M&C"},
      {kInsertOnly, "insert", "Insert-only", "paper: GFSL 3.5x-9.1x over M&C"},
      {kDeleteOnly, "delete", "Delete-only", "paper: GFSL 3.5x-12.6x over M&C"},
  };
  const auto ranges = sweep_ranges(sc.max_range);
  const int reps = static_cast<int>(sc.reps);

  for (const auto& p : panels) {
    std::printf("## %s (%s)\n", p.title, p.paper);
    Table t({"range", "GFSL MOPS", "M&C MOPS", "GFSL/M&C"});
    for (const auto range : ranges) {
      // Insert/Delete run `range` ops in the paper; scale alongside GFSL_OPS.
      const std::uint64_t ops = (p.mix.contains_pct == 100)
                                    ? sc.ops
                                    : std::min<std::uint64_t>(range, sc.ops);
      auto wl = make_workload(p.mix, range, ops, sc.seed);
      // Grow-from-empty runs capped below the range never leave the cache-
      // resident regime; start from the average live size instead.
      if (p.mix.insert_pct == 100 && ops < range) {
        wl.prefill = Prefill::HalfRange;
      }
      const auto setup = setup_from_scale(sc);
      const auto g = repeat_gfsl(wl, setup, reps);
      const auto m = repeat_mc(wl, setup, reps);
      t.add_row({fmt_range(range), fmt_ci(g.mops.mean, g.mops.ci95_half),
                 m.oom ? "OOM" : fmt_ci(m.mops.mean, m.mops.ci95_half),
                 m.oom ? "-" : fmt(g.mops.mean / m.mops.mean, 2) + "x"});
      const std::string key = std::string(p.key) + "." + range_key(range);
      add_metric(report, "gfsl_mops." + key, "mops", Better::kHigher, true,
                 g.samples);
      if (!m.oom) {
        add_metric(report, "mc_mops." + key, "mops", Better::kHigher, true,
                   m.samples);
      }
    }
    t.print(std::cout);
    std::printf("\n");
  }
  return report;
}

// ---------------------------------------------------------------------------
// §5.2 ablation — the effect of p_chunk on GFSL.  The thesis: "using p_chunk
// ≈ 1 in GFSL gave the best results in all operation mixtures ... the
// average number of chunks read in a traversal is between
// structure-height+1 and structure-height+2 ... Lowering p_chunk causes more
// lateral steps to be taken, while not having a significant impact on
// structure height."

BenchReport run_ablation_p_chunk(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "ablation_p_chunk";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  const std::uint64_t range = std::min<std::uint64_t>(1'000'000, sc.max_range);
  std::printf("# p_chunk ablation: GFSL-32, mix [10,10,80], range %s\n",
              fmt_range(range).c_str());
  std::printf(
      "# paper: best at p_chunk ~ 1; traversal reads height+1..height+2\n\n");

  Table t({"p_chunk", "MOPS(model)", "chunks/traversal", "warp reads/op",
           "L2 hit"});
  double best_mops = 0.0;
  double best_p = 0.0;
  for (const double p : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto setup = setup_from_scale(sc);
    setup.p_chunk = p;
    const auto m = measure_gfsl(
        make_workload(kMix_10_10_80, range, sc.ops, sc.seed), setup);
    if (m.model_mops > best_mops) {
      best_mops = m.model_mops;
      best_p = p;
    }
    const double reads_per_op =
        static_cast<double>(m.kernel.mem.warp_reads) /
        static_cast<double>(m.kernel.ops ? m.kernel.ops : 1);
    const double hit = l2_hit_rate(m.kernel);
    t.add_row({fmt(p, 1), fmt(m.model_mops),
               fmt(m.avg_chunks_per_traversal, 2), fmt(reads_per_op, 2),
               fmt_pct(hit)});
    const std::string pk = "p" + fmt(p, 1);
    add_metric(report, "model_mops." + pk, "mops", Better::kHigher, false,
               {m.model_mops});
    add_metric(report, "chunks_per_trav." + pk, "chunks", Better::kLower,
               false, {m.avg_chunks_per_traversal});
    add_metric(report, "warp_reads_per_op." + pk, "reads", Better::kLower,
               false, {reads_per_op});
    add_metric(report, "l2_hit." + pk, "fraction", Better::kHigher, false,
               {hit});
  }
  t.print(std::cout);
  std::printf("\nbest p_chunk (modeled): %.1f (paper: ~1.0)\n", best_p);
  return report;
}

// ---------------------------------------------------------------------------
// Extension — two teams per warp (thesis Chapter 7, future work): "We
// believe that GFSL-16 would probably outperform GFSL-32 with proper support
// for executing two teams within the same warp.  However, synchronization
// between threads in the same warp is a delicate task ... teams in the same
// warp may deadlock while trying to take the lock for the same chunk."
//
// Pairs of 16-lane teams share a warp under round-robin lockstep
// (StepScheduler::RoundRobin).  The deadlock hazard is dissolved by
// construction: a spinning team yields at every iteration, so its warp-mate
// (possibly the lock holder) always advances.  The cost model overlaps the
// pair's memory waits but still serializes their instructions.  The
// conjecture to test: GFSL-16x2 recovers the 128 B single-transaction chunk
// reads AND warp-level op parallelism, beating GFSL-32.

BenchReport run_ext_dual_team_warp(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "ext_dual_team_warp";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Extension: GFSL-16 x2 teams/warp vs GFSL-16 and GFSL-32\n");
  std::printf(
      "# thesis conjecture: dual-team GFSL-16 should beat GFSL-32\n\n");

  const int reps = static_cast<int>(sc.reps);
  Table t({"range", "GFSL-16 MOPS", "GFSL-32 MOPS", "GFSL-16x2 MOPS",
           "16x2 / 32"});
  for (const auto range : sweep_ranges(sc.max_range)) {
    auto wl = make_workload(kMix_10_10_80, range, sc.ops, sc.seed);
    const auto s16 = setup_from_scale(sc, /*team_size=*/16);
    const auto s32 = setup_from_scale(sc, /*team_size=*/32);
    const auto g16 = repeat_gfsl(wl, s16, reps);
    const auto g32 = repeat_gfsl(wl, s32, reps);
    const auto dual = repeat_gfsl_dual(wl, s16, reps);
    t.add_row({fmt_range(range), fmt_ci(g16.mops.mean, g16.mops.ci95_half),
               fmt_ci(g32.mops.mean, g32.mops.ci95_half),
               fmt_ci(dual.mops.mean, dual.mops.ci95_half),
               fmt(dual.mops.mean / g32.mops.mean, 2) + "x"});
    const std::string rk = range_key(range);
    add_metric(report, "gfsl16_mops." + rk, "mops", Better::kHigher, false,
               g16.samples);
    add_metric(report, "gfsl32_mops." + rk, "mops", Better::kHigher, false,
               g32.samples);
    add_metric(report, "gfsl16x2_mops." + rk, "mops", Better::kHigher, false,
               dual.samples);
    add_metric(report, "dual_vs_32." + rk, "x", Better::kHigher, false,
               {dual.mops.mean / g32.mops.mean});
  }
  t.print(std::cout);
  return report;
}

// ---------------------------------------------------------------------------
// Batch throughput — kernel-style batched dispatch vs per-op dispatch.

BenchReport run_batch_throughput(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "batch_throughput";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf(
      "# Batched vs per-op dispatch (MOPS, mean of %llu reps), mix "
      "20/20/60\n\n",
      static_cast<unsigned long long>(sc.reps));

  std::vector<std::uint64_t> ranges{100'000};
  if (sc.max_range >= 1'000'000) ranges.push_back(1'000'000);
  const std::size_t batch_sizes[] = {256, 1024, 4096};
  const int reps = static_cast<int>(sc.reps);

  for (const auto range : ranges) {
    std::printf("## key range %s\n", fmt_range(range).c_str());
    Table t({"dispatch", "model MOPS", "sim MOPS", "speedup", "reuse %",
             "chunks/trav", "steals/batch"});

    auto wl = make_workload(kMix_20_20_60, range, sc.ops, sc.seed);
    auto setup = setup_from_scale(sc);
    const std::string rk = range_key(range);

    setup.batch_size = 0;  // baseline: the seed's per-op dispatch
    const auto base = repeat_gfsl(wl, setup, reps);
    const auto based = measure_gfsl(wl, setup);
    t.add_row({"per-op", fmt_ci(base.mops.mean, base.mops.ci95_half),
               fmt(based.sim_mops), "1.00x", "-",
               fmt(based.avg_chunks_per_traversal, 2), "-"});
    add_metric(report, "per_op_mops." + rk, "mops", Better::kHigher, true,
               base.samples);
    add_metric(report, "per_op_chunks_per_trav." + rk, "chunks",
               Better::kLower, true, {based.avg_chunks_per_traversal});

    for (const auto bs : batch_sizes) {
      setup.batch_size = bs;
      const auto b = repeat_gfsl(wl, setup, reps);
      const auto bd = measure_gfsl(wl, setup);
      const auto descents = bd.batch.descent_reuses + bd.batch.full_descents;
      const double reuse =
          descents ? static_cast<double>(bd.batch.descent_reuses) /
                         static_cast<double>(descents)
                   : 0.0;
      const auto num_batches = (wl.num_ops + bs - 1) / bs;
      t.add_row({"batch " + std::to_string(bs),
                 fmt_ci(b.mops.mean, b.mops.ci95_half), fmt(bd.sim_mops),
                 fmt(b.mops.mean / base.mops.mean, 2) + "x", fmt_pct(reuse),
                 fmt(bd.avg_chunks_per_traversal, 2),
                 fmt(static_cast<double>(bd.batch.steals) /
                         static_cast<double>(num_batches),
                     1)});
      const std::string key = "b" + std::to_string(bs) + "." + rk;
      add_metric(report, "batch_mops." + key, "mops", Better::kHigher, true,
                 b.samples);
      add_metric(report, "batch_speedup." + key, "x", Better::kHigher, false,
                 {b.mops.mean / base.mops.mean});
      add_metric(report, "batch_reuse_pct." + key, "fraction", Better::kHigher,
                 true, {reuse});
      add_metric(report, "batch_chunks_per_trav." + key, "chunks",
                 Better::kLower, true, {bd.avg_chunks_per_traversal});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "acceptance: batched >= 1.3x per-op modeled throughput at batch >= "
      "1024, 1M key range.\n");
  return report;
}

// ---------------------------------------------------------------------------
// Steady-state churn — memory evolution under epoch reclamation.

struct ChurnParams {
  int workers = 4;
  int team_size = 8;
  std::uint32_t pool_chunks = 4096;
  std::uint64_t key_range = 512;
  std::uint64_t slices = 8;
  std::uint64_t ops_per_slice = 6144;  // slices * this >= 10x pool capacity
  std::uint64_t seed = 0xC0FF;
};

struct ChurnOutcome {
  std::uint64_t slices_survived = 0;
  std::uint64_t final_in_use = 0;
  std::uint64_t final_limbo = 0;
  std::uint64_t final_free = 0;
  std::uint64_t reclaimed = 0;
  double host_kops = 0.0;  // mean over completed slices
};

ChurnOutcome run_churn(const ChurnParams& p, bool with_epochs, Table* t) {
  core::GfslConfig cfg;
  cfg.team_size = p.team_size;
  cfg.pool_chunks = p.pool_chunks;
  StackOptions so;
  so.epochs = with_epochs;
  GfslStack stack(cfg, so);
  core::Gfsl& sl = stack.gfsl();
  const char* mode = with_epochs ? "ebr" : "leak";
  ChurnOutcome out;
  double kops_sum = 0.0;

  for (std::uint64_t s = 0; s < p.slices; ++s) {
    WorkloadConfig wl;
    wl.mix = kMix_50_50_0;
    wl.key_range = p.key_range;
    wl.num_ops = p.ops_per_slice;
    wl.seed = p.seed + s;
    RunConfig rc;
    rc.num_workers = p.workers;
    rc.seed = 3;
    const RunResult run = run_gfsl(sl, generate_ops(wl), rc, stack.mem());
    const double kops =
        static_cast<double>(p.ops_per_slice) / run.sim_wall_seconds / 1e3;

    t->add_row({mode, std::to_string(s + 1), fmt(kops),
                std::to_string(sl.chunks_allocated()),
                std::to_string(with_epochs ? sl.epochs()->limbo_total() : 0),
                std::to_string(sl.arena().free_count()),
                std::to_string(sl.chunks_reclaimed()),
                run.out_of_memory ? "POOL EXHAUSTED" : ""});
    kops_sum += kops;
    out.slices_survived = s + 1;
    out.final_in_use = sl.chunks_allocated();
    out.final_limbo = with_epochs ? sl.epochs()->limbo_total() : 0;
    out.final_free = sl.arena().free_count();
    out.reclaimed = sl.chunks_reclaimed();
    if (run.out_of_memory) break;  // leaking mode: no point continuing
  }
  out.host_kops =
      out.slices_survived ? kops_sum / static_cast<double>(out.slices_survived)
                          : 0.0;
  return out;
}

BenchReport run_steady_state_churn(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "steady_state_churn";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  ChurnParams p;
  p.seed = sc.seed == 0x5EEDF ? p.seed : sc.seed;
  // GFSL_OPS scales total churn volume; keep >= 10x pool capacity per mode.
  p.ops_per_slice = std::max<std::uint64_t>(
      sc.ops / p.slices, 10ull * p.pool_chunks / p.slices + 1);
  std::printf(
      "# steady-state churn: GFSL-%d, 50/50 insert/erase, range %llu, "
      "pool %u chunks, %llu slices x %llu ops, %d free-running teams\n",
      p.team_size, static_cast<unsigned long long>(p.key_range), p.pool_chunks,
      static_cast<unsigned long long>(p.slices),
      static_cast<unsigned long long>(p.ops_per_slice), p.workers);
  std::printf(
      "# detached (leak): every merge strands a zombie chunk until the pool "
      "dies; attached (ebr): in-use flat-lines at the working set\n\n");

  Table t({"mode", "slice", "kops/s(host)", "in_use", "limbo", "free",
           "reclaimed", "note"});
  // The per-metric samples are per-repetition outcomes of the full soak.
  const int reps = static_cast<int>(sc.reps);
  std::vector<double> ebr_in_use, ebr_reclaimed, ebr_limbo, ebr_kops,
      leak_slices;
  for (int r = 0; r < reps; ++r) {
    ChurnParams pr = p;
    pr.seed = derive_seed(p.seed, static_cast<std::uint64_t>(r) + 1);
    const auto leak = run_churn(pr, /*with_epochs=*/false, &t);
    const auto ebr = run_churn(pr, /*with_epochs=*/true, &t);
    leak_slices.push_back(static_cast<double>(leak.slices_survived));
    ebr_in_use.push_back(static_cast<double>(ebr.final_in_use));
    ebr_reclaimed.push_back(static_cast<double>(ebr.reclaimed));
    ebr_limbo.push_back(static_cast<double>(ebr.final_limbo));
    ebr_kops.push_back(ebr.host_kops);
  }
  t.print(std::cout);

  report.set_config("pool_chunks", std::to_string(p.pool_chunks));
  report.set_config("churn_key_range", std::to_string(p.key_range));
  report.set_config("churn_slices", std::to_string(p.slices));
  report.set_config("churn_ops_per_slice", std::to_string(p.ops_per_slice));
  // Gate the memory-evolution invariants (deterministic up to scheduling
  // noise), never the host-side throughput.
  add_metric(report, "ebr_final_in_use", "chunks", Better::kLower, true,
             std::move(ebr_in_use));
  add_metric(report, "ebr_reclaimed_total", "chunks", Better::kHigher, false,
             std::move(ebr_reclaimed));
  add_metric(report, "ebr_final_limbo", "chunks", Better::kLower, false,
             std::move(ebr_limbo));
  add_metric(report, "ebr_host_kops", "kops", Better::kHigher, false,
             std::move(ebr_kops));
  add_metric(report, "leak_slices_survived", "slices", Better::kNone, false,
             std::move(leak_slices));
  return report;
}

// ---------------------------------------------------------------------------
// Host-overhead A/B engine — micro_ops, persist_overhead and
// integrity_overhead are each one table of arms: a stack configuration plus
// the team-side observability it arms.  Every measurement builds a fresh
// fixture (GFSL-32 bulk-loaded with 10K even keys) and times one loop:
// contains over keys cycling through 1..20000, or an insert/erase pair on
// keys counting up from 50001.  The arms run interleaved within each rep so
// machine drift (thermal, cache pressure from neighbors) hits all arms of
// rep r alike, and the per-rep ratios against arm 0 carry a real spread for
// bench_compare's k·σ band.  Raw nanoseconds are machine-speed-bound and
// stay informational; a table that gates, gates the ratios, which cancel
// the machine out.

enum class Probe { kNone, kMetrics, kFlightRecorder };

struct OverheadArm {
  std::string key;  // metric-name suffix
  StackOptions stack{};
  Probe probe = Probe::kNone;
};

struct OverheadTable {
  std::string campaign;
  std::string what;               // banner: "host ns/op <what>"
  std::vector<OverheadArm> arms;  // arm 0 is the ratio base
  bool gate_ratios = false;
  int scrub_arm = -1;  // >= 0: also time one scrub pass per rep on this arm
  std::string acceptance;
};

core::GfslConfig overhead_config() {
  core::GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 16;
  return cfg;
}

struct OverheadFixture {
  explicit OverheadFixture(const OverheadArm& arm)
      : stack(overhead_config(), arm.stack), team(32, 0, 1) {
    if (arm.probe == Probe::kMetrics) team.set_metrics(&reg.shard(0));
    if (arm.probe == Probe::kFlightRecorder) team.set_trace(&ring);
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 1; k <= 10'000; ++k) pairs.emplace_back(k * 2, k);
    stack.gfsl().bulk_load(pairs);
  }
  GfslStack stack;
  obs::MetricsRegistry reg{1};
  simt::TeamTrace ring{256, /*timestamps=*/false};
  simt::Team team;
};

double ns_per(std::chrono::steady_clock::time_point t0, std::uint64_t n) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
         static_cast<double>(n);
}

double overhead_contains_ns(const OverheadArm& arm, std::uint64_t iters) {
  OverheadFixture f(arm);
  core::Gfsl& sl = f.stack.gfsl();
  Key k = 1;
  bool sink = false;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    sink ^= sl.contains(f.team, k);
    k = (k % 20'000) + 1;
  }
  const double ns = ns_per(t0, iters);
  if (sink) std::fputs("", stdout);  // keep the loop observable
  return ns;
}

double overhead_insert_erase_ns(const OverheadArm& arm, std::uint64_t iters) {
  OverheadFixture f(arm);
  core::Gfsl& sl = f.stack.gfsl();
  Key k = 50'001;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    sl.insert(f.team, k, 0);
    sl.erase(f.team, k);
    ++k;
  }
  return ns_per(t0, iters * 2);  // two structure ops per iteration
}

double overhead_scrub_ns_per_chunk(const OverheadArm& arm) {
  OverheadFixture f(arm);
  const auto t0 = std::chrono::steady_clock::now();
  const core::ScrubReport rep = f.stack.gfsl().scrub_pass(f.team);
  return rep.chunks_scanned == 0 ? 0.0 : ns_per(t0, rep.chunks_scanned);
}

BenchMetric samples_of(const std::vector<double>& v) {
  BenchMetric m;
  m.samples = v;
  return m;
}

BenchReport run_overhead(const CampaignOptions& opts,
                         const OverheadTable& tab) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = tab.campaign;
  stamp_scale(report, sc, opts);

  const std::uint64_t iters = opts.quick ? 20'000 : 50'000;
  const int reps = static_cast<int>(sc.reps);
  report.set_config("iters", std::to_string(iters));
  const std::string& base = tab.arms[0].key;

  std::printf("# %s: host ns/op %s\n# (%d reps x %llu iters, arms interleaved "
              "per rep; %s)\n\n",
              tab.campaign.c_str(), tab.what.c_str(), reps,
              static_cast<unsigned long long>(iters),
              tab.gate_ratios
                  ? "gated on the per-rep ratios against detached, which "
                    "cancel machine speed"
                  : "informational");

  const std::size_t n = tab.arms.size();
  std::vector<std::vector<double>> ns_c(n), ns_ie(n);
  std::vector<double> ns_scrub;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t a = 0; a < n; ++a) {
      ns_c[a].push_back(overhead_contains_ns(tab.arms[a], iters));
      ns_ie[a].push_back(overhead_insert_erase_ns(tab.arms[a], iters));
    }
    if (tab.scrub_arm >= 0) {
      ns_scrub.push_back(overhead_scrub_ns_per_chunk(
          tab.arms[static_cast<std::size_t>(tab.scrub_arm)]));
    }
  }

  Table t({"loop", "mode", "ns/op (mean ±stddev)", "vs " + base});
  // One table row and its metrics per (arm, loop); arm 0 has no ratio metric.
  const auto emit = [&](const char* loop, std::size_t a,
                        const std::vector<double>& ns,
                        const std::vector<double>& base_ns) {
    const std::string& mk = tab.arms[a].key;
    std::vector<double> ratio;
    for (std::size_t r = 0; r < ns.size(); ++r) {
      ratio.push_back(ns[r] / base_ns[r]);
    }
    const BenchMetric m = samples_of(ns);
    t.add_row({loop, mk, fmt_mean_stddev(m.mean(), m.stddev(), 1),
               fmt(samples_of(ratio).mean(), 2) + "x"});
    add_metric(report, std::string(loop) + "_ns." + mk, "ns", Better::kLower,
               false, ns);
    if (a > 0) {
      add_metric(report, std::string(loop) + "_ratio." + mk, "x",
                 Better::kLower, tab.gate_ratios, std::move(ratio));
    }
  };
  for (std::size_t a = 0; a < n; ++a) {
    emit("contains", a, ns_c[a], ns_c[0]);
    emit("insert_erase", a, ns_ie[a], ns_ie[0]);
  }
  if (tab.scrub_arm >= 0) {
    const std::string& mk =
        tab.arms[static_cast<std::size_t>(tab.scrub_arm)].key;
    const BenchMetric scrub = samples_of(ns_scrub);
    t.add_row({"scrub_pass", mk,
               fmt_mean_stddev(scrub.mean(), scrub.stddev(), 1) + " /chunk",
               "-"});
    add_metric(report, "scrub_ns_per_chunk." + mk, "ns", Better::kLower, false,
               std::move(ns_scrub));
  }
  t.print(std::cout);
  std::printf("\nacceptance: %s\n", tab.acceptance.c_str());
  for (const auto& arm : tab.arms) {
    if (arm.stack.persist_path.empty()) continue;
    std::error_code ec;
    std::filesystem::remove(arm.stack.persist_path, ec);
  }
  return report;
}

BenchReport run_micro_ops(const CampaignOptions& opts) {
  return run_overhead(
      opts,
      {.campaign = "micro_ops",
       .what = "with observability detached / metrics shard attached / "
               "flight recorder armed, and with epoch reclamation attached",
       .arms = {{.key = "detached"},
                {.key = "metrics", .probe = Probe::kMetrics},
                {.key = "flight_recorder", .probe = Probe::kFlightRecorder},
                {.key = "epochs", .stack = {.epochs = true}}},
       .acceptance = "the armed-but-idle flight recorder stays within noise "
                     "of detached (a ring store is a few arithmetic ops and "
                     "one array write; no clock read); the epochs ratio is "
                     "the fault-free EBR overhead (pin/unpin per op, "
                     "generation-checked reads, merges retiring to limbo)."});
}

BenchReport run_persist_overhead(const CampaignOptions& opts) {
  const std::string region =
      (std::filesystem::temp_directory_path() / "gfsl_persist_overhead.region")
          .string();
  return run_overhead(
      opts,
      {.campaign = "persist_overhead",
       .what = "across the durability ladder — detached (seed path) / leased "
               "(lease words only) / armed (file-backed region + persist "
               "barriers)",
       .arms = {{.key = "detached"},
                {.key = "leased", .stack = {.leases = true}},
                {.key = "armed", .stack = {.persist_path = region}}},
       .gate_ratios = true,
       .acceptance = "the fault-free detached path pays nothing "
                     "(persist_point() is a single pointer test); the armed "
                     "ratio is the price of durability and must not creep."});
}

BenchReport run_integrity_overhead(const CampaignOptions& opts) {
  return run_overhead(
      opts,
      {.campaign = "integrity_overhead",
       .what = "with the integrity sidecar detached (seed path) / armed "
               "crc32c / armed xorfold",
       .arms = {{.key = "detached"},
                {.key = "crc32c",
                 .stack = {.integrity = true, .seal = core::SealAlgo::kCrc32c}},
                {.key = "xorfold",
                 .stack = {.integrity = true,
                           .seal = core::SealAlgo::kXorFold}}},
       .gate_ratios = true,
       .scrub_arm = 1,
       .acceptance = "the detached path pays nothing (every seal call starts "
                     "with one null test); the armed ratios are the price of "
                     "tamper-evident chunks and must not creep."});
}

// ---------------------------------------------------------------------------
// Scan-mixed — MVCC snapshot scans concurrent with a mutating mix
// (DESIGN.md §13).  A/B: the same mutator workload runs once with no
// SnapshotManager attached (seed path; the scanner uses the best-effort
// legacy scan) and once with versioning armed (the scanner takes a snapshot,
// scan_at's the full range, releases, repeats).  Gated series: mutator
// throughput in both modes and their paired ratio — the price mutators pay
// for record stamping plus a live scanner pinning the GC watermark.

struct ScanMixedParams {
  int workers = 4;
  int team_size = 8;
  std::uint32_t pool_chunks = 1u << 14;
  std::uint64_t key_range = 4096;
  std::uint64_t ops = 6'000;  // total mutator ops per rep
  std::uint64_t seed = 0x5CA7;
};

struct ScanMixedOutcome {
  double mut_kops = 0.0;       // mutator host throughput
  double scans = 0.0;          // full-range scans the scanner completed
  double keys_per_scan = 0.0;  // mean pairs per completed scan
  double expired = 0.0;        // scan_at aborts on an expired snapshot
};

ScanMixedOutcome run_scan_mixed_once(const ScanMixedParams& p, bool mvcc) {
  core::GfslConfig cfg;
  cfg.team_size = p.team_size;
  cfg.pool_chunks = p.pool_chunks;
  StackOptions so;
  so.epochs = true;
  so.snapshots = mvcc;
  GfslStack stack(cfg, so);
  core::Gfsl& sl = stack.gfsl();
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 2; k < static_cast<Key>(p.key_range); k += 2) {
    pairs.emplace_back(k, k);
  }
  sl.bulk_load(pairs);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scans{0}, keys{0}, expired{0};
  std::thread scanner([&] {
    simt::Team team(p.team_size, p.workers, 5);
    std::vector<std::pair<Key, Value>> got;
    while (!done.load(std::memory_order_acquire)) {
      got.clear();
      if (mvcc) {
        core::Snapshot s = sl.snapshot();
        const auto st = sl.scan_at(team, s, MIN_USER_KEY, MAX_USER_KEY, got);
        sl.release_snapshot(s);
        if (st != core::ScanAtStatus::kOk) {
          expired.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        sl.scan(team, MIN_USER_KEY, MAX_USER_KEY, got);
      }
      scans.fetch_add(1, std::memory_order_relaxed);
      keys.fetch_add(got.size(), std::memory_order_relaxed);
    }
  });

  WorkloadConfig wl;
  wl.mix = Mix{40, 40, 20};
  wl.key_range = p.key_range;
  wl.num_ops = p.ops;
  wl.seed = p.seed;
  RunConfig rc;
  rc.num_workers = p.workers;
  rc.seed = 3;
  const RunResult run = run_gfsl(sl, generate_ops(wl), rc, stack.mem());
  done.store(true, std::memory_order_release);
  scanner.join();

  ScanMixedOutcome out;
  out.mut_kops = static_cast<double>(p.ops) / run.sim_wall_seconds / 1e3;
  out.scans = static_cast<double>(scans.load());
  out.keys_per_scan =
      scans.load() ? static_cast<double>(keys.load()) /
                         static_cast<double>(scans.load())
                   : 0.0;
  out.expired = static_cast<double>(expired.load());
  return out;
}

BenchReport run_scan_mixed(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "scan_mixed";
  stamp_scale(report, sc, opts);

  ScanMixedParams p;
  p.workers = static_cast<int>(sc.teams);
  p.ops = sc.ops;
  p.seed = sc.seed;
  report.set_config("key_range", std::to_string(p.key_range));
  const int reps = static_cast<int>(sc.reps);

  std::printf(
      "# scan_mixed: %d mutator teams (mix 40/40/20 over %llu keys) vs one "
      "full-range scanner — legacy best-effort scan (detached) against "
      "snapshot()+scan_at() (mvcc)\n"
      "# (%d reps x %llu ops; gated on mutator kops and the paired "
      "mvcc/detached ratio, which cancels machine speed)\n\n",
      p.workers, static_cast<unsigned long long>(p.key_range), reps,
      static_cast<unsigned long long>(p.ops));

  // Interleave the two arms within each rep (same rationale as
  // persist_overhead: drift hits both arms of rep r alike, so the paired
  // per-rep ratio carries real spread for bench_compare's k-sigma band).
  std::vector<double> kops[2], scans[2], kps[2], expired[2];
  for (int r = 0; r < reps; ++r) {
    for (int mi = 0; mi < 2; ++mi) {
      const auto o = run_scan_mixed_once(p, /*mvcc=*/mi == 1);
      kops[mi].push_back(o.mut_kops);
      scans[mi].push_back(o.scans);
      kps[mi].push_back(o.keys_per_scan);
      expired[mi].push_back(o.expired);
    }
  }

  Table t({"mode", "mutator kops (mean ±stddev)", "vs detached", "scans/rep",
           "keys/scan", "expired"});
  for (int mi = 0; mi < 2; ++mi) {
    const std::string mk = mi == 0 ? "detached" : "mvcc";
    BenchMetric m;
    m.samples = kops[mi];
    BenchMetric s;
    s.samples = scans[mi];
    BenchMetric k;
    k.samples = kps[mi];
    std::vector<double> ratio;
    for (int r = 0; r < reps; ++r) {
      ratio.push_back(kops[0][static_cast<std::size_t>(r)] /
                      kops[mi][static_cast<std::size_t>(r)]);
    }
    BenchMetric rm;
    rm.samples = ratio;
    BenchMetric ex;
    ex.samples = expired[mi];
    t.add_row({mk, fmt_mean_stddev(m.mean(), m.stddev(), 1),
               mi == 0 ? "1.00x" : fmt(rm.mean(), 2) + "x", fmt(s.mean(), 1),
               fmt(k.mean(), 1), fmt(ex.mean(), 1)});
    add_metric(report, "mutator_kops." + mk, "kops", Better::kHigher, true,
               kops[mi]);
    add_metric(report, "scans." + mk, "scans", Better::kHigher, false,
               scans[mi]);
    add_metric(report, "keys_per_scan." + mk, "keys", Better::kHigher, false,
               kps[mi]);
    if (mi == 1) {
      add_metric(report, "mutator_slowdown.mvcc", "x", Better::kLower, true,
                 std::move(ratio));
      add_metric(report, "scan_expired.mvcc", "scans", Better::kLower, false,
                 expired[mi]);
    }
  }
  t.print(std::cout);
  std::printf(
      "\nacceptance: the mvcc mutator slowdown stays a small constant factor "
      "(record stamping + a pinned watermark, no stop-the-world), and "
      "scan_at keeps completing full-range cuts under churn (expired ~ 0).\n");
  return report;
}

// ---------------------------------------------------------------------------
// Foresight point ops — hinted descent A/B (DESIGN.md §14).

BenchReport run_foresight_pointops(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "foresight_pointops";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf(
      "# Foresight hint table A/B: classic head descent (detached) vs hinted "
      "bottom-chunk jump (foresight), per-op dispatch\n"
      "# (hit/stale rates from gfsl-metrics-v1 counters of one armed rep)\n\n");

  std::vector<std::uint64_t> ranges{100'000};
  if (sc.max_range >= 1'000'000) ranges.push_back(1'000'000);
  // Contains-only is the paper's pure point-lookup test; 5/5/90 adds enough
  // churn that splits and merges keep dirtying the published table.
  const Mix mixes[] = {kContainsOnly, kMix_5_5_90};
  const int reps = static_cast<int>(sc.reps);

  for (const auto range : ranges) {
    for (const auto& mix : mixes) {
      std::printf("## key range %s, mix %s\n", fmt_range(range).c_str(),
                  mix.name().c_str());
      Table t({"mode", "model MOPS", "speedup", "chunks/trav", "hit %",
               "stale %", "rebuilds"});

      auto wl = make_workload(mix, range, sc.ops, sc.seed);
      auto setup = setup_from_scale(sc);
      const std::string key = mix_key(mix) + "." + range_key(range);

      setup.foresight = false;
      const auto base = repeat_gfsl(wl, setup, reps);
      const auto based = measure_gfsl(wl, setup);
      t.add_row({"detached", fmt_ci(base.mops.mean, base.mops.ci95_half),
                 "1.00x", fmt(based.avg_chunks_per_traversal, 2), "-", "-",
                 "-"});
      add_metric(report, "detached_mops." + key, "mops", Better::kHigher, true,
                 base.samples);
      add_metric(report, "detached_chunks_per_trav." + key, "chunks",
                 Better::kLower, true, {based.avg_chunks_per_traversal});

      setup.foresight = true;
      const auto fs = repeat_gfsl(wl, setup, reps);
      obs::MetricsRegistry reg(setup.num_workers);
      setup.metrics = &reg;
      const auto fsd = measure_gfsl(wl, setup);
      setup.metrics = nullptr;
      const obs::MetricsShard all = reg.merged();
      const double hits =
          static_cast<double>(all.counter(obs::kForesightHits));
      const double falls =
          static_cast<double>(all.counter(obs::kForesightFallbacks));
      const double stale =
          static_cast<double>(all.counter(obs::kForesightStaleHints));
      const double consults = hits + falls;
      const double hit_rate = consults > 0.0 ? hits / consults : 0.0;
      const double stale_rate = consults > 0.0 ? stale / consults : 0.0;
      const double rebuilds =
          static_cast<double>(all.counter(obs::kForesightRebuilds));
      t.add_row({"foresight", fmt_ci(fs.mops.mean, fs.mops.ci95_half),
                 fmt(fs.mops.mean / base.mops.mean, 2) + "x",
                 fmt(fsd.avg_chunks_per_traversal, 2), fmt_pct(hit_rate),
                 fmt_pct(stale_rate), fmt(rebuilds, 0)});
      add_metric(report, "foresight_mops." + key, "mops", Better::kHigher,
                 true, fs.samples);
      add_metric(report, "foresight_speedup." + key, "x", Better::kHigher,
                 false, {fs.mops.mean / base.mops.mean});
      add_metric(report, "foresight_chunks_per_trav." + key, "chunks",
                 Better::kLower, true, {fsd.avg_chunks_per_traversal});
      add_metric(report, "foresight_hit_rate." + key, "fraction",
                 Better::kHigher, true, {hit_rate});
      add_metric(report, "foresight_stale_rate." + key, "fraction",
                 Better::kLower, false, {stale_rate});
      t.print(std::cout);
      std::printf("\n");
    }
  }
  std::printf(
      "acceptance: hinted point lookups average <= 2 chunks/traversal at 1M+ "
      "keys with a high hit rate; churny mixes degrade to fallbacks, never "
      "to wrong results.\n");
  return report;
}

}  // namespace

const std::vector<Campaign>& campaigns() {
  static const std::vector<Campaign> kCampaigns = {
      {"table_5_1_warps_gfsl",
       "GFSL-32 launch configurations: occupancy, spill, modeled MOPS",
       run_table_5_1},
      {"table_5_2_warps_mc",
       "M&C launch configurations: occupancy, spill, modeled MOPS",
       run_table_5_2},
      {"fig_5_1_chunk_size", "GFSL-16 vs GFSL-32 vs M&C, mix [10,10,80]",
       run_fig_5_1},
      {"fig_5_2_ratio", "GFSL / M&C throughput ratio per mix and key range",
       run_fig_5_2},
      {"fig_5_3_mixed_ops", "throughput vs key range per mixed-op mix",
       run_fig_5_3},
      {"fig_5_4_single_op",
       "contains-/insert-/delete-only throughput vs key range", run_fig_5_4},
      {"ablation_p_chunk", "GFSL-32 throughput and traversal cost vs p_chunk",
       run_ablation_p_chunk},
      {"ext_dual_team_warp", "GFSL-16 x2 teams per warp vs GFSL-16 and GFSL-32",
       run_ext_dual_team_warp},
      {"batch_throughput", "batched vs per-op dispatch A/B",
       run_batch_throughput},
      {"steady_state_churn", "epoch-reclamation memory soak (leak vs ebr)",
       run_steady_state_churn},
      {"micro_ops",
       "host ns/op with observability layers or epochs detached vs armed",
       run_micro_ops},
      {"persist_overhead",
       "host ns/op with the durable region detached / leased / armed",
       run_persist_overhead},
      {"integrity_overhead",
       "host ns/op with the integrity sidecar detached / crc32c / xorfold",
       run_integrity_overhead},
      {"scan_mixed",
       "mutator mix vs a full-range scanner, legacy scan / mvcc scan_at A/B",
       run_scan_mixed},
      {"foresight_pointops",
       "hinted bottom-chunk descent vs classic head descent A/B",
       run_foresight_pointops},
  };
  return kCampaigns;
}

const Campaign* find_campaign(const std::string& name) {
  for (const auto& c : campaigns()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

BenchReport run_campaign(const Campaign& c, const CampaignOptions& opts) {
  BenchReport report = c.run(opts);
  report.stamp_environment();
  if (!opts.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    const std::string path = opts.out_dir + "/BENCH_" + report.campaign +
                             ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    } else {
      write_bench_json(out, report);
      std::printf("# wrote %s\n", path.c_str());
    }
  }
  return report;
}

}  // namespace gfsl::harness
