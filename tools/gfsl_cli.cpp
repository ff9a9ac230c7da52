// gfsl_cli — run arbitrary GFSL / M&C experiments from the command line.
//
//   gfsl_cli --structure gfsl --mix 10,10,80 --range 1000000 --ops 100000
//            --reps 3 --team-size 32 --p-chunk 1.0 --workers 8 --csv
//
// Options (all optional):
//   --structure gfsl|mc|gfsl-dual   which implementation to run [gfsl]
//   --mix i,d,c                     op percentages, summing to 100 [10,10,80]
//   --range N                       key range [1000000]
//   --ops N                         operations per run [100000]
//   --reps N                        repetitions (mean ±95% CI) [3]
//   --seed N                        master RNG seed [1]
//   --team-size 8|16|32             GFSL chunk/team size [32]
//   --p-chunk F                     GFSL raise probability [1.0]
//   --warps-per-block 8|16|24|32    launch config for the model [16]
//   --workers N                     concurrent simulator threads [8]
//   --prefill empty|half|full       initial structure [per-mix default]
//   --warmup N                      untimed warmup ops [ops/4]
//   --batch-size N                  kernel-style batched dispatch with N ops
//                                   per launch (gfsl only; 0 = per-op) [0]
//   --foresight                     attach a ForesightIndex (DESIGN.md §14):
//                                   point ops and cold batch descents jump to
//                                   a hinted bottom chunk; hit/stale counters
//                                   land in --metrics-json (gfsl only)
//   --snapshot-scan                 attach a SnapshotManager to the detail run
//                                   and drive a concurrent scanner thread
//                                   through snapshot() + scan_at(); scan
//                                   traffic is reported separately and the
//                                   repetition runs stay unversioned (gfsl
//                                   only)
//   --csv                           CSV output instead of a table
//   --metrics-json PATH             write a telemetry report (one measured
//                                   run) as gfsl-metrics-v1 JSON
//   --trace-out PATH                write per-team Chrome trace-event JSON
//                                   (load in chrome://tracing / perfetto)
//   --postmortem-out PATH           after the detail run, validate the
//                                   structure and write a gfsl-postmortem-v1
//                                   bundle (reason "on_demand" when healthy,
//                                   "validate_failure" otherwise; gfsl only)
//   --persist PATH                  back the detail run's arena with a durable
//                                   file-backed region at PATH (gfsl only);
//                                   the run ends with a clean-shutdown mark
//   --recover                       offline recovery: attach the region at
//                                   --persist PATH, run Gfsl::recover() and
//                                   print the repair report; no workload runs
//   --integrity                     attach an IntegritySidecar (DESIGN.md §15)
//                                   to the detail run: every lock release
//                                   restamps the chunk's seal, checked reads
//                                   verify on their cold path (gfsl only)
//   --scrub N                       with --integrity (implied): run N online
//                                   scrub passes after the detail run and
//                                   print the integrity stat rows (gfsl only)
//   --corrupt SECTION:KIND:SEED     no workload: run one corruption-sweep
//                                   cell (sections chunk|freelist|intent|
//                                   superblock|generation, kinds flip|
//                                   multiflip|torn|stuck|dropbarrier) and
//                                   print what the armor did about it
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "device/fault_plane.h"
#include "harness/corrupt_sweep.h"
#include "harness/experiment.h"
#include "harness/options.h"
#include "harness/report.h"
#include "harness/stack.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

Mix parse_mix(const std::string& s) {
  Mix m{};
  if (std::sscanf(s.c_str(), "%d,%d,%d", &m.insert_pct, &m.delete_pct,
                  &m.contains_pct) != 3 ||
      m.insert_pct + m.delete_pct + m.contains_pct != 100) {
    throw std::invalid_argument("--mix must be i,d,c summing to 100");
  }
  return m;
}

Prefill parse_prefill(const std::string& s, const Mix& mix) {
  if (s == "empty") return Prefill::Empty;
  if (s == "half") return Prefill::HalfRange;
  if (s == "full") return Prefill::FullRange;
  if (s.empty()) return default_prefill(mix);
  throw std::invalid_argument("--prefill must be empty|half|full");
}

int usage() {
  std::fprintf(stderr,
               "usage: gfsl_cli [--structure gfsl|mc|gfsl-dual] [--mix i,d,c] "
               "[--range N] [--ops N] [--reps N] [--seed N] [--team-size N] "
               "[--p-chunk F] [--warps-per-block N] [--workers N] "
               "[--prefill empty|half|full] [--warmup N] [--batch-size N] "
               "[--foresight] [--snapshot-scan] [--csv] [--metrics-json PATH] "
               "[--trace-out PATH] [--postmortem-out PATH] [--persist PATH] "
               "[--recover] [--integrity] [--scrub N] "
               "[--corrupt SECTION:KIND:SEED]\n");
  return 2;
}

/// One corruption-sweep cell (the `--corrupt section:kind:seed` repro form
/// the sweep's failure lines print): inject exactly that fault, run the
/// detect/repair/quarantine pipeline, and report what the armor did.
int run_corrupt_cell(const Options& opt, bool csv) {
  const std::string spec = opt.get("corrupt", "");
  const auto c1 = spec.find(':');
  const auto c2 = c1 == std::string::npos ? std::string::npos
                                          : spec.find(':', c1 + 1);
  device::FaultSection section{};
  device::FaultKind kind{};
  if (c2 == std::string::npos ||
      !device::parse_fault_section(spec.substr(0, c1), &section) ||
      !device::parse_fault_kind(spec.substr(c1 + 1, c2 - c1 - 1), &kind)) {
    std::fprintf(stderr,
                 "error: --corrupt wants SECTION:KIND:SEED (sections "
                 "chunk|freelist|intent|superblock|generation, kinds "
                 "flip|multiflip|torn|stuck|dropbarrier)\n");
    return 2;
  }
  CorruptSweepConfig cfg;
  cfg.sections = {section};
  cfg.kinds = {kind};
  cfg.first_seed = std::strtoull(spec.c_str() + c2 + 1, nullptr, 0);
  cfg.seeds = 1;
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", 400);
  cfg.key_range = opt.get_u64("range", 96);
  cfg.base_seed = opt.get_u64("seed", 0x5EED5EEDull);
  cfg.postmortem_dir = opt.get("postmortem-out", "");
  const CorruptSweepResult res = run_corrupt_sweep(cfg);

  Table t({"metric", "value"});
  t.add_row({"cell", spec});
  t.add_row({"resolved", res.ok ? "yes" : "NO"});
  t.add_row({"faults injected", std::to_string(res.injected)});
  t.add_row({"faults detected", std::to_string(res.detected)});
  t.add_row({"chunks repaired", std::to_string(res.repaired)});
  t.add_row({"chunks quarantined", std::to_string(res.quarantined)});
  t.add_row({"keys lost (reported)", std::to_string(res.keys_lost)});
  t.add_row({"typed rejections", std::to_string(res.rejected_typed)});
  t.add_row({"recoveries verified", std::to_string(res.recoveries)});
  t.add_row({"barriers dropped", std::to_string(res.barriers_dropped)});
  if (!res.ok) t.add_row({"error", res.error});
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  return res.ok ? 0 : 1;
}

/// Offline crash recovery: attach the region file, adopt its image, run the
/// full recover() pass and report what was repaired.  The structure is torn
/// down immediately after — this is the "fsck" entry point; a subsequent run
/// with --persist PATH picks the repaired image back up.
int run_recover(const std::string& path, bool csv) {
  StackOptions so;
  so.persist_path = path;
  so.persist_mode = device::PersistRegion::Mode::kAttach;
  GfslStack stack(core::GfslConfig{}, so);  // geometry comes from the image
  const device::PersistRegion& region = *stack.region();
  if (region.was_clean()) {
    std::fprintf(stderr,
                 "note: region was marked clean (%llu persist points "
                 "recorded); recovering anyway\n",
                 static_cast<unsigned long long>(
                     region.recorded_persist_points()));
  }
  core::Gfsl& sl = stack.gfsl();
  const core::GfslConfig& cfg = sl.config();
  const core::RecoveryReport rep = sl.recover();

  Table t({"metric", "value"});
  t.add_row({"region", path});
  t.add_row({"team size", std::to_string(cfg.team_size)});
  t.add_row({"pool chunks", std::to_string(cfg.pool_chunks)});
  t.add_row({"recovered", rep.ok ? "yes" : "NO"});
  t.add_row({"locks released", std::to_string(rep.locks_released)});
  t.add_row({"intents repaired", std::to_string(rep.intents_repaired)});
  t.add_row({"chunks freed", std::to_string(rep.chunks_freed)});
  t.add_row({"stale keys scrubbed", std::to_string(rep.stale_keys_scrubbed)});
  t.add_row({"upper chunks zombified", std::to_string(rep.chunks_zombified)});
  if (!rep.ok) t.add_row({"error", rep.error});
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  return rep.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = Options::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  const std::set<std::string> known{
      "structure", "mix",     "range",           "ops",    "reps",
      "seed",      "team-size", "p-chunk",       "warps-per-block",
      "workers",   "prefill", "warmup",          "csv",    "help",
      "metrics-json", "trace-out", "batch-size", "postmortem-out",
      "persist",   "recover", "snapshot-scan", "foresight",
      "integrity", "scrub",   "corrupt"};
  if (opt.get_bool("help")) return usage();
  for (const auto& u : opt.unknown(known)) {
    std::fprintf(stderr, "error: unknown option --%s\n", u.c_str());
    return usage();
  }
  if (opt.has("corrupt")) {
    try {
      return run_corrupt_cell(opt, opt.get_bool("csv"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: corruption cell failed: %s\n", e.what());
      return 1;
    }
  }
  if (opt.get_bool("recover")) {
    const std::string path = opt.get("persist", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --recover requires --persist PATH\n");
      return usage();
    }
    try {
      return run_recover(path, opt.get_bool("csv"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: recovery failed: %s\n", e.what());
      return 1;
    }
  }

  WorkloadConfig wl;
  StructureSetup setup;
  std::string structure;
  try {
    structure = opt.get("structure", "gfsl");
    wl.mix = parse_mix(opt.get("mix", "10,10,80"));
    wl.key_range = opt.get_u64("range", 1'000'000);
    wl.num_ops = opt.get_u64("ops", 100'000);
    wl.seed = opt.get_u64("seed", 1);
    wl.prefill = parse_prefill(opt.get("prefill", ""), wl.mix);
    setup.team_size = static_cast<int>(opt.get_u64("team-size", 32));
    setup.p_chunk = opt.get_double("p-chunk", 1.0);
    setup.warps_per_block =
        static_cast<int>(opt.get_u64("warps-per-block", 16));
    setup.num_workers = static_cast<int>(opt.get_u64("workers", 8));
    setup.warmup_ops = opt.get_u64("warmup", wl.num_ops / 4);
    setup.batch_size = opt.get_u64("batch-size", 0);
    if (setup.batch_size > 0 && opt.get("structure", "gfsl") != "gfsl") {
      throw std::invalid_argument("--batch-size requires --structure gfsl");
    }
    setup.persist_path = opt.get("persist", "");
    if (!setup.persist_path.empty() && structure != "gfsl") {
      throw std::invalid_argument("--persist requires --structure gfsl");
    }
    if (opt.get_bool("snapshot-scan") && structure != "gfsl") {
      throw std::invalid_argument("--snapshot-scan requires --structure gfsl");
    }
    setup.foresight = opt.get_bool("foresight");
    if (setup.foresight && structure != "gfsl") {
      throw std::invalid_argument("--foresight requires --structure gfsl");
    }
    setup.scrub_passes = static_cast<int>(opt.get_u64("scrub", 0));
    setup.integrity = opt.get_bool("integrity") || setup.scrub_passes > 0;
    if (setup.integrity && structure != "gfsl") {
      throw std::invalid_argument(
          "--integrity/--scrub requires --structure gfsl");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  const int reps = static_cast<int>(opt.get_u64("reps", 3));
  const std::string metrics_path = opt.get("metrics-json", "");
  const std::string trace_path = opt.get("trace-out", "");
  const std::string postmortem_path = opt.get("postmortem-out", "");
  if (!postmortem_path.empty() && structure != "gfsl") {
    std::fprintf(stderr, "error: --postmortem-out requires --structure gfsl\n");
    return usage();
  }

  // Telemetry is attached to the single detail run only (not the reps), so
  // the report describes exactly one measured launch.  gfsl-dual rounds its
  // worker count up to even internally — shard accordingly.
  int telemetry_workers = setup.num_workers;
  if (structure == "gfsl-dual" && telemetry_workers % 2 != 0) {
    ++telemetry_workers;
  }
  const bool snapshot_scan = opt.get_bool("snapshot-scan");
  if (snapshot_scan) ++telemetry_workers;  // the scanner thread's shard
  if (setup.integrity) ++telemetry_workers;  // the scrub medic's shard
  obs::MetricsRegistry metrics(telemetry_workers);
  obs::TraceSession trace;
  StructureSetup detail_setup = setup;
  if (!metrics_path.empty()) detail_setup.metrics = &metrics;
  if (!trace_path.empty()) detail_setup.trace = &trace;
  detail_setup.postmortem_out = postmortem_path;
  // Versioning is attached to the detail run only: the repetition runs keep
  // the seed's unversioned fast path so the reported MOPS stay comparable.
  detail_setup.snapshot_scan = snapshot_scan;

  Repeated rep;
  Measurement detail;
  try {
    if (structure == "gfsl") {
      rep = repeat_gfsl(wl, setup, reps);
      detail = measure_gfsl(wl, detail_setup);
    } else if (structure == "mc") {
      rep = repeat_mc(wl, setup, reps);
      detail = measure_mc(wl, detail_setup);
    } else if (structure == "gfsl-dual") {
      rep = repeat_gfsl_dual(wl, setup, reps);
      detail = measure_gfsl_dual(wl, detail_setup);
    } else {
      std::fprintf(stderr, "error: unknown structure '%s'\n",
                   structure.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: experiment failed: %s\n", e.what());
    return 1;
  }

  if (!metrics_path.empty()) {
    metrics.set_info("structure", structure);
    metrics.set_info("mix", wl.mix.name());
    metrics.set_info("key_range", std::to_string(wl.key_range));
    metrics.set_info("num_ops", std::to_string(wl.num_ops));
    metrics.set_info("seed", std::to_string(wl.seed));
    metrics.set_info("team_size", std::to_string(setup.team_size));
    metrics.set_info("p_chunk", fmt(setup.p_chunk, 3));
    metrics.set_info("workers", std::to_string(telemetry_workers));
    metrics.set_info("warmup_ops", std::to_string(setup.warmup_ops));
    metrics.set_info("batch_size", std::to_string(setup.batch_size));
    metrics.set_info("snapshot_scan", snapshot_scan ? "1" : "0");
    metrics.set_info("foresight", setup.foresight ? "1" : "0");
    metrics.set_info("integrity", setup.integrity ? "1" : "0");
    metrics.set_info("scrub_passes", std::to_string(setup.scrub_passes));
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    metrics.write_json(out);
    if (!out) {
      std::fprintf(stderr, "error: write failed: %s\n", metrics_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_path.c_str());
      return 1;
    }
    trace.write_chrome_trace(out);
    if (!out) {
      std::fprintf(stderr, "error: write failed: %s\n", trace_path.c_str());
      return 1;
    }
  }

  const auto& k = detail.kernel;
  const double per_op = k.ops > 0 ? 1.0 / static_cast<double>(k.ops) : 0.0;
  Table t({"metric", "value"});
  t.add_row({"structure", structure});
  t.add_row({"mix", wl.mix.name()});
  t.add_row({"range", fmt_range(wl.key_range)});
  t.add_row({"ops/run", std::to_string(wl.num_ops)});
  t.add_row({"modeled MOPS", fmt_ci(rep.mops.mean, rep.mops.ci95_half)});
  t.add_row({"MOPS p50/p90/p99", fmt(rep.mops.p50, 2) + "/" +
                                     fmt(rep.mops.p90, 2) + "/" +
                                     fmt(rep.mops.p99, 2)});
  t.add_row({"simulator MOPS", fmt(detail.sim_mops, 2)});
  t.add_row({"OOM", rep.oom ? "yes" : "no"});
  t.add_row({"bound", detail.detail.bandwidth_bound ? "bandwidth" : "latency"});
  t.add_row({"reads/op (coalesced)",
             fmt(static_cast<double>(k.mem.warp_reads) * per_op, 2)});
  t.add_row({"reads/op (lane)",
             fmt(static_cast<double>(k.mem.lane_reads) * per_op, 2)});
  t.add_row({"transactions/op",
             fmt(static_cast<double>(k.mem.transactions) * per_op, 2)});
  t.add_row({"L2 hit ratio",
             fmt_pct(k.mem.transactions
                         ? static_cast<double>(k.mem.l2_hits) /
                               static_cast<double>(k.mem.transactions)
                         : 0.0)});
  t.add_row({"evict-first share",
             fmt_pct(k.mem.transactions
                         ? static_cast<double>(k.mem.evict_first) /
                               static_cast<double>(k.mem.transactions)
                         : 0.0)});
  t.add_row({"atomics/op", fmt(static_cast<double>(k.mem.atomics) * per_op, 3)});
  t.add_row({"lock spins/op",
             fmt(static_cast<double>(k.lock_spins) * per_op, 3)});
  if (structure != "mc") {
    t.add_row({"chunks/traversal", fmt(detail.avg_chunks_per_traversal, 2)});
  }
  if (setup.batch_size > 0) {
    const auto& b = detail.batch;
    const std::uint64_t searches = b.descent_reuses + b.full_descents;
    t.add_row({"batch size", std::to_string(setup.batch_size)});
    t.add_row({"shards", std::to_string(b.shards)});
    t.add_row({"shard steals", std::to_string(b.steals)});
    t.add_row({"descent reuse",
               fmt_pct(searches ? static_cast<double>(b.descent_reuses) /
                                      static_cast<double>(searches)
                                : 0.0)});
    t.add_row({"epoch pins", std::to_string(b.epoch_pins)});
  }
  if (setup.foresight && detail_setup.metrics != nullptr) {
    // Hint-path effectiveness of the one armed detail run.
    const obs::MetricsShard all = metrics.merged();
    const double hits = static_cast<double>(all.counter(obs::kForesightHits));
    const double falls =
        static_cast<double>(all.counter(obs::kForesightFallbacks));
    const double consults = hits + falls;
    t.add_row({"foresight hit rate",
               fmt_pct(consults > 0.0 ? hits / consults : 0.0)});
    t.add_row({"foresight stale hints",
               std::to_string(all.counter(obs::kForesightStaleHints))});
    t.add_row({"foresight rebuilds",
               std::to_string(all.counter(obs::kForesightRebuilds))});
  }
  if (snapshot_scan) {
    t.add_row({"snapshot scans", std::to_string(detail.snapshot_scans)});
    t.add_row({"snapshot scan items",
               std::to_string(detail.snapshot_scan_items)});
    t.add_row({"snapshot scans expired",
               std::to_string(detail.snapshot_scans_expired)});
  }
  if (setup.integrity) {
    t.add_row({"sealed chunks", std::to_string(detail.sealed_chunks)});
    t.add_row({"scrub suspects", std::to_string(detail.scrub_suspects)});
    if (setup.scrub_passes > 0) {
      t.add_row({"scrub passes", std::to_string(setup.scrub_passes)});
      t.add_row({"scrub chunks scanned",
                 std::to_string(detail.scrub_chunks_scanned)});
      t.add_row({"scrub mismatches",
                 std::to_string(detail.scrub_mismatches)});
      t.add_row({"scrub repaired", std::to_string(detail.scrub_repaired)});
      t.add_row({"scrub quarantined",
                 std::to_string(detail.scrub_quarantined)});
    }
  }
  if (opt.get_bool("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  return 0;
}
