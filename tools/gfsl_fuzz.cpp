// gfsl_fuzz — randomized concurrency fuzzing under deterministic schedules.
//
//   gfsl_fuzz [--rounds N] [--seed S] [--workers N] [--ops N] [--range N]
//             [--team-size N] [--with-foresight]
//
// Each round draws a fresh workload seed and scheduler seed (both in order
// from --seed), runs a multi-team history through the shared runner under
// StepScheduler::Deterministic, then checks (a) structural invariants,
// (b) per-key sequential consistency of the recorded history.  Exits
// non-zero on the first failure, printing a repro line (--seed M
// --rounds r+1 ...) whose last round is the failing one.
// --with-foresight attaches an aggressively-rebuilt hint table (DESIGN.md
// §14) so hinted descents race the mix's splits/merges, and adds a
// full-range contains() differential against collect() after each round
// (failures dump `foresight_mismatch` postmortem bundles).
//
// Observability (every mode):
//
//   --postmortem-dir DIR   Arm clockless flight-recorder rings on every team
//       and, when a round fails (validate failure, watchdog stall, history
//       violation, oracle mismatch), drop a gfsl-postmortem-v1 bundle into
//       DIR (which must exist) carrying the per-team event tails, a metrics
//       snapshot, the epoch-pinned structure walk and the repro parameters.
//   --metrics-json PATH    (churn / crash / batch modes) After the run,
//       write the merged gfsl-metrics-v1 snapshot — op counters, retry and
//       structure-shape histograms — to PATH.  Crash modes keep
//       --metrics-out as an alias.
//
// Crash modes (harness/crash_sweep.h):
//
//   gfsl_fuzz --crash-sweep [--crash-seed S] [--crash-stride N]
//             [--workers N] [--team-size N] [--ops N] [--range N]
//             [--metrics-out FILE] [--with-snapshots] [--with-foresight]
//       Exhaustive crash-point sweep: kill the victim team at every yield
//       step of the seeded reference run; every run must recover (no hang,
//       valid structure, linearizable history with the crashed op optional).
//       --with-snapshots additionally bulk-loads a prefill, holds a
//       snapshot of it across every kill, and requires the post-recovery
//       scan_at to reproduce the prefill exactly (snapshot_mismatch
//       postmortems otherwise).
//
//   gfsl_fuzz --crash-at STEP [--crash-seed S] ...
//       Replay a single kill step — the repro form printed on failure.
//
//   gfsl_fuzz --proc-crash-sweep [--crash-seed S] [--crash-stride N]
//             [--workers N] [--team-size N] [--ops N] [--range N]
//             [--with-epochs] [--with-snapshots] [--work-dir DIR]
//       Whole-PROCESS crash sweep (harness/proc_crash_sweep.h): a forked
//       child runs the workload over a file-backed persist region and is
//       SIGKILLed at every persist point; the parent attaches the orphaned
//       region, runs Gfsl::recover() and checks the recovered contents
//       against the child's op journal (plus an exact std::map replay when
//       --workers 1).  --with-snapshots versions the child (kills land
//       inside record stamps and durable-revision pushes) and makes the
//       parent verify a fresh post-recovery snapshot: scan_at must equal
//       the recovered contents and its revision must not regress below the
//       durable clock.
//
// Corruption modes (harness/corrupt_sweep.h; DESIGN.md §15):
//
//   gfsl_fuzz --corrupt-sweep [--corrupt-seeds N] [--seed S] [--team-size N]
//             [--ops N] [--range N] [--pool N] [--work-dir DIR]
//             [--postmortem-dir DIR]
//       One injected fault per run, swept across every durable section x
//       fault kind x N seeds.  Chunk-data faults must be detected by the
//       seal machinery and repaired (exact contents restored) or
//       quarantined (every missing key inside a reported blast radius);
//       durable-section faults must recover() to the exact pre-close image
//       or be refused with a typed superblock rejection; dropped barriers
//       must change nothing.  Any silent wrong answer fails the sweep with
//       a one-line `--corrupt section:kind:seed` repro.
//
//   gfsl_fuzz --corrupt SECTION:KIND:SEED [...]
//       Replay a single matrix cell — the repro form printed on failure.
//       Sections: chunk freelist intent superblock generation.
//       Kinds: flip multiflip torn stuck dropbarrier.
//
// Churn mode (the bounded-memory soak, DESIGN.md §9):
//
//   gfsl_fuzz --churn [--workers N] [--ops N] [--range N] [--team-size N]
//             [--pool N] [--seed S] [--persist PATH]
//       Free-running teams drive a seeded 50/50 insert/erase op array
//       through a small pool for >= 10x the pool's capacity in operations.
//       With epoch reclamation every merged-away chunk is recycled, so the
//       run must finish with chunks_allocated() bounded and validate()
//       clean; without it the same workload exhausts the pool almost
//       immediately.
//       --persist backs the arena with a durable region at PATH (leases
//       attached, every transition crossing a persist barrier), soaking the
//       persistence hot path under free-running contention; the run ends
//       with a clean shutdown mark.
//
// Batch mode (differential batches against the MapOracle, DESIGN.md §10):
//
//   gfsl_fuzz --batch [--rounds N] [--workers N] [--ops N] [--range N]
//             [--team-size N] [--seed S]
//       Each round draws a random mixed batch and replays it against the
//       std::map MapOracle (harness/workload.h): every per-op outcome and
//       the final structure must match the submission-order reference.
//       Rounds alternate single-team run_batch and the multi-team stealing
//       runner, and attach an EpochManager on every second round so batched
//       descent reuse is fuzzed against concurrent reclamation too.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>

#include "common/random.h"
#include "harness/corrupt_sweep.h"
#include "harness/crash_sweep.h"
#include "harness/experiment.h"
#include "harness/proc_crash_sweep.h"
#include "harness/history.h"
#include "harness/options.h"
#include "harness/postmortem.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "harness/workload.h"
#include "obs/trace_export.h"
#include "simt/trace.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

/// One fuzz round: the op array `wl` on `workers` teams of `team_size`
/// under a Deterministic scheduler seeded with `sched_seed`.
/// --with-foresight and --postmortem-dir come from `opt`.
bool run_round(const Options& opt, const WorkloadConfig& wl, int workers,
               int team_size, std::uint64_t sched_seed, std::uint64_t round,
               std::string* err) {
  const bool with_foresight = opt.get_bool("with-foresight");
  const std::string pm_dir = opt.get("postmortem-dir", "");
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             sched_seed, workers);
  core::GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = 1u << 14;
  StackOptions so;
  so.scheduler = &sched;
  // Threshold 1 keeps the table churning, so hinted descents race every
  // split/merge the mix produces instead of settling into a stale no-op.
  so.foresight = with_foresight;
  so.foresight_stride = 1;
  so.foresight_rebuild_threshold = 1;
  GfslStack stack(cfg, so);
  core::Gfsl& sl = stack.gfsl();

  const auto ops = generate_ops(wl);

  HistoryLog log(wl.num_ops / static_cast<std::uint64_t>(workers) + 8,
                 workers);
  obs::TraceSession rings(1024, /*timestamps=*/false);
  RunConfig rc;
  rc.num_workers = workers;
  rc.seed = 3;
  rc.scheduler = &sched;
  if (!pm_dir.empty()) rc.trace = &rings;
  rc.observers = log.observers();
  (void)run_gfsl(sl, ops, rc, stack.mem());

  auto dump_failure = [&](const std::string& reason,
                          const std::string& detail) {
    if (pm_dir.empty()) return;
    PostmortemContext ctx;
    ctx.reason = reason;
    ctx.detail = detail;
    ctx.gfsl = &sl;
    for (int t = 0; t < rings.teams(); ++t) ctx.rings.push_back(rings.team(t));
    ctx.info = {{"harness", "fuzz_round"},
                {"round", std::to_string(round)},
                {"wl_seed", std::to_string(wl.seed)},
                {"sched_seed", std::to_string(sched_seed)},
                {"workers", std::to_string(workers)},
                {"team_size", std::to_string(team_size)},
                {"ops", std::to_string(wl.num_ops)},
                {"range", std::to_string(wl.key_range)},
                {"with_foresight", with_foresight ? "1" : "0"}};
    (void)dump_postmortem(pm_dir, "postmortem_round_" + std::to_string(round),
                          ctx);
  };
  const auto rep = sl.validate(/*strict=*/false);
  if (!rep.ok) {
    *err = "structure invalid: " + rep.error;
    dump_failure("validate_failure", *err);
    return false;
  }
  std::vector<Key> final_keys;
  for (const auto& [k, v] : sl.collect()) final_keys.push_back(k);
  const auto check = check_history(log.merged(), {}, final_keys);
  if (!check.ok) {
    *err = "history violation: " + check.error;
    dump_failure("history_violation", *err);
    return false;
  }
  // Hinted-read differential: with the table attached, a quiescent contains()
  // over every key in range — most consults land on a published hint — must
  // agree exactly with the structure walk collect() just did.  Any divergence
  // means a hint steered a search past its key: the one failure mode the
  // generation/zombie validation exists to make impossible.
  if (with_foresight) {
    std::set<Key> live(final_keys.begin(), final_keys.end());
    simt::Team verifier(team_size, workers, 3);  // medic-style fresh id
    for (std::uint64_t k = 1; k <= wl.key_range; ++k) {
      const Key key = static_cast<Key>(k);
      if (sl.contains(verifier, key) != (live.count(key) != 0)) {
        *err = "foresight mismatch: contains(" + std::to_string(k) +
               ") disagrees with collect()";
        dump_failure("foresight_mismatch", *err);
        return false;
      }
    }
  }
  return true;
}

void dump_metrics(const obs::MetricsRegistry& reg, const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path);
  reg.write_json(os);
  std::printf("metrics written to %s\n", path.c_str());
}

int run_crash_mode(const Options& opt) {
  CrashSweepConfig cfg;
  cfg.workers = static_cast<int>(opt.get_u64("workers", 3));
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", 96);
  cfg.key_range = opt.get_u64("range", 48);
  cfg.victim = static_cast<int>(opt.get_u64("victim", 0));
  cfg.stride = opt.get_u64("crash-stride", 1);
  cfg.with_epochs = opt.get_bool("with-epochs");
  cfg.with_snapshots = opt.get_bool("with-snapshots");
  cfg.with_foresight = opt.get_bool("with-foresight");
  cfg.prefill = opt.get_u64("prefill", cfg.key_range / 2);
  const auto seed = opt.get_u64("crash-seed", 0xC4A5);
  cfg.wl_seed = seed;
  cfg.sched_seed = seed ^ 0x9E3779B97F4A7C15ull;
  obs::MetricsRegistry reg(cfg.workers + 1);
  reg.set_info("mode", opt.has("crash-at") ? "crash-at" : "crash-sweep");
  // --metrics-json is the cross-mode spelling; --metrics-out predates it.
  const std::string metrics_out =
      opt.get("metrics-json", opt.get("metrics-out", ""));
  cfg.postmortem_dir = opt.get("postmortem-dir", "");

  if (opt.has("crash-at")) {
    const auto step = opt.get_u64("crash-at", 1);
    // Watchdog needs the baseline step count; run the fault-free reference
    // first.
    const auto base = run_crash_at(cfg, UINT64_MAX, UINT64_MAX, nullptr);
    if (!base.ok) {
      std::printf("FAIL baseline: %s\n", base.error.c_str());
      return 1;
    }
    const auto r = run_crash_at(
        cfg, step, base.steps * cfg.watchdog_factor + cfg.watchdog_slack,
        &reg);
    dump_metrics(reg, metrics_out);
    if (!r.ok) {
      std::printf(
          "FAIL crash-at %llu: %s\n"
          "  repro: --crash-at %llu --crash-seed %llu --workers %d "
          "--team-size %d --ops %llu --range %llu\n",
          static_cast<unsigned long long>(step), r.error.c_str(),
          static_cast<unsigned long long>(step),
          static_cast<unsigned long long>(seed), cfg.workers, cfg.team_size,
          static_cast<unsigned long long>(cfg.ops),
          static_cast<unsigned long long>(cfg.key_range));
      return 1;
    }
    std::printf("crash-at %llu clean (victim %s, %d locks medic-recovered)\n",
                static_cast<unsigned long long>(step),
                r.victim_killed ? "killed" : "survived", r.locks_recovered);
    return 0;
  }

  const auto sweep = run_crash_sweep(cfg, &reg, stdout);
  dump_metrics(reg, metrics_out);
  if (!sweep.ok) {
    std::printf(
        "FAIL crash-sweep at step %llu: %s\n"
        "  repro: --crash-at %llu --crash-seed %llu --workers %d "
        "--team-size %d --ops %llu --range %llu\n",
        static_cast<unsigned long long>(sweep.failed_at_step),
        sweep.error.c_str(),
        static_cast<unsigned long long>(sweep.failed_at_step),
        static_cast<unsigned long long>(seed), cfg.workers, cfg.team_size,
        static_cast<unsigned long long>(cfg.ops),
        static_cast<unsigned long long>(cfg.key_range));
    return 1;
  }
  std::printf(
      "crash-sweep clean: %llu runs over %llu steps (stride %llu), "
      "%llu kills landed, %llu medic recoveries, %llu snapshot checks "
      "(workers=%d team=%d ops=%llu range=%llu seed=%llu%s)\n",
      static_cast<unsigned long long>(sweep.runs),
      static_cast<unsigned long long>(sweep.baseline_steps),
      static_cast<unsigned long long>(cfg.stride),
      static_cast<unsigned long long>(sweep.kills_landed),
      static_cast<unsigned long long>(sweep.medic_recoveries),
      static_cast<unsigned long long>(sweep.snapshot_checks), cfg.workers,
      cfg.team_size, static_cast<unsigned long long>(cfg.ops),
      static_cast<unsigned long long>(cfg.key_range),
      static_cast<unsigned long long>(seed),
      (std::string(cfg.with_snapshots ? " --with-snapshots" : "") +
       (cfg.with_foresight ? " --with-foresight" : ""))
          .c_str());
  return 0;
}

int run_proc_crash_mode(const Options& opt) {
  ProcCrashSweepConfig cfg;
  cfg.workers = static_cast<int>(opt.get_u64("workers", 2));
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", 160);
  cfg.key_range = opt.get_u64("range", 64);
  cfg.pool_chunks = static_cast<std::uint32_t>(opt.get_u64("pool", 1u << 14));
  cfg.stride = opt.get_u64("crash-stride", 1);
  cfg.with_epochs = opt.get_bool("with-epochs");
  cfg.with_snapshots = opt.get_bool("with-snapshots");
  cfg.work_dir = opt.get("work-dir", ".");
  cfg.postmortem_dir = opt.get("postmortem-dir", "");
  const auto seed = opt.get_u64("crash-seed", 0xAB5E);
  cfg.wl_seed = seed;
  cfg.sched_seed = seed ^ 0x9E3779B97F4A7C15ull;

  const auto sweep = run_proc_crash_sweep(cfg, stdout);
  if (!sweep.ok) {
    std::printf(
        "FAIL proc-crash-sweep at persist point %llu: %s\n"
        "  repro: --proc-crash-sweep --crash-seed %llu --workers %d "
        "--team-size %d --ops %llu --range %llu%s\n",
        static_cast<unsigned long long>(sweep.failed_at_point),
        sweep.error.c_str(), static_cast<unsigned long long>(seed),
        cfg.workers, cfg.team_size, static_cast<unsigned long long>(cfg.ops),
        static_cast<unsigned long long>(cfg.key_range),
        (std::string(cfg.with_epochs ? " --with-epochs" : "") +
         (cfg.with_snapshots ? " --with-snapshots" : ""))
            .c_str());
    return 1;
  }
  std::printf(
      "proc-crash-sweep clean: %llu child runs over %llu persist points "
      "(stride %llu), %llu SIGKILLs landed, %llu locks released, "
      "%llu intents replayed, %llu chunks freed "
      "(workers=%d team=%d ops=%llu range=%llu seed=%llu%s)\n",
      static_cast<unsigned long long>(sweep.runs),
      static_cast<unsigned long long>(sweep.persist_points),
      static_cast<unsigned long long>(cfg.stride),
      static_cast<unsigned long long>(sweep.kills_landed),
      static_cast<unsigned long long>(sweep.locks_released),
      static_cast<unsigned long long>(sweep.intents_replayed),
      static_cast<unsigned long long>(sweep.chunks_freed), cfg.workers,
      cfg.team_size, static_cast<unsigned long long>(cfg.ops),
      static_cast<unsigned long long>(cfg.key_range),
      static_cast<unsigned long long>(seed),
      (std::string(cfg.with_epochs ? " epochs" : "") +
       (cfg.with_snapshots ? " snapshots" : ""))
          .c_str());
  return 0;
}

int run_corrupt_mode(const Options& opt) {
  CorruptSweepConfig cfg;
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", 400);
  cfg.key_range = opt.get_u64("range", 96);
  cfg.seeds = opt.get_u64("corrupt-seeds", 6);
  cfg.base_seed = opt.get_u64("seed", 0x5EED5EEDull);
  cfg.pool_chunks = static_cast<std::uint32_t>(opt.get_u64("pool", 1u << 12));
  cfg.work_dir = opt.get("work-dir", ".");
  cfg.postmortem_dir = opt.get("postmortem-dir", "");

  // --corrupt SECTION:KIND:SEED narrows the matrix to one cell.
  const std::string cell = opt.get("corrupt", "");
  if (!cell.empty()) {
    const auto c1 = cell.find(':');
    const auto c2 = cell.find(':', c1 == std::string::npos ? c1 : c1 + 1);
    device::FaultSection section;
    device::FaultKind kind;
    if (c1 == std::string::npos || c2 == std::string::npos ||
        !device::parse_fault_section(cell.substr(0, c1), &section) ||
        !device::parse_fault_kind(cell.substr(c1 + 1, c2 - c1 - 1), &kind)) {
      std::printf("bad --corrupt spec '%s' (want SECTION:KIND:SEED)\n",
                  cell.c_str());
      return 2;
    }
    cfg.sections = {section};
    cfg.kinds = {kind};
    cfg.first_seed = std::strtoull(cell.c_str() + c2 + 1, nullptr, 10);
    cfg.seeds = 1;
  }

  const auto res = run_corrupt_sweep(cfg, stdout);
  if (!res.ok) {
    std::printf("FAIL corrupt-sweep: %s\n", res.error.c_str());
    return 1;
  }
  std::printf(
      "corrupt-sweep clean: %llu runs, %llu faults injected, %llu detected, "
      "%llu repaired, %llu quarantined (%llu keys lost, all reported), "
      "%llu typed rejections, %llu recoveries, %llu barriers dropped "
      "(team=%d ops=%llu range=%llu seeds=%llu base=%llu)\n",
      static_cast<unsigned long long>(res.runs),
      static_cast<unsigned long long>(res.injected),
      static_cast<unsigned long long>(res.detected),
      static_cast<unsigned long long>(res.repaired),
      static_cast<unsigned long long>(res.quarantined),
      static_cast<unsigned long long>(res.keys_lost),
      static_cast<unsigned long long>(res.rejected_typed),
      static_cast<unsigned long long>(res.recoveries),
      static_cast<unsigned long long>(res.barriers_dropped), cfg.team_size,
      static_cast<unsigned long long>(cfg.ops),
      static_cast<unsigned long long>(cfg.key_range),
      static_cast<unsigned long long>(cfg.seeds),
      static_cast<unsigned long long>(cfg.base_seed));
  return 0;
}

int run_churn_mode(const Options& opt) {
  const int workers = static_cast<int>(opt.get_u64("workers", 4));
  const int team_size = static_cast<int>(opt.get_u64("team-size", 8));
  const auto pool = static_cast<std::uint32_t>(opt.get_u64("pool", 4096));
  const auto range = opt.get_u64("range", 512);
  const auto total_ops =
      opt.get_u64("ops", 12ull * pool);  // default >= 10x pool capacity
  const auto seed = opt.get_u64("seed", 0xC0FF);
  const std::string metrics_json = opt.get("metrics-json", "");
  const std::string pm_dir = opt.get("postmortem-dir", "");
  const std::string persist_path = opt.get("persist", "");
  const bool want_obs = !metrics_json.empty() || !pm_dir.empty();

  core::GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = pool;
  StackOptions so;
  so.epochs = true;
  // --persist: back the arena with a durable region so every transition in
  // the churn storm crosses a persist barrier — the persistence hot path
  // soaked under free-running (non-deterministic) contention.
  so.persist_path = persist_path;
  GfslStack stack(cfg, so);
  core::Gfsl& sl = stack.gfsl();
  device::PersistRegion* region = stack.region();

  obs::MetricsRegistry reg(workers);
  reg.set_info("mode", "churn");
  obs::TraceSession rings(1024, /*timestamps=*/false);
  WorkloadConfig wl;
  wl.mix = kMix_50_50_0;
  wl.key_range = range;
  wl.num_ops = total_ops;
  wl.seed = seed;
  RunConfig rc;
  rc.num_workers = workers;
  rc.seed = 3;
  if (want_obs) rc.metrics = &reg;
  if (!pm_dir.empty()) rc.trace = &rings;
  const RunResult run = run_gfsl(sl, generate_ops(wl), rc, stack.mem());
  if (want_obs) sample_structure_gauges(reg, sl);

  bool ok = true;
  bool validate_failed = false;
  std::string detail;
  auto fail = [&](const std::string& msg) {
    std::printf("FAIL churn: %s\n", msg.c_str());
    if (detail.empty()) detail = msg;
    ok = false;
  };
  if (run.out_of_memory) fail("a team hit pool exhaustion");
  const auto rep = sl.validate(/*strict=*/false);
  if (!rep.ok) {
    fail("structure invalid: " + rep.error);
    validate_failed = true;
  }
  // "Bounded" = the steady state fits comfortably inside the pool: in-use
  // (live + in-flight zombies + limbo) never approaches capacity even after
  // an unbounded stream of merges.
  if (sl.chunks_allocated() >= pool / 2) {
    fail(std::to_string(sl.chunks_allocated()) + " chunks in use of " +
         std::to_string(pool) + " — reclamation fell behind");
  }
  if (sl.chunks_reclaimed() == 0) {
    fail("zero chunks reclaimed");
  }
  dump_metrics(reg, metrics_json);
  if (!ok) {
    if (!pm_dir.empty()) {
      PostmortemContext ctx;
      ctx.reason = validate_failed ? "validate_failure" : "churn_anomaly";
      ctx.detail = detail;
      ctx.gfsl = &sl;
      ctx.metrics = &reg;
      for (int t = 0; t < rings.teams(); ++t) {
        ctx.rings.push_back(rings.team(t));
      }
      ctx.info = {{"harness", "churn"},
                  {"seed", std::to_string(seed)},
                  {"workers", std::to_string(workers)},
                  {"team_size", std::to_string(team_size)},
                  {"ops", std::to_string(total_ops)},
                  {"range", std::to_string(range)},
                  {"pool", std::to_string(pool)}};
      (void)dump_postmortem(pm_dir, "postmortem_churn", ctx);
    }
    std::printf("  repro: --churn --seed %llu --workers %d --team-size %d "
                "--ops %llu --range %llu --pool %u\n",
                static_cast<unsigned long long>(seed), workers, team_size,
                static_cast<unsigned long long>(total_ops),
                static_cast<unsigned long long>(range), pool);
    return 1;
  }
  if (region) region->mark_clean();
  std::printf(
      "churn clean: %llu ops through a %u-chunk pool, %llu reclaimed, "
      "%u in use at exit, %llu in limbo (workers=%d team=%d range=%llu)\n",
      static_cast<unsigned long long>(total_ops), pool,
      static_cast<unsigned long long>(sl.chunks_reclaimed()),
      sl.chunks_allocated(),
      static_cast<unsigned long long>(sl.epochs()->limbo_total()), workers,
      team_size, static_cast<unsigned long long>(range));
  if (region) {
    std::printf("  persisted: %llu barriers crossed, clean shutdown marked "
                "at %s\n",
                static_cast<unsigned long long>(region->persist_points()),
                persist_path.c_str());
  }
  return 0;
}

int run_batch_mode(const Options& opt) {
  const auto rounds = opt.get_u64("rounds", 30);
  const int workers = static_cast<int>(opt.get_u64("workers", 4));
  const int team_size = static_cast<int>(opt.get_u64("team-size", 8));
  const auto nops = opt.get_u64("ops", 2048);
  const auto range = opt.get_u64("range", 256);  // small: duplicate-key heavy
  const auto master = opt.get_u64("seed", 0xBA7C);
  const std::string metrics_json = opt.get("metrics-json", "");
  const std::string pm_dir = opt.get("postmortem-dir", "");
  const bool want_obs = !metrics_json.empty() || !pm_dir.empty();

  // One registry across rounds: counters accumulate, histograms merge, so
  // the snapshot summarizes the whole campaign of batches.
  obs::MetricsRegistry reg(workers);
  reg.set_info("mode", "batch");

  Xoshiro256ss rng(master);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::uint64_t wl_seed = rng.next();
    const bool multi_team = (round % 2) == 1;   // odd: stealing runner
    const bool with_epochs = (round % 4) >= 2;  // every 2nd pair: reclamation

    core::GfslConfig cfg;
    cfg.team_size = team_size;
    cfg.pool_chunks = 1u << 14;
    StackOptions so;
    so.epochs = with_epochs;
    GfslStack stack(cfg, so);
    core::Gfsl& sl = stack.gfsl();

    WorkloadConfig wl;
    wl.mix = kMix_20_20_60;
    wl.key_range = range;
    wl.num_ops = nops;
    wl.seed = wl_seed;
    const auto ops = generate_ops(wl);

    MapOracle oracle;
    const auto want = oracle.apply_batch(ops);

    obs::TraceSession session(1024, /*timestamps=*/false);
    std::unique_ptr<simt::TeamTrace> solo_ring;
    core::BatchResult br;
    if (multi_team) {
      RunConfig rc;
      rc.num_workers = workers;
      rc.seed = wl_seed;
      if (want_obs) rc.metrics = &reg;
      if (!pm_dir.empty()) rc.trace = &session;
      BatchRunOptions bo;
      bo.batch_size = nops / 4;
      (void)run_gfsl_batched(sl, ops, rc, stack.mem(), bo, &br);
    } else {
      simt::Team team(team_size, 0, 3);
      if (want_obs) team.set_metrics(&reg.shard(0));
      if (!pm_dir.empty()) {
        solo_ring =
            std::make_unique<simt::TeamTrace>(1024, /*timestamps=*/false);
        team.set_trace(solo_ring.get());
      }
      br = core::run_batch(sl, team, ops);
    }

    std::string err;
    for (std::size_t i = 0; i < want.size() && err.empty(); ++i) {
      if (br.outcomes[i] != want[i]) {
        err = "op " + std::to_string(i) + " (key " +
              std::to_string(ops[i].key) + ") returned " +
              std::to_string(br.outcomes[i]) + ", oracle says " +
              std::to_string(want[i]);
      }
    }
    bool validate_failed = false;
    if (err.empty() && sl.collect() != oracle.collect()) {
      err = "final structure diverges from the oracle";
    }
    if (err.empty()) {
      const auto rep = sl.validate(/*strict=*/false);
      if (!rep.ok) {
        err = "structure invalid: " + rep.error;
        validate_failed = true;
      }
    }
    if (err.empty() && want_obs) sample_structure_gauges(reg, sl);
    if (!err.empty()) {
      if (!pm_dir.empty()) {
        PostmortemContext ctx;
        ctx.reason = validate_failed ? "validate_failure" : "oracle_mismatch";
        ctx.detail = err;
        ctx.gfsl = &sl;
        ctx.metrics = want_obs ? &reg : nullptr;
        if (multi_team) {
          for (int t = 0; t < session.teams(); ++t) {
            ctx.rings.push_back(session.team(t));
          }
        } else if (solo_ring != nullptr) {
          ctx.rings.push_back(solo_ring.get());
        }
        ctx.info = {{"harness", "batch"},
                    {"seed", std::to_string(master)},
                    {"round", std::to_string(round)},
                    {"wl_seed", std::to_string(wl_seed)},
                    {"multi_team", multi_team ? "1" : "0"},
                    {"with_epochs", with_epochs ? "1" : "0"},
                    {"workers", std::to_string(workers)},
                    {"team_size", std::to_string(team_size)},
                    {"ops", std::to_string(nops)},
                    {"range", std::to_string(range)}};
        (void)dump_postmortem(pm_dir,
                              "postmortem_batch_r" + std::to_string(round),
                              ctx);
      }
      dump_metrics(reg, metrics_json);
      std::printf(
          "FAIL batch round %llu (%s-team%s): %s\n"
          "  repro: --batch --seed %llu --rounds %llu --workers %d "
          "--team-size %d --ops %llu --range %llu\n",
          static_cast<unsigned long long>(round),
          multi_team ? "multi" : "single", with_epochs ? ", epochs" : "",
          err.c_str(), static_cast<unsigned long long>(master),
          static_cast<unsigned long long>(round + 1), workers, team_size,
          static_cast<unsigned long long>(nops),
          static_cast<unsigned long long>(range));
      return 1;
    }
    if ((round + 1) % 10 == 0) {
      std::printf("%llu/%llu batch rounds clean\n",
                  static_cast<unsigned long long>(round + 1),
                  static_cast<unsigned long long>(rounds));
    }
  }
  dump_metrics(reg, metrics_json);
  std::printf(
      "all %llu batch rounds clean (workers=%d team=%d ops=%llu range=%llu)\n",
      static_cast<unsigned long long>(rounds), workers, team_size,
      static_cast<unsigned long long>(nops),
      static_cast<unsigned long long>(range));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  if (opt.get_bool("proc-crash-sweep")) {
    return run_proc_crash_mode(opt);
  }
  if (opt.get_bool("crash-sweep") || opt.has("crash-at")) {
    return run_crash_mode(opt);
  }
  if (opt.get_bool("corrupt-sweep") || opt.has("corrupt")) {
    return run_corrupt_mode(opt);
  }
  if (opt.get_bool("churn")) {
    return run_churn_mode(opt);
  }
  if (opt.get_bool("batch")) {
    return run_batch_mode(opt);
  }
  const auto rounds = opt.get_u64("rounds", 40);
  const auto master = opt.get_u64("seed", 0xF022);
  const int workers = static_cast<int>(opt.get_u64("workers", 3));
  const int team_size = static_cast<int>(opt.get_u64("team-size", 8));
  WorkloadConfig wl;
  wl.mix = kMix_20_20_60;  // update-heavy: maximum structural churn
  wl.key_range = opt.get_u64("range", 60);
  wl.num_ops = opt.get_u64("ops", 600);

  Xoshiro256ss rng(master);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    wl.seed = rng.next();
    const std::uint64_t sched_seed = rng.next();
    std::string err;
    if (!run_round(opt, wl, workers, team_size, sched_seed, round, &err)) {
      std::printf(
          "FAIL round %llu: %s\n"
          "  repro: --seed %llu --rounds %llu --workers %d --team-size %d "
          "--ops %llu --range %llu%s\n",
          static_cast<unsigned long long>(round), err.c_str(),
          static_cast<unsigned long long>(master),
          static_cast<unsigned long long>(round + 1), workers, team_size,
          static_cast<unsigned long long>(wl.num_ops),
          static_cast<unsigned long long>(wl.key_range),
          opt.get_bool("with-foresight") ? " --with-foresight" : "");
      return 1;
    }
    if ((round + 1) % 10 == 0) {
      std::printf("%llu/%llu rounds clean\n",
                  static_cast<unsigned long long>(round + 1),
                  static_cast<unsigned long long>(rounds));
    }
  }
  std::printf("all %llu rounds clean (workers=%d team=%d ops=%llu range=%llu)\n",
              static_cast<unsigned long long>(rounds), workers, team_size,
              static_cast<unsigned long long>(wl.num_ops),
              static_cast<unsigned long long>(wl.key_range));
  return 0;
}
