#include "harness/crash_sweep.h"

#include <vector>

#include "harness/history.h"
#include "harness/postmortem.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "harness/workload.h"

namespace gfsl::harness {

CrashRunResult run_crash_at(const CrashSweepConfig& cfg,
                            std::uint64_t kill_step,
                            std::uint64_t watchdog_step,
                            obs::MetricsRegistry* reg) {
  CrashRunResult res;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             cfg.sched_seed, cfg.workers);
  if (kill_step != UINT64_MAX) sched.kill_at(cfg.victim, kill_step);
  if (watchdog_step != UINT64_MAX) sched.kill_all_at(watchdog_step);

  core::GfslConfig gcfg;
  gcfg.team_size = cfg.team_size;
  gcfg.pool_chunks = cfg.pool_chunks;
  StackOptions so;
  so.scheduler = &sched;
  so.leases = true;
  so.epochs = cfg.with_epochs;
  so.snapshots = cfg.with_snapshots;
  // Tiny rebuild threshold: at sweep scale (dozens of ops) a realistic
  // threshold would never republish, so hints would never be consulted.
  // Forcing frequent rebuilds puts kill steps inside the walk/publish window
  // and makes hint consultation the common path.
  so.foresight = cfg.with_foresight;
  so.foresight_stride = 1;
  so.foresight_rebuild_threshold = 1;
  GfslStack stack(gcfg, so);
  core::Gfsl& sl = stack.gfsl();

  // Snapshot-held-across-kill: freeze a bulk-loaded prefill under a snapshot
  // before any scheduled team runs.  Every op of the workload — including
  // the one the kill interrupts and recovery rolls forward or back — commits
  // at a revision above the snapshot, so the post-run scan must reproduce
  // the prefill exactly no matter where the victim died.
  std::vector<std::pair<Key, Value>> frozen;
  core::Snapshot held;
  if (cfg.with_snapshots && cfg.prefill > 0) {
    const std::uint64_t span = cfg.key_range > 1 ? cfg.key_range : 2;
    for (std::uint64_t i = 0; i < cfg.prefill; ++i) {
      const Key k = static_cast<Key>(1 + (2 * i) % span);
      if (!frozen.empty() && frozen.back().first >= k) break;  // wrapped
      frozen.emplace_back(k, static_cast<Value>(k * 31 + 7));
    }
    sl.bulk_load(frozen);
    held = sl.snapshot();
  }

  WorkloadConfig wl;
  wl.mix = kMix_20_20_60;  // update-heavy: splits, merges, down-ptr swings
  wl.key_range = cfg.key_range;
  wl.num_ops = cfg.ops;
  wl.seed = cfg.wl_seed;
  const auto ops = generate_ops(wl);

  HistoryLog log(cfg.ops / static_cast<std::uint64_t>(cfg.workers) + 8,
                 cfg.workers);
  // Flight recorder: clockless rings (no steady-clock read per record) for
  // every team plus the medic, armed only when a postmortem sink is set.
  obs::TraceSession rings(1024, /*timestamps=*/false);
  if (!cfg.postmortem_dir.empty()) rings.ensure(cfg.workers + 1);
  auto dump_failure = [&](const std::string& reason, const std::string& detail,
                          const core::Gfsl* structure) {
    if (cfg.postmortem_dir.empty()) return;
    PostmortemContext ctx;
    ctx.reason = reason;
    ctx.detail = detail;
    ctx.gfsl = structure;
    ctx.metrics = reg;
    for (int t = 0; t < rings.teams(); ++t) ctx.rings.push_back(rings.team(t));
    ctx.info = {
        {"harness", "crash_sweep"},
        {"wl_seed", std::to_string(cfg.wl_seed)},
        {"sched_seed", std::to_string(cfg.sched_seed)},
        {"kill_step", std::to_string(kill_step)},
        {"watchdog_step", std::to_string(sched.watchdog_step())},
        {"watchdog_fired", sched.watchdog_fired() ? "1" : "0"},
        {"global_steps", std::to_string(sched.global_steps())},
        {"workers", std::to_string(cfg.workers)},
        {"victim", std::to_string(cfg.victim)},
        {"team_size", std::to_string(cfg.team_size)},
        {"ops", std::to_string(cfg.ops)},
        {"key_range", std::to_string(cfg.key_range)},
        {"with_epochs", cfg.with_epochs ? "1" : "0"},
        {"with_snapshots", cfg.with_snapshots ? "1" : "0"},
        {"batched", cfg.batched ? "1" : "0"},
        {"with_foresight", cfg.with_foresight ? "1" : "0"},
    };
    const std::string stem =
        "postmortem_crash_k" +
        (kill_step == UINT64_MAX ? std::string("none")
                                 : std::to_string(kill_step));
    (void)dump_postmortem(cfg.postmortem_dir, stem, ctx);
  };
  // Per-op teams deal the op array round-robin; batched, the whole array is
  // one launch, key-sorted, sharded and drained through a stealing queue.
  // Either way the victim dies at the kill step, and the runner reports its
  // op in flight to the history as crashed.
  RunConfig rc;
  rc.num_workers = cfg.workers;
  rc.seed = 3;
  rc.scheduler = &sched;
  rc.metrics = reg;
  if (!cfg.postmortem_dir.empty()) rc.trace = &rings;
  rc.observers = log.observers();
  if (cfg.batched) {
    (void)run_gfsl_batched(sl, ops, rc, stack.mem(),
                           {.batch_size = 0,
                            .target_shard_ops = cfg.batch_shard_ops});
  } else {
    (void)run_gfsl(sl, ops, rc, stack.mem());
  }
  res.steps = sched.global_steps();
  res.victim_last_yield = sched.last_yield(cfg.victim);
  res.victim_killed = sched.killed(cfg.victim);
  // Survivors only die via the watchdog: the run livelocked.
  bool hang = false;
  for (int w = 0; w < cfg.workers; ++w) {
    if (w != cfg.victim && sched.killed(w)) hang = true;
  }
  if (hang) {
    res.ok = false;
    res.hang = true;
    res.error = "hang: survivors hit the watchdog (step " +
                std::to_string(res.steps) + ")";
    // Every team is dead (killed or returned), so the walk is quiescent.
    dump_failure("watchdog_stall", res.error, &sl);
    return res;
  }

  // Medic pass: a FRESH team id outside the scheduled participant set.
  // Reusing the victim's id would bump its lease epoch and hide any lock
  // the survivors should have been able to steal.
  simt::Team medic(cfg.team_size, cfg.workers, 7);
  if (reg != nullptr) medic.set_metrics(&reg->shard(cfg.workers));
  if (!cfg.postmortem_dir.empty()) medic.set_trace(rings.team(cfg.workers));
  res.locks_recovered = sl.recover_all_expired(medic);

  const auto rep = sl.validate(/*strict=*/false);
  if (!rep.ok) {
    res.ok = false;
    res.error = "structure invalid: " + rep.error;
    dump_failure("validate_failure", res.error, &sl);
    return res;
  }
  std::vector<Key> final_keys;
  for (const auto& [k, v] : sl.collect()) final_keys.push_back(k);
  std::vector<Key> initial_keys;
  for (const auto& [k, v] : frozen) initial_keys.push_back(k);
  const auto check = check_history(log.merged(), initial_keys, final_keys);
  if (!check.ok) {
    res.ok = false;
    res.error = "history violation: " + check.error;
    dump_failure("history_violation", res.error, &sl);
    return res;
  }

  // The held snapshot survived the kill, the recovery rolls, and the medic:
  // its scan must still be exactly the frozen prefill.
  if (cfg.with_snapshots && held.open()) {
    std::vector<std::pair<Key, Value>> got;
    const auto st = sl.scan_at(medic, held, MIN_USER_KEY, MAX_USER_KEY, got);
    if (st != core::ScanAtStatus::kOk) {
      res.ok = false;
      res.error = "held snapshot expired across the kill (scan_at status " +
                  std::to_string(static_cast<int>(st)) + ")";
      dump_failure("snapshot_mismatch", res.error, &sl);
      return res;
    }
    if (got != frozen) {
      std::string detail = "held snapshot drifted: harvested " +
                           std::to_string(got.size()) + " pairs, froze " +
                           std::to_string(frozen.size());
      for (const auto& [k, v] : got) {
        bool found = false;
        for (const auto& [fk, fv] : frozen) {
          if (fk == k && fv == v) {
            found = true;
            break;
          }
        }
        if (!found) {
          detail += "; first divergence at key " + std::to_string(k);
          break;
        }
      }
      res.ok = false;
      res.error = detail;
      dump_failure("snapshot_mismatch", res.error, &sl);
      return res;
    }
    res.snapshot_checked = true;
    sl.release_snapshot(held);
  }
  return res;
}

CrashSweepResult run_crash_sweep(const CrashSweepConfig& cfg,
                                 obs::MetricsRegistry* reg,
                                 std::FILE* progress) {
  CrashSweepResult out;
  // Baseline: same seeds, no kill.  Leases are attached here too, so the
  // pre-kill prefix of every swept run replays this exact interleaving.
  const auto base = run_crash_at(cfg, UINT64_MAX, UINT64_MAX, reg);
  if (!base.ok) {
    out.ok = false;
    out.error = "baseline run failed: " + base.error;
    return out;
  }
  out.baseline_steps = base.steps;
  const std::uint64_t watchdog =
      base.steps * cfg.watchdog_factor + cfg.watchdog_slack;
  const std::uint64_t stride = cfg.stride == 0 ? 1 : cfg.stride;
  // A kill armed after the victim's last yield never lands: that run would
  // only repeat the baseline.
  const std::uint64_t last = base.victim_last_yield;
  const std::uint64_t report_every =
      (last / stride) / 10 + 1;  // ~10 progress lines

  std::uint64_t since_report = 0;
  for (std::uint64_t s = 1; s <= last; s += stride) {
    const auto r = run_crash_at(cfg, s, watchdog, reg);
    ++out.runs;
    if (r.victim_killed) ++out.kills_landed;
    if (r.snapshot_checked) ++out.snapshot_checks;
    out.medic_recoveries += static_cast<std::uint64_t>(r.locks_recovered);
    if (!r.ok) {
      out.ok = false;
      out.failed_at_step = s;
      out.error = r.error;
      return out;
    }
    if (progress != nullptr && ++since_report >= report_every) {
      since_report = 0;
      std::fprintf(progress,
                   "  crash-sweep %llu/%llu steps (%llu kills landed, "
                   "%llu medic recoveries)\n",
                   static_cast<unsigned long long>(s),
                   static_cast<unsigned long long>(last),
                   static_cast<unsigned long long>(out.kills_landed),
                   static_cast<unsigned long long>(out.medic_recoveries));
      std::fflush(progress);
    }
  }
  return out;
}

}  // namespace gfsl::harness
