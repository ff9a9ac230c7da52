// Exhaustive crash-point sweep: the strongest robustness harness in the repo.
//
// One seeded multi-team run under StepScheduler::Deterministic defines a
// reference interleaving with S global yield steps, of which the victim's
// last is step V <= S.  The sweep then re-runs that exact schedule V times,
// killing the victim team at yield step 1, 2, ..., V — so the victim dies at
// *every* reachable point of the reference run, including inside
// insert-shift, erase-shift, split, merge and updateDownPtrs critical
// sections (a kill armed past V would never land).  After each kill:
//
//   * survivors keep running: expired-lease probing (core/recovery.cpp)
//     lets them roll the victim's half-done mutation forward or back and
//     steal its locks, so they finish their own operations;
//   * a watchdog (kill_all_at) converts any livelock into TeamKilled on a
//     survivor, which the harness reports as a hang;
//   * a medic team (a fresh id outside the scheduled participant set — never
//     the victim's id, which would resurrect its lease epoch mid-history)
//     runs recover_all_expired() to release any leftover dead locks nobody
//     bumped into;
//   * validate() must pass and the recorded history must be per-key
//     linearizable, with the victim's in-flight op treated as *optional*
//     (HistoryEvent::crashed — recovery may have rolled it either way).
//
// The sweep is deterministic end to end: a failure at kill step s reproduces
// with the same (wl_seed, sched_seed, s) triple.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace gfsl::harness {

struct CrashSweepConfig {
  int workers = 3;      // scheduled teams, ids 0..workers-1
  int team_size = 8;    // chunk size = team size
  int victim = 0;       // team killed at the swept step
  std::uint64_t ops = 96;
  std::uint64_t key_range = 48;
  std::uint64_t wl_seed = 1;
  std::uint64_t sched_seed = 1;
  std::uint32_t pool_chunks = 1u << 14;
  std::uint64_t stride = 1;  // kill at every stride-th step (1 = exhaustive)
  // Watchdog step = baseline_steps * factor + slack.  Survivors still
  // running by then are livelocked; the harness reports a hang.
  std::uint64_t watchdog_factor = 8;
  std::uint64_t watchdog_slack = 4096;
  // Attach an EpochManager: kills then also land inside retire/reclaim
  // spans, the medic must force-quiesce the victim's pin and adopt its
  // limbo, and validation additionally classifies limbo/free chunks.
  bool with_epochs = false;
  // Attach a SnapshotManager, bulk-load `prefill` pairs, and hold a snapshot
  // of them across the whole run: wherever the kill lands (and whichever way
  // recovery rolls the victim's half-done mutation), every post-run
  // scan_at() over that snapshot must still return exactly the prefill —
  // snapshot isolation is not allowed to depend on the crash-repair path.
  // Failures dump a `snapshot_mismatch` postmortem bundle.
  bool with_snapshots = false;
  std::uint64_t prefill = 24;  // bulk-loaded pairs frozen under the snapshot
  // Batched dispatch (DESIGN.md §10): the whole op array becomes ONE batch —
  // key-sorted, sharded, drained through a stealing ShardQueue — so kills
  // land inside shard execution: mid-shard with a warm cursor, between the
  // per-shard pin and its refresh, inside a stolen shard.  Survivors keep
  // pulling shards; the victim's popped-but-unfinished shard stays partially
  // executed, which the history check must absorb (crashed op = optional,
  // unexecuted ops were never logged).  With snapshots attached the launch
  // commits under one whole-batch revision, which its barrier closes.
  bool batched = false;
  std::size_t batch_shard_ops = 0;  // plan_shards granularity; 0 = auto
  // Attach a core::ForesightIndex (DESIGN.md §14): searches jump through
  // published hints, so kills land between a hint's publication and its
  // consultation, inside rebuild walks, and between mark_dirty sites and the
  // republish they schedule.  Correctness must not depend on hint freshness —
  // every stale hint has to fall back to the classic descent, and the sweep's
  // validate + linearizability checks run unchanged.
  bool with_foresight = false;
  // Non-empty: arm clockless flight-recorder rings on every team (including
  // the medic) and, when a run fails — watchdog stall, validate failure,
  // history violation — drop a gfsl-postmortem-v1 bundle into this
  // directory (which must exist).  The rings are cheap enough to keep armed
  // across a full sweep; the dump carries the repro triple in its info map.
  std::string postmortem_dir;
};

struct CrashRunResult {
  bool ok = true;
  std::string error;
  bool hang = false;           // a survivor hit the watchdog
  bool victim_killed = false;  // the kill actually landed (victim was alive)
  bool snapshot_checked = false;  // the held snapshot was scanned and matched
  std::uint64_t steps = 0;     // global yield steps the run consumed
  std::uint64_t victim_last_yield = 0;  // global step of the victim's last
                                        // yield
  int locks_recovered = 0;     // dead locks released by the post-run medic
};

struct CrashSweepResult {
  bool ok = true;
  std::string error;
  std::uint64_t baseline_steps = 0;
  std::uint64_t runs = 0;
  std::uint64_t kills_landed = 0;
  std::uint64_t medic_recoveries = 0;  // sum of locks_recovered over runs
  std::uint64_t snapshot_checks = 0;   // held-snapshot scans that matched
  std::uint64_t failed_at_step = 0;    // kill step of the first failure
};

/// One run of the configured workload with the victim killed at the first
/// yield at/after `kill_step` and every team killed at/after
/// `watchdog_step` (pass UINT64_MAX for either to disable).  If `reg` is
/// non-null, teams (and the medic, shard `workers`) record into it; it must
/// have at least workers+1 shards.
CrashRunResult run_crash_at(const CrashSweepConfig& cfg,
                            std::uint64_t kill_step,
                            std::uint64_t watchdog_step,
                            obs::MetricsRegistry* reg = nullptr);

/// The full sweep: a baseline run to count yield steps, then one run per
/// kill step up to the victim's last yield.  Stops at the first failing
/// step.  If `progress` is non-null,
/// prints a coarse progress line every ~10% of the sweep.
CrashSweepResult run_crash_sweep(const CrashSweepConfig& cfg,
                                 obs::MetricsRegistry* reg = nullptr,
                                 std::FILE* progress = nullptr);

}  // namespace gfsl::harness
