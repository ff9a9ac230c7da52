// Crash tolerance: lock leases, intent-based roll-forward/roll-back, lock
// stealing, and the crash-point sweep harness.
//
// The scripted tests here are exhaustive in miniature: a single victim team
// runs a fixed op script under the deterministic scheduler, and the test
// re-runs the script killing the victim at *every* global yield step.  After
// each kill a medic team recovers the dead locks; the structure must
// validate, the completed prefix must be intact, and the in-flight op is
// checked as optional (crashed) via the history checker.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/gfsl.h"
#include "device/device_memory.h"
#include "harness/crash_sweep.h"
#include "harness/history.h"
#include "harness/stack.h"
#include "obs/metrics.h"
#include "sched/lease.h"
#include "sched/step_scheduler.h"
#include "simt/trace.h"

using namespace gfsl;
using harness::check_history;
using harness::CrashSweepConfig;
using harness::HistoryEvent;
using harness::HistoryLog;

namespace {

// ---------------------------------------------------------------------------
// LeaseTable unit tests.

TEST(LeaseTable, WordEncodesIdAndEpoch) {
  sched::LeaseTable lt;
  const auto w = lt.word(7);
  EXPECT_EQ(sched::LeaseTable::word_team(w), 7);
  EXPECT_EQ(w >> 8, 0u);  // epoch 0 at start
  EXPECT_FALSE(lt.expired(w));
}

TEST(LeaseTable, MarkCrashedExpiresCurrentWord) {
  sched::LeaseTable lt;
  const auto w = lt.word(3);
  lt.mark_crashed(3);
  EXPECT_TRUE(lt.crashed(3));
  EXPECT_TRUE(lt.expired(w));
  lt.mark_crashed(3);  // idempotent
  EXPECT_TRUE(lt.expired(w));
}

TEST(LeaseTable, ReviveBumpsEpochAndExpiresOldGeneration) {
  sched::LeaseTable lt;
  const auto dead = lt.word(5);
  lt.mark_crashed(5);
  lt.revive(5);
  EXPECT_FALSE(lt.crashed(5));
  EXPECT_TRUE(lt.expired(dead));  // stale epoch
  const auto fresh = lt.word(5);
  EXPECT_FALSE(lt.expired(fresh));
  EXPECT_NE(dead, fresh);
}

TEST(LeaseTable, AnonymousWordNeverExpires) {
  sched::LeaseTable lt;
  for (int id = 0; id < sched::LeaseTable::kMaxTeams; ++id) {
    lt.mark_crashed(id);
  }
  EXPECT_FALSE(lt.expired(0));  // legacy anonymous locks stay unstealable
  EXPECT_EQ(sched::LeaseTable::word_team(0), -1);
}

// ---------------------------------------------------------------------------
// History checker: crashed ops are optionally linearizable.

HistoryEvent ev(std::uint64_t inv, std::uint64_t resp, OpKind k, Key key,
                bool result) {
  return HistoryEvent{inv, resp, k, key, result, 0, false};
}

HistoryEvent crashed_ev(std::uint64_t inv, OpKind k, Key key) {
  return HistoryEvent{inv, UINT64_MAX, k, key, false, 0, true};
}

TEST(CrashedHistory, CrashedInsertMayOrMayNotTakeEffect) {
  const std::vector<HistoryEvent> h{crashed_ev(0, OpKind::Insert, 9)};
  EXPECT_TRUE(check_history(h, {}, {9}).ok);  // rolled forward
  EXPECT_TRUE(check_history(h, {}, {}).ok);   // rolled back
}

TEST(CrashedHistory, CrashedDeleteLinearizesAfterLaterContains) {
  // The delete's interval is open-ended: a contains that returns true after
  // the crash is legal (recovery removed the key later), and so is one that
  // returns false (the delete took effect before the crash).
  const std::vector<HistoryEvent> h_true{
      crashed_ev(0, OpKind::Delete, 4), ev(2, 3, OpKind::Contains, 4, true)};
  const std::vector<HistoryEvent> h_false{
      crashed_ev(0, OpKind::Delete, 4), ev(2, 3, OpKind::Contains, 4, false)};
  EXPECT_TRUE(check_history(h_true, {4}, {}).ok);
  EXPECT_TRUE(check_history(h_false, {4}, {}).ok);
}

TEST(CrashedHistory, CrashedOpCannotExcuseRealViolations) {
  // A completed insert(true) with the key missing at the end stays a
  // violation: a crashed *contains* has no effect to hide behind.
  const std::vector<HistoryEvent> h{ev(0, 1, OpKind::Insert, 7, true),
                                    crashed_ev(2, OpKind::Contains, 7)};
  EXPECT_FALSE(check_history(h, {}, {}).ok);
}

// ---------------------------------------------------------------------------
// Scripted single-victim crash sweeps, one per mutation kind.

struct ScriptOutcome {
  bool ok = true;
  std::string error;
  std::set<Key> keys;          // final bottom-level key set
  std::uint64_t steps = 0;     // global yield steps consumed
  int recovered = 0;           // dead locks released by the medic
  std::uint64_t roll_forward = 0;
  std::uint64_t roll_back = 0;
  std::vector<simt::TraceRecord> trace;  // victim's trace
};

ScriptOutcome run_script(int team_size, const std::vector<Op>& ops,
                         std::uint64_t kill_step) {
  ScriptOutcome out;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 42, 1);
  if (kill_step != UINT64_MAX) sched.kill_at(0, kill_step);

  core::GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = 1u << 12;
  harness::GfslStack stack(cfg, {.leases = true, .scheduler = &sched});
  core::Gfsl& sl = stack.gfsl();

  HistoryLog log(ops.size() + 1, 1);
  simt::TeamTrace trace(1u << 14);
  std::thread t([&] {
    simt::Team team(team_size, 0, 3);
    team.set_trace(&trace);
    const Op* cur = nullptr;
    std::uint64_t tick = 0;
    sched.enter(0);
    try {
      for (const Op& op : ops) {
        cur = &op;
        tick = log.begin_op();
        bool r = false;
        switch (op.kind) {
          case OpKind::Insert: r = sl.insert(team, op.key, op.value); break;
          case OpKind::Delete: r = sl.erase(team, op.key); break;
          case OpKind::Contains: r = sl.contains(team, op.key); break;
        }
        log.end_op(0, tick, op.kind, op.key, r);
        cur = nullptr;
      }
      sched.leave(0);
    } catch (const sched::TeamKilled&) {
      if (cur != nullptr) log.crash_op(0, tick, cur->kind, cur->key);
    }
  });
  t.join();
  out.steps = sched.global_steps();
  out.trace = trace.snapshot();

  obs::MetricsShard medic_shard;
  simt::Team medic(team_size, 1, 7);
  medic.set_metrics(&medic_shard);
  out.recovered = sl.recover_all_expired(medic);
  out.roll_forward = medic_shard.counter(obs::kRecoveryRollForward);
  out.roll_back = medic_shard.counter(obs::kRecoveryRollBack);

  const auto rep = sl.validate(/*strict=*/false);
  if (!rep.ok) {
    out.ok = false;
    out.error = "structure invalid: " + rep.error;
    return out;
  }
  std::vector<Key> final_keys;
  for (const auto& [k, v] : sl.collect()) {
    final_keys.push_back(k);
    out.keys.insert(k);
  }
  const auto check = check_history(log.merged(), {}, final_keys);
  if (!check.ok) {
    out.ok = false;
    out.error = "history violation: " + check.error;
  }
  return out;
}

Op ins(Key k) { return Op{OpKind::Insert, k, k * 10, 0}; }
Op del(Key k) { return Op{OpKind::Delete, k, 0, 0}; }

bool trace_has(const std::vector<simt::TraceRecord>& tr, simt::TraceEvent e) {
  for (const auto& r : tr) {
    if (r.event == e) return true;
  }
  return false;
}

/// Kill the victim at every yield step of the script; every run must
/// validate and linearize.  Returns the final key sets observed for kills
/// landing inside the *last* `target_ops` operations (the ones under test —
/// earlier kills interrupt setup and legitimately yield smaller sets), so
/// callers can assert both roll directions of the target op occurred.
std::set<std::set<Key>> sweep_script(int team_size, const std::vector<Op>& ops,
                                     std::size_t target_ops = 1) {
  const auto ref = run_script(team_size, ops, UINT64_MAX);
  EXPECT_TRUE(ref.ok) << ref.error;
  EXPECT_GT(ref.steps, 0u);
  const std::vector<Op> prefix(ops.begin(), ops.end() - target_ops);
  const auto pre = run_script(team_size, prefix, UINT64_MAX);
  EXPECT_TRUE(pre.ok) << pre.error;
  std::set<std::set<Key>> outcomes;
  for (std::uint64_t s = 1; s <= ref.steps; ++s) {
    const auto r = run_script(team_size, ops, s);
    EXPECT_TRUE(r.ok) << "kill at step " << s << ": " << r.error;
    if (!r.ok) break;  // first failure is enough to debug
    if (s > pre.steps) outcomes.insert(r.keys);
  }
  return outcomes;
}

TEST(CrashSweepScripted, InsertShiftRollsForwardOrBack) {
  // 10,20,30,40 then insert 25: the landing shifts 30 and 40 right.  A kill
  // anywhere must leave either {10..40} (rolled back: the shift debris is
  // de-duplicated) or {10,20,25,30,40} (rolled forward: 25 landed).
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(25)};
  const auto outcomes = sweep_script(8, script);
  const std::set<Key> without{10, 20, 30, 40};
  std::set<Key> with = without;
  with.insert(25);
  for (const auto& keys : outcomes) {
    EXPECT_TRUE(keys == without || keys == with)
        << "unexpected final key set of size " << keys.size();
  }
  EXPECT_TRUE(outcomes.count(without) == 1 && outcomes.count(with) == 1)
      << "sweep should observe both roll directions";
}

TEST(CrashSweepScripted, EraseShiftResumesIdempotently) {
  // Erase 30 out of five keys: a left-shift with the max untouched.  Killing
  // mid-shift leaves one adjacent duplicate, which recovery either collapses
  // (roll back the half-shift) or re-executes the removal over.
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(50),
                               del(30)};
  const auto outcomes = sweep_script(8, script);
  const std::set<Key> removed{10, 20, 40, 50};
  std::set<Key> kept = removed;
  kept.insert(30);
  for (const auto& keys : outcomes) {
    EXPECT_TRUE(keys == removed || keys == kept)
        << "unexpected final key set of size " << keys.size();
  }
}

TEST(CrashSweepScripted, SplitRecoversAtEveryStep) {
  // Five keys fill a team-8 chunk (six data slots with -inf); the sixth
  // insert forces a split.  The fresh chunk must never leak keys or break
  // the chain, whether the kill lands before or after the publish write.
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(50),
                               ins(35)};
  const auto ref = run_script(8, script, UINT64_MAX);
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(trace_has(ref.trace, simt::TraceEvent::kSplit))
      << "script must exercise the split path";
  const auto outcomes = sweep_script(8, script);
  const std::set<Key> base{10, 20, 30, 40, 50};
  for (const auto& keys : outcomes) {
    std::set<Key> sans = keys;
    sans.erase(35);
    EXPECT_EQ(sans, base) << "prefix keys must survive every kill point";
  }
}

TEST(CrashSweepScripted, MergeZombifiesOrRollsForward) {
  // Build two bottom chunks via splits, then delete the first chunk's keys
  // until the merge threshold trips: the last delete copies survivors into
  // the successor and zombifies.  Every kill point must keep the survivors
  // reachable exactly once.
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(50),
                               ins(60), ins(70), ins(80), del(10), del(20),
                               del(30), del(40)};
  const auto ref = run_script(8, script, UINT64_MAX);
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(trace_has(ref.trace, simt::TraceEvent::kMerge))
      << "script must exercise the merge path";
  sweep_script(8, script);
}

TEST(CrashSweepScripted, WiderTeamsRecoverToo) {
  // Team size 16: deeper shifts, different split threshold.
  const std::vector<Op> script{ins(5),  ins(15), ins(25), ins(35), ins(45),
                               ins(55), ins(65), ins(75), ins(85), ins(95),
                               ins(105), ins(115), ins(110), del(55)};
  sweep_script(16, script);
}

TEST(CrashSweepScripted, MedicReleasesDeadLocks) {
  // At least one kill point must leave a lock only the medic releases (the
  // single-victim runs have no survivors to steal it first).
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(25)};
  const auto ref = run_script(8, script, UINT64_MAX);
  ASSERT_TRUE(ref.ok) << ref.error;
  int total_recovered = 0;
  std::uint64_t rolls = 0;
  for (std::uint64_t s = 1; s <= ref.steps; ++s) {
    const auto r = run_script(8, script, s);
    ASSERT_TRUE(r.ok) << r.error;
    total_recovered += r.recovered;
    rolls += r.roll_forward + r.roll_back;
  }
  EXPECT_GT(total_recovered, 0);
  EXPECT_GT(rolls, 0u) << "some kill point must land inside an intent span";
}

// ---------------------------------------------------------------------------
// Multi-team bounded sweep (the exhaustive version runs via
// `gfsl_fuzz --crash-sweep`; this keeps ctest fast).

TEST(CrashSweepConcurrent, BoundedSweepWithSurvivors) {
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 24;
  cfg.wl_seed = 11;
  cfg.sched_seed = 12;
  cfg.stride = 5;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.baseline_steps, 0u);
  EXPECT_GT(res.kills_landed, 0u);
}

TEST(CrashSweepConcurrent, SurvivorsStealViaLeaseProbe) {
  // With survivors present, expired-lease probing (not just the medic)
  // must be doing recovery work: sweep and check the aggregated counters.
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 64;
  cfg.key_range = 16;  // tight range: high contention, frequent conflicts
  cfg.wl_seed = 21;
  cfg.sched_seed = 22;
  cfg.stride = 3;
  obs::MetricsRegistry reg(cfg.workers + 1);
  const auto res = run_crash_sweep(cfg, &reg);
  ASSERT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  const auto merged = reg.merged();
  EXPECT_GT(merged.counter(obs::kLeaseExpiries) +
                merged.counter(obs::kLockSteals),
            0u)
      << "survivors never observed an expired lease across the sweep";
}

// ---------------------------------------------------------------------------
// Batched dispatch sweep (DESIGN.md §10): kills land inside shard execution —
// mid-shard with a warm descent cursor, between a shard's epoch pin and its
// refresh, or while draining a stolen shard.  The victim's partially-executed
// shard stays partial (unexecuted ops were never logged); survivors keep
// pulling shards from the queue and must still finish, validate, and leave a
// per-key-linearizable history.

TEST(CrashSweepBatched, BoundedSweepInsideShardExecution) {
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 24;
  cfg.wl_seed = 31;
  cfg.sched_seed = 32;
  cfg.stride = 5;
  cfg.batched = true;
  cfg.batch_shard_ops = 6;  // many small shards: steals happen mid-sweep
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.baseline_steps, 0u);
  EXPECT_GT(res.kills_landed, 0u);
}

TEST(CrashSweepBatched, BatchedSweepWithEpochPins) {
  // With an EpochManager attached the victim can die holding its per-shard
  // pin; the medic's force-quiesce must unwedge the epoch so validation's
  // limbo/free classification still balances.
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 16;  // tight range: constant merge/split churn
  cfg.wl_seed = 41;
  cfg.sched_seed = 42;
  cfg.stride = 7;
  cfg.batched = true;
  cfg.batch_shard_ops = 6;
  cfg.with_epochs = true;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.kills_landed, 0u);
  // The sweep stops at the victim's last yield, so every run kills it.
  EXPECT_EQ(res.kills_landed, res.runs);
}

// ---------------------------------------------------------------------------
// Snapshot-holding sweeps (DESIGN.md §13): a snapshot of the bulk-loaded
// prefill is held across the whole run, so every kill — and whichever way
// recovery rolls the victim's half-done mutation — happens *under* it.  The
// post-run scan_at over that snapshot must return exactly the prefill:
// snapshot isolation is not allowed to depend on the crash-repair path.

TEST(CrashSweepSnapshots, HeldSnapshotSurvivesEveryKill) {
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 24;
  cfg.wl_seed = 51;
  cfg.sched_seed = 52;
  cfg.stride = 5;
  cfg.with_snapshots = true;
  cfg.prefill = 10;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.kills_landed, 0u);
  EXPECT_GT(res.snapshot_checks, 0u)
      << "sweep never actually verified the held snapshot";
}

TEST(CrashSweepSnapshots, HeldSnapshotSurvivesBatchedKillsWithEpochs) {
  // The hardest combination: batched dispatch (kills land inside shard
  // execution) plus an EpochManager (the medic force-quiesces the victim's
  // pin and reclaim/prune can run), all under a held snapshot.  Record
  // pruning through the watermark must still respect the held revision.
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 16;  // tight range: constant merge/split churn over prefill
  cfg.wl_seed = 61;
  cfg.sched_seed = 62;
  cfg.stride = 7;
  cfg.batched = true;
  cfg.batch_shard_ops = 6;
  cfg.with_epochs = true;
  cfg.with_snapshots = true;
  cfg.prefill = 7;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.kills_landed, 0u);
  EXPECT_GT(res.snapshot_checks, 0u)
      << "sweep never actually verified the held snapshot";
}

// ---------------------------------------------------------------------------
// Foresight sweeps (DESIGN.md §14): the sweep attaches a ForesightIndex with
// stride 1 / threshold 1, so hints are consulted on essentially every op and
// kills land between a hint's publication and its consultation, inside the
// rebuild walk itself, and between a mark_dirty site and the republish it
// schedules.  Correctness must never depend on hint freshness: stale hints
// fall back, an abandoned rebuild leaves the table unpublished, and the
// validate + per-key linearizability checks run unchanged.

TEST(CrashSweepForesight, BoundedSweepWithHintedDescents) {
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 24;
  cfg.wl_seed = 71;
  cfg.sched_seed = 72;
  cfg.stride = 5;
  cfg.with_foresight = true;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.baseline_steps, 0u);
  EXPECT_GT(res.kills_landed, 0u);
}

TEST(CrashSweepForesight, HintedSweepWithEpochReclaim) {
  // Epoch reclamation recycles merged-away chunks under the sweep, so
  // published hints go stale through real generation bumps (not just
  // zombies) while victims die at every step — including inside the rebuild
  // walk, which must release its single-writer claim on unwind.
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 16;  // tight range: constant merge/split churn
  cfg.wl_seed = 81;
  cfg.sched_seed = 82;
  cfg.stride = 7;
  cfg.with_epochs = true;
  cfg.with_foresight = true;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.kills_landed, 0u);
}

TEST(CrashSweepForesight, HintedBatchedSweepWithEpochs) {
  // Batched dispatch consults hints on every cold shard descent; combine
  // with epochs so kills land mid-shard while reclaim churns the very
  // chunks the cursor and the hint table both name.
  CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 48;
  cfg.key_range = 16;
  cfg.wl_seed = 91;
  cfg.sched_seed = 92;
  cfg.stride = 7;
  cfg.batched = true;
  cfg.batch_shard_ops = 6;
  cfg.with_epochs = true;
  cfg.with_foresight = true;
  const auto res = run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << "kill step " << res.failed_at_step << ": "
                      << res.error;
  EXPECT_GT(res.kills_landed, 0u);
}

}  // namespace
