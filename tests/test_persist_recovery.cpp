// Durable chunk arena + whole-process crash recovery (DESIGN.md §12).
//
// Three layers of coverage:
//
//   * PersistRegion unit tests: create/attach round-trip, superblock
//     validation, geometry rejection, clean-shutdown bookkeeping.
//   * Whole-process crash/recovery: a forked child runs a workload over a
//     file-backed region and SIGKILLs itself at an armed persist barrier;
//     the parent attaches the orphaned file and runs Gfsl::recover().  The
//     recovery pass must be idempotent — recover-twice and recover-killed-
//     mid-repair-then-rerun both converge to the bit-identical image.
//   * Per-mutation-kind torn-state fixtures: a scripted single team under
//     the deterministic scheduler is killed at *every* yield step of its
//     final op (insert shift, erase shift, split, merge); the region is then
//     re-attached cold and recovered whole-process — no surviving team,
//     no medic with live context — and the final key set must land on one
//     of the two legal roll directions.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/chunk.h"
#include "core/gfsl.h"
#include "core/inspect.h"
#include "device/device_memory.h"
#include "device/fault_plane.h"
#include "device/persist.h"
#include "harness/stack.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using device::PersistGeometry;
using device::PersistRegion;

std::string tmp_region(const std::string& name) {
  return testing::TempDir() + "gfsl_" + name + ".region";
}

GfslConfig small_cfg(int team_size = 8, std::uint32_t pool = 1u << 12) {
  GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = pool;
  return cfg;
}

/// Stack options that map the region image at `path` for recovery.
harness::StackOptions attach(const std::string& path) {
  return {.persist_path = path, .persist_mode = PersistRegion::Mode::kAttach};
}

std::vector<unsigned char> snapshot(const PersistRegion& r) {
  const auto* p = static_cast<const unsigned char*>(r.raw());
  return std::vector<unsigned char>(p, p + r.bytes());
}

/// The deterministic single-team workload every fork-based test runs: mixed
/// inserts and erases with enough churn to split, merge, and raise.
void run_small_workload(Gfsl& sl, simt::Team& team) {
  for (Key k = 1; k <= 120; ++k) sl.insert(team, k * 3, k);
  for (Key k = 1; k <= 120; k += 2) sl.erase(team, k * 3);
  for (Key k = 200; k <= 260; ++k) sl.insert(team, k, k);
}

std::set<Key> small_workload_expected() {
  std::set<Key> keys;
  for (Key k = 1; k <= 120; ++k) keys.insert(k * 3);
  for (Key k = 1; k <= 120; k += 2) keys.erase(k * 3);
  for (Key k = 200; k <= 260; ++k) keys.insert(k);
  return keys;
}

[[noreturn]] void child_workload(const std::string& path,
                                 std::uint64_t kill_at) {
  try {
    harness::GfslStack stack(small_cfg(), {.persist_path = path});
    if (kill_at != 0) stack.region()->arm_kill_at(kill_at);
    simt::Team team(8, 0, 3);
    run_small_workload(stack.gfsl(), team);
    stack.region()->mark_clean();
    ::_exit(0);
  } catch (...) {
    ::_exit(3);
  }
}

/// Child attaches an existing (torn) region and runs recover() with the
/// j-th recovery-time persist barrier armed to SIGKILL — a crash *inside*
/// the repair pass.
[[noreturn]] void child_recover(const std::string& path,
                                std::uint64_t kill_at) {
  try {
    harness::GfslStack stack(GfslConfig{}, attach(path));
    stack.region()->arm_kill_at(kill_at);
    (void)stack.gfsl().recover();
    ::_exit(0);  // recovery crossed fewer than kill_at barriers
  } catch (...) {
    ::_exit(3);
  }
}

enum class ChildFate { kClean, kKilled, kError };

template <typename ChildFn>
ChildFate run_forked(ChildFn&& fn) {
  const pid_t pid = ::fork();
  if (pid == 0) fn();  // noreturn
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) return ChildFate::kKilled;
  if (WIFEXITED(st) && WEXITSTATUS(st) == 0) return ChildFate::kClean;
  return ChildFate::kError;
}

/// Full offline recovery of the region file: attach, adopt leases, recover.
RecoveryReport recover_file(const std::string& path,
                            std::vector<unsigned char>* bytes_after = nullptr,
                            std::set<Key>* keys = nullptr) {
  harness::GfslStack stack(GfslConfig{}, attach(path));
  Gfsl& sl = stack.gfsl();
  const RecoveryReport rep = sl.recover();
  if (keys != nullptr) {
    for (const auto& [k, v] : sl.collect()) keys->insert(k);
  }
  if (bytes_after != nullptr) *bytes_after = snapshot(*stack.region());
  return rep;
}

/// After recover(), every upper entry's down pointer names the live chunk
/// that holds its key one level down — stricter than validate(), which only
/// asks that the key's enclosing chunk be laterally reachable from it.
void expect_precise_down_pointers(const Gfsl& sl) {
  GfslInspector insp(sl);
  for (int l = 1; l < sl.max_levels(); ++l) {
    bool cycle = false;
    for (const ChunkView& ch : insp.level_chain(l, &cycle)) {
      if (ch.lock == kZombie) continue;
      for (const KV kv : ch.data) {
        if (kv_key(kv) == KEY_NEG_INF) continue;
        const ChunkView below = insp.view(static_cast<ChunkRef>(kv_value(kv)));
        bool holds = below.lock != kZombie;
        if (holds) {
          holds = std::any_of(below.data.begin(), below.data.end(),
                              [&](KV b) { return kv_key(b) == kv_key(kv); });
        }
        EXPECT_TRUE(holds) << "level " << l << " key " << kv_key(kv)
                           << " points at chunk " << below.ref
                           << ", which does not hold it";
      }
    }
    EXPECT_FALSE(cycle);
  }
}

// ---------------------------------------------------------------------------
// PersistRegion unit tests.

TEST(PersistRegion, CreateAttachRoundTrip) {
  const auto path = tmp_region("roundtrip");
  {
    PersistRegion r(path, PersistRegion::Mode::kCreate,
                    PersistGeometry{8, 64});
    EXPECT_TRUE(r.fresh());
    EXPECT_GT(r.bytes(), PersistRegion::kSuperBytes);
    r.barrier();
    r.barrier();
    r.barrier();
    EXPECT_EQ(r.persist_points(), 3u);
    r.mark_clean();
  }
  PersistRegion r(path, PersistRegion::Mode::kAttach);
  EXPECT_FALSE(r.fresh());
  EXPECT_TRUE(r.was_clean());
  EXPECT_EQ(r.recorded_persist_points(), 3u);
  EXPECT_EQ(r.geometry().entries_per_chunk, 8u);
  EXPECT_EQ(r.geometry().capacity, 64u);
}

TEST(PersistRegion, DirtyShutdownIsVisibleAtAttach) {
  const auto path = tmp_region("dirty");
  { PersistRegion r(path, PersistRegion::Mode::kCreate,
                    PersistGeometry{8, 64}); }
  PersistRegion r(path, PersistRegion::Mode::kAttach);
  EXPECT_FALSE(r.was_clean());
}

TEST(PersistRegion, CorruptSuperblockRejected) {
  const auto path = tmp_region("corrupt");
  { PersistRegion r(path, PersistRegion::Mode::kCreate,
                    PersistGeometry{8, 64}); }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char b = 0;
    f.read(&b, 1);
    b ^= 0x5A;
    f.seekp(0);
    f.write(&b, 1);
  }
  EXPECT_THROW(PersistRegion(path, PersistRegion::Mode::kAttach),
               std::runtime_error);
}

TEST(PersistRegion, MissingFileRejectedOnAttach) {
  EXPECT_THROW(
      PersistRegion(tmp_region("never_created"), PersistRegion::Mode::kAttach),
      std::runtime_error);
}

TEST(PersistRegion, GeometryMismatchRejectedByArena) {
  const auto path = tmp_region("geom");
  PersistRegion r(path, PersistRegion::Mode::kCreate, PersistGeometry{8, 64});
  EXPECT_THROW(ChunkArena(16, 64, &r), std::invalid_argument);
  EXPECT_THROW(ChunkArena(8, 128, &r), std::invalid_argument);
  EXPECT_NO_THROW(ChunkArena(8, 64, &r));
}

TEST(PersistGfsl, RegionRequiresLeaseTable) {
  const auto path = tmp_region("no_leases");
  PersistRegion region(path, PersistRegion::Mode::kCreate,
                       PersistGeometry{8, 1u << 12});
  device::DeviceMemory mem;
  EXPECT_THROW(
      Gfsl(small_cfg(), &mem, nullptr, /*leases=*/nullptr, nullptr, &region),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Clean-shutdown round-trip through a real structure.

TEST(PersistGfsl, CleanShutdownReattachServesSameContents) {
  const auto path = tmp_region("clean_roundtrip");
  {
    harness::GfslStack stack(small_cfg(), {.persist_path = path});
    simt::Team team(8, 0, 3);
    run_small_workload(stack.gfsl(), team);
    EXPECT_GT(stack.region()->persist_points(), 0u);
    stack.region()->mark_clean();
  }
  std::set<Key> keys;
  const auto rep = recover_file(path, nullptr, &keys);
  EXPECT_TRUE(rep.ok) << rep.error;
  // A cleanly shut-down image has nothing to repair.
  EXPECT_EQ(rep.locks_released, 0);
  EXPECT_EQ(rep.intents_repaired, 0);
  EXPECT_EQ(rep.stale_keys_scrubbed, 0u);
  EXPECT_EQ(keys, small_workload_expected());
}

// ---------------------------------------------------------------------------
// Whole-process SIGKILL + recovery, and recovery idempotence.

TEST(PersistRecovery, SigkilledChildImageRecoversAndValidates) {
  const auto path = tmp_region("sigkill");
  // Kill points sampled across the workload: early (allocation storm),
  // middle (steady mutation), late (merge-heavy erase phase).
  for (const std::uint64_t kill_at : {7u, 120u, 400u}) {
    ASSERT_EQ(run_forked([&] { child_workload(path, kill_at); }),
              ChildFate::kKilled)
        << "child with barrier " << kill_at << " armed did not die by SIGKILL";
    std::set<Key> keys;
    const auto rep = recover_file(path, nullptr, &keys);
    EXPECT_TRUE(rep.ok) << "kill at " << kill_at << ": " << rep.error;
    // The single-team workload is sequential, so the recovered key set must
    // be a state the program actually passed through — every key is one the
    // workload inserts.
    const auto plausible = [] {
      std::set<Key> s;
      for (Key k = 1; k <= 120; ++k) s.insert(k * 3);
      for (Key k = 200; k <= 260; ++k) s.insert(k);
      return s;
    }();
    for (const Key k : keys) {
      EXPECT_TRUE(plausible.count(k) != 0) << "alien key " << k;
    }
  }
}

TEST(PersistRecovery, RecoveredDownPointersNameTheChunkHoldingTheKey) {
  const auto path = tmp_region("precise_down");
  for (const std::uint64_t kill_at : {60u, 250u, 400u}) {
    ASSERT_EQ(run_forked([&] { child_workload(path, kill_at); }),
              ChildFate::kKilled);
    harness::GfslStack stack(GfslConfig{}, attach(path));
    const RecoveryReport rep = stack.gfsl().recover();
    ASSERT_TRUE(rep.ok) << "kill at " << kill_at << ": " << rep.error;
    SCOPED_TRACE("kill at " + std::to_string(kill_at));
    expect_precise_down_pointers(stack.gfsl());
  }
}

/// Writes a clean image of even keys 2..600, then forges it so that no key
/// of a non-leading, non-last level-1 chunk exists at level 0: each key k
/// becomes k - 1, down pointers kept.  Returns the forged chunk's view.
ChunkView write_orphaned_upper_chunk(const std::string& path,
                                     std::set<Key>* expected) {
  {
    harness::GfslStack stack(small_cfg(), {.persist_path = path});
    simt::Team team(8, 0, 3);
    for (Key k = 1; k <= 300; ++k) {
      stack.gfsl().insert(team, k * 2, k);
      expected->insert(k * 2);
    }
    stack.region()->mark_clean();
  }
  harness::GfslStack stack(GfslConfig{}, attach(path));
  GfslInspector insp(stack.gfsl());
  bool cycle = false;
  std::vector<ChunkView> live;
  for (const ChunkView& ch : insp.level_chain(1, &cycle)) {
    if (ch.lock != kZombie) live.push_back(ch);
  }
  EXPECT_GE(live.size(), 3u);
  const ChunkView victim = live.at(1);  // live[0] leads level 1
  EXPECT_NE(victim.next, NULL_CHUNK);
  auto* entries =
      const_cast<std::atomic<KV>*>(stack.gfsl().arena().entries(victim.ref));
  for (std::size_t s = 0; s < victim.data.size(); ++s) {
    const KV kv = victim.data[s];
    entries[s].store(make_kv(kv_key(kv) - 1, kv_value(kv)));
  }
  return victim;
}

TEST(PersistRecovery, ChunkWithNoKeyLeftBelowIsZombified) {
  // recover() must drop every key of the forged chunk and retire it, and
  // the result must pass strict validation.
  const auto path = tmp_region("forged_upper");
  std::set<Key> expected;
  const ChunkView victim = write_orphaned_upper_chunk(path, &expected);
  harness::GfslStack stack(GfslConfig{}, attach(path));
  Gfsl& sl = stack.gfsl();
  const RecoveryReport rep = sl.recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.validation.ok) << rep.validation.error;
  EXPECT_EQ(rep.stale_keys_scrubbed, victim.data.size());
  EXPECT_EQ(rep.chunks_zombified, 1u);
  EXPECT_EQ(GfslInspector(sl).view(victim.ref).lock, kZombie);
  std::set<Key> keys;
  for (const auto& [k, v] : sl.collect()) keys.insert(k);
  EXPECT_EQ(keys, expected);
  expect_precise_down_pointers(sl);

  // The zombie stays linked; a second pass finds nothing left to do.
  const auto first = snapshot(*stack.region());
  const RecoveryReport rep2 = sl.recover();
  ASSERT_TRUE(rep2.ok) << rep2.error;
  EXPECT_EQ(rep2.stale_keys_scrubbed, 0u);
  EXPECT_EQ(rep2.chunks_zombified, 0u);
  EXPECT_TRUE(snapshot(*stack.region()) == first)
      << "second recovery changed the image";
}

TEST(PersistRecovery, KillAnywhereInTheRebuildThenRerunConverges) {
  // A recoverer killed at any persist barrier — inside the upper-level
  // rebuild's lock, slot writes, max lowering or zombify included — leaves
  // an image the next recover() drives to the straight run's bytes.
  const auto forged = tmp_region("forged_kill_base");
  const auto path = tmp_region("forged_kill");
  std::set<Key> expected;
  (void)write_orphaned_upper_chunk(forged, &expected);
  std::filesystem::copy_file(forged, path,
                             std::filesystem::copy_options::overwrite_existing);
  std::vector<unsigned char> straight;
  ASSERT_TRUE(recover_file(path, &straight).ok);
  std::uint64_t j = 1;
  for (;; ++j) {
    std::filesystem::copy_file(
        forged, path, std::filesystem::copy_options::overwrite_existing);
    const auto fate = run_forked([&] { child_recover(path, j); });
    ASSERT_NE(fate, ChildFate::kError);
    if (fate == ChildFate::kClean) break;  // recovery has fewer barriers
    std::vector<unsigned char> rerun;
    const auto rep = recover_file(path, &rerun);
    ASSERT_TRUE(rep.ok) << "kill at barrier " << j << ": " << rep.error;
    ASSERT_TRUE(rerun == straight)
        << "kill at barrier " << j << " converged to a different image";
  }
  EXPECT_GT(j, 10u) << "the sweep never reached the rebuild";
}

TEST(PersistRecovery, RecoverTwiceIsBitIdentical) {
  const auto path = tmp_region("idempotent");
  for (const std::uint64_t kill_at : {25u, 180u}) {
    ASSERT_EQ(run_forked([&] { child_workload(path, kill_at); }),
              ChildFate::kKilled);
    std::vector<unsigned char> first, second;
    const auto rep1 = recover_file(path, &first);
    ASSERT_TRUE(rep1.ok) << rep1.error;
    const auto rep2 = recover_file(path, &second);
    ASSERT_TRUE(rep2.ok) << rep2.error;
    // The second pass finds a canonical image and must change nothing.
    EXPECT_EQ(rep2.locks_released, 0);
    EXPECT_EQ(rep2.intents_repaired, 0);
    EXPECT_TRUE(first == second)
        << "recover() twice diverged (kill at " << kill_at << ")";
  }
}

TEST(PersistRecovery, KillMidRecoveryThenRerunConverges) {
  const auto path_a = tmp_region("midrecover_a");
  const auto path_b = tmp_region("midrecover_b");
  ASSERT_EQ(run_forked([&] { child_workload(path_a, 90); }),
            ChildFate::kKilled);
  // Two copies of the same torn image: B recovers straight through, A's
  // recovery is crashed at persist barrier j and then re-run.  Both paths
  // must land on the same bytes.
  std::filesystem::copy_file(path_a, path_b,
                             std::filesystem::copy_options::overwrite_existing);
  std::vector<unsigned char> straight;
  const auto rep_b = recover_file(path_b, &straight);
  ASSERT_TRUE(rep_b.ok) << rep_b.error;
  for (std::uint64_t j = 1; j <= 4; ++j) {
    const auto fate = run_forked([&] { child_recover(path_a, j); });
    ASSERT_NE(fate, ChildFate::kError);
    if (fate == ChildFate::kClean) break;  // recovery has < j barriers
    std::vector<unsigned char> rerun;
    const auto rep_a = recover_file(path_a, &rerun);
    ASSERT_TRUE(rep_a.ok)
        << "re-run after mid-recovery kill at barrier " << j << ": "
        << rep_a.error;
    EXPECT_TRUE(rerun == straight)
        << "mid-recovery crash at barrier " << j
        << " left a different converged image";
    // Re-tear the image for the next j: the recovered file is now clean, so
    // copy the pristine torn bytes back.
    std::filesystem::copy_file(
        path_b, path_a, std::filesystem::copy_options::overwrite_existing);
    // path_b is recovered, not torn — regenerate both from a fresh kill so
    // every j sweeps the same torn image.
    ASSERT_EQ(run_forked([&] { child_workload(path_a, 90); }),
              ChildFate::kKilled);
    std::filesystem::copy_file(
        path_a, path_b, std::filesystem::copy_options::overwrite_existing);
    straight.clear();
    const auto rb = recover_file(path_b, &straight);
    ASSERT_TRUE(rb.ok) << rb.error;
  }
}

// ---------------------------------------------------------------------------
// Per-mutation-kind torn-state fixtures: scripted deterministic kills, cold
// whole-process recovery (no surviving teams, no in-context medic).

Op ins(Key k) { return Op{OpKind::Insert, k, k * 10, 0}; }
Op del(Key k) { return Op{OpKind::Delete, k, 0, 0}; }

struct TornOutcome {
  bool ok = true;
  std::string error;
  std::set<Key> keys;
  std::uint64_t steps = 0;
};

TornOutcome run_torn_script(int team_size, const std::vector<Op>& ops,
                            std::uint64_t kill_step, const std::string& path) {
  TornOutcome out;
  {
    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 42,
                               1);
    if (kill_step != UINT64_MAX) sched.kill_at(0, kill_step);

    harness::GfslStack stack(small_cfg(team_size),
                             {.persist_path = path, .scheduler = &sched});
    Gfsl& sl = stack.gfsl();

    std::thread t([&] {
      simt::Team team(team_size, 0, 3);
      sched.enter(0);
      try {
        for (const Op& op : ops) {
          switch (op.kind) {
            case OpKind::Insert: sl.insert(team, op.key, op.value); break;
            case OpKind::Delete: sl.erase(team, op.key); break;
            case OpKind::Contains: sl.contains(team, op.key); break;
          }
        }
        sched.leave(0);
      } catch (const sched::TeamKilled&) {
        // The "process" dies here: the region file keeps whatever the
        // victim had published, including its held locks and intent.
      }
    });
    t.join();
    out.steps = sched.global_steps();
    // Scope exit unmaps without mark_clean() — a dirty image, like SIGKILL.
  }
  const auto rep = recover_file(path, nullptr, &out.keys);
  if (!rep.ok) {
    out.ok = false;
    out.error = rep.error;
  }
  return out;
}

/// Kill at every yield step of the final `target_ops` ops; each torn image
/// must recover, and the recovered key sets are returned so the caller can
/// assert both roll directions occurred.
std::set<std::set<Key>> sweep_torn(int team_size, const std::vector<Op>& ops,
                                   const std::string& path,
                                   std::size_t target_ops = 1) {
  const auto ref = run_torn_script(team_size, ops, UINT64_MAX, path);
  EXPECT_TRUE(ref.ok) << ref.error;
  EXPECT_GT(ref.steps, 0u);
  const std::vector<Op> prefix(ops.begin(), ops.end() - target_ops);
  const auto pre = run_torn_script(team_size, prefix, UINT64_MAX, path);
  EXPECT_TRUE(pre.ok) << pre.error;
  std::set<std::set<Key>> outcomes;
  for (std::uint64_t s = 1; s <= ref.steps; ++s) {
    const auto r = run_torn_script(team_size, ops, s, path);
    EXPECT_TRUE(r.ok) << "kill at step " << s << ": " << r.error;
    if (!r.ok) break;
    if (s > pre.steps) outcomes.insert(r.keys);
  }
  return outcomes;
}

TEST(PersistTorn, InsertShiftRollsForwardOrBack) {
  const auto path = tmp_region("torn_insert");
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(25)};
  const auto outcomes = sweep_torn(8, script, path);
  const std::set<Key> without{10, 20, 30, 40};
  std::set<Key> with = without;
  with.insert(25);
  for (const auto& keys : outcomes) {
    EXPECT_TRUE(keys == without || keys == with)
        << "unexpected recovered key set of size " << keys.size();
  }
  EXPECT_TRUE(outcomes.count(without) == 1 && outcomes.count(with) == 1)
      << "sweep should observe both roll directions";
}

TEST(PersistTorn, EraseShiftRollsForwardOrBack) {
  const auto path = tmp_region("torn_erase");
  const std::vector<Op> script{ins(10), ins(20), ins(30), ins(40), ins(50),
                               del(30)};
  const auto outcomes = sweep_torn(8, script, path);
  const std::set<Key> with{10, 20, 30, 40, 50};
  std::set<Key> without = with;
  without.erase(30);
  for (const auto& keys : outcomes) {
    EXPECT_TRUE(keys == with || keys == without)
        << "unexpected recovered key set of size " << keys.size();
  }
}

TEST(PersistTorn, SplitPublishRollsForwardOrBack) {
  // Team size 8 => 6 data slots: the 7th insert forces a split.  A kill
  // anywhere inside the split (freeze, copy, publish, down swing) must
  // recover to one of the two legal states.
  const auto path = tmp_region("torn_split");
  std::vector<Op> script;
  std::set<Key> without;
  for (Key k = 1; k <= 6; ++k) {
    script.push_back(ins(k * 10));
    without.insert(k * 10);
  }
  script.push_back(ins(35));
  std::set<Key> with = without;
  with.insert(35);
  const auto outcomes = sweep_torn(8, script, path);
  for (const auto& keys : outcomes) {
    EXPECT_TRUE(keys == without || keys == with)
        << "unexpected recovered key set of size " << keys.size();
  }
  EXPECT_TRUE(outcomes.count(with) == 1)
      << "no kill point rolled the split forward";
}

// ---------------------------------------------------------------------------
// FaultPlane-driven corruption of a closed image (DESIGN.md §15): recovery
// must either converge to the pre-close contents or refuse with a typed
// error — never serve a silently wrong answer.  These are the unit-sized
// companions to `gfsl_fuzz --corrupt-sweep`, pinned to specific sections.

/// Writes the reference workload into a fresh region and closes it clean.
std::set<Key> make_clean_image(const std::string& path) {
  harness::GfslStack stack(small_cfg(), {.persist_path = path});
  simt::Team team(8, 0, 3);
  run_small_workload(stack.gfsl(), team);
  stack.region()->mark_clean();
  return small_workload_expected();
}

TEST(PersistCorrupt, FlippedSuperblockIsTypedRejection) {
  // A flip landing in the superblock's covered bytes must surface as a typed
  // recover() refusal (verify_superblock), never as a converged-but-wrong
  // structure.  Flips into don't-care padding may legitimately recover; the
  // seed sweep must observe at least one actual rejection.
  const auto path = tmp_region("corrupt_superblock");
  bool saw_rejection = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto expected = make_clean_image(path);
    device::FaultPlane plane;
    harness::GfslStack stack(GfslConfig{}, attach(path));
    Gfsl& sl = stack.gfsl();
    PersistRegion& region = *stack.region();
    region.attach_fault_plane(&plane);
    region.arm_fault_sections(plane);
    const auto frep = plane.inject(
        {device::FaultSection::kSuperblock, device::FaultKind::kBitFlip, seed});
    ASSERT_TRUE(frep.injected);
    const auto rep = sl.recover();
    if (!rep.ok) {
      saw_rejection = true;
      EXPECT_FALSE(rep.error.empty());
    } else {
      std::set<Key> keys;
      for (const auto& [k, v] : sl.collect()) keys.insert(k);
      EXPECT_EQ(keys, expected) << "seed " << seed
                                << ": recovery accepted a flipped superblock "
                                   "but served different contents";
    }
  }
  EXPECT_TRUE(saw_rejection)
      << "no superblock flip in 8 seeds was rejected — the typed-refusal "
         "path never ran";
}

TEST(PersistCorrupt, TornTrailingIntentRollsBackAndConverges) {
  // A torn write into the (quiescent) intent table models a descriptor that
  // was half-published at the crash.  recover()'s triage must claim and roll
  // back the garbage slot; a second pass over the repaired image must be a
  // bit-identical no-op.
  const auto path = tmp_region("corrupt_intent");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto expected = make_clean_image(path);
    device::FaultPlane plane;
    harness::GfslStack stack(GfslConfig{}, attach(path));
    Gfsl& sl = stack.gfsl();
    PersistRegion& region = *stack.region();
    region.attach_fault_plane(&plane);
    region.arm_fault_sections(plane);
    (void)plane.inject({device::FaultSection::kIntents,
                        device::FaultKind::kTornEntry, seed});
    const auto rep = sl.recover();
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
    std::set<Key> keys;
    for (const auto& [k, v] : sl.collect()) keys.insert(k);
    EXPECT_EQ(keys, expected) << "seed " << seed;
    const auto first = snapshot(region);
    const auto rep2 = sl.recover();
    ASSERT_TRUE(rep2.ok) << "seed " << seed << ": " << rep2.error;
    EXPECT_EQ(rep2.intents_repaired, 0) << "seed " << seed;
    EXPECT_TRUE(snapshot(region) == first)
        << "seed " << seed << ": second recovery changed the image";
  }
}

TEST(PersistCorrupt, GenerationWordCorruptionRecoversIdempotently) {
  // Generation stamps are derived bookkeeping: any damage must be rebuilt by
  // recover() without touching user data, and recover-twice must converge.
  const auto path = tmp_region("corrupt_generation");
  for (const device::FaultKind kind : {device::FaultKind::kBitFlip,
                                       device::FaultKind::kMultiBitFlip,
                                       device::FaultKind::kTornEntry}) {
    const auto expected = make_clean_image(path);
    device::FaultPlane plane;
    harness::GfslStack stack(GfslConfig{}, attach(path));
    Gfsl& sl = stack.gfsl();
    PersistRegion& region = *stack.region();
    region.attach_fault_plane(&plane);
    region.arm_fault_sections(plane);
    (void)plane.inject({device::FaultSection::kGenerations, kind, 7});
    const auto rep = sl.recover();
    ASSERT_TRUE(rep.ok) << device::fault_kind_name(kind) << ": " << rep.error;
    std::set<Key> keys;
    for (const auto& [k, v] : sl.collect()) keys.insert(k);
    EXPECT_EQ(keys, expected) << device::fault_kind_name(kind);
    const auto first = snapshot(region);
    const auto rep2 = sl.recover();
    ASSERT_TRUE(rep2.ok) << device::fault_kind_name(kind) << ": "
                         << rep2.error;
    EXPECT_TRUE(snapshot(region) == first)
        << device::fault_kind_name(kind)
        << ": second recovery changed the image";
  }
}

TEST(PersistTorn, MergeRollsForwardOrBack) {
  // Fill past one chunk, then drain until chunks underflow and merge.  The
  // final erase's kill window spans the merge protocol.
  const auto path = tmp_region("torn_merge");
  std::vector<Op> script;
  std::set<Key> base;
  for (Key k = 1; k <= 12; ++k) {
    script.push_back(ins(k * 5));
    base.insert(k * 5);
  }
  for (Key k = 2; k <= 10; k += 2) {
    script.push_back(del(k * 5));
    base.erase(k * 5);
  }
  script.push_back(del(35));
  std::set<Key> with = base;  // delete rolled back: 35 still present
  std::set<Key> without = base;
  without.erase(35);
  const auto outcomes = sweep_torn(8, script, path);
  for (const auto& keys : outcomes) {
    EXPECT_TRUE(keys == with || keys == without)
        << "unexpected recovered key set of size " << keys.size();
  }
}

}  // namespace
}  // namespace gfsl::core
