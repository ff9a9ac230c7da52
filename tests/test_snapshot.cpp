// MVCC snapshots (core/snapshot.{h,cpp}; DESIGN.md §13): visibility rules
// across insert/erase/split/merge, watermark-bounded version-chain GC under
// a rotating snapshot holder, expiry and degrade paths, and the A/B
// determinism contract — a Gfsl constructed *without* a SnapshotManager runs
// the seed code path, and attaching one must not change any operation's
// result or the final contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
#include "core/inspect.h"
#include "core/snapshot.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "sched/step_scheduler.h"

namespace gfsl::core {
namespace {

using simt::Team;

using Pairs = std::vector<std::pair<Key, Value>>;

Pairs scan_all(Gfsl& sl, Team& team, const Snapshot& s,
               ScanAtStatus* st_out = nullptr) {
  Pairs got;
  const auto st = sl.scan_at(team, s, MIN_USER_KEY, MAX_USER_KEY, got);
  if (st_out != nullptr) *st_out = st;
  EXPECT_EQ(st, ScanAtStatus::kOk);
  return got;
}

// ---------------------------------------------------------------------------
// Visibility rules.

TEST(SnapshotVisibility, MutationsAfterSnapshotAreInvisible) {
  device::DeviceMemory mem;
  SnapshotManager snaps(1u << 10);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 10;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, &snaps);
  Team team(8, 0, 5);

  Pairs frozen;
  for (Key k = 10; k <= 50; k += 10) {
    ASSERT_TRUE(sl.insert(team, k, k * 2));
    frozen.emplace_back(k, k * 2);
  }
  Snapshot s1 = sl.snapshot();
  ASSERT_TRUE(s1.open());

  // Every kind of post-snapshot mutation: fresh insert, erase of a frozen
  // key, and erase+reinsert (value change) of another.
  ASSERT_TRUE(sl.insert(team, 15, 1));
  ASSERT_TRUE(sl.erase(team, 30));
  ASSERT_TRUE(sl.erase(team, 40));
  ASSERT_TRUE(sl.insert(team, 40, 999));

  EXPECT_EQ(scan_all(sl, team, s1), frozen)
      << "snapshot leaked post-snapshot mutations";

  Snapshot s2 = sl.snapshot();
  const Pairs now{{10, 20}, {15, 1}, {20, 40}, {40, 999}, {50, 100}};
  EXPECT_EQ(scan_all(sl, team, s2), now);
  sl.release_snapshot(s1);
  sl.release_snapshot(s2);
}

TEST(SnapshotVisibility, EraseThenReinsertResolvesPerRevision) {
  device::DeviceMemory mem;
  SnapshotManager snaps(1u << 10);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 10;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, &snaps);
  Team team(8, 0, 5);

  ASSERT_TRUE(sl.insert(team, 42, 1));
  Snapshot s1 = sl.snapshot();
  ASSERT_TRUE(sl.erase(team, 42));
  Snapshot s2 = sl.snapshot();
  ASSERT_TRUE(sl.insert(team, 42, 2));
  Snapshot s3 = sl.snapshot();

  EXPECT_EQ(scan_all(sl, team, s1), (Pairs{{42, 1}}));
  EXPECT_EQ(scan_all(sl, team, s2), Pairs{});
  EXPECT_EQ(scan_all(sl, team, s3), (Pairs{{42, 2}}));
  sl.release_snapshot(s1);
  sl.release_snapshot(s2);
  sl.release_snapshot(s3);
}

TEST(SnapshotVisibility, SurvivesSplitsAndMerges) {
  // Small chunks so the post-snapshot churn forces real splits (inserts) and
  // merges (erases) through the frozen keys' chunks; records must ride along
  // with every key move.  The held snapshot pins the GC watermark for the
  // whole cascade, and each merge *copies* the donor's chain into the
  // receiver (the originals only free after epoch grace), so the arena is
  // sized well above the default 4x-pool heuristic — undersizing degrades
  // (by design) instead of returning a torn scan, which is covered by
  // SnapshotExpiry.DegradeExpiresHoldersButNotTheStructure.
  device::DeviceMemory mem;
  device::EpochManager epochs;
  SnapshotManager snaps(1u << 12, /*record_capacity=*/1u << 17);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, &snaps);
  Team team(8, 0, 5);

  Pairs frozen;
  for (Key k = 5; k <= 500; k += 5) {
    ASSERT_TRUE(sl.insert(team, k, k));
    frozen.emplace_back(k, k);
  }
  Snapshot s = sl.snapshot();
  ASSERT_TRUE(s.open());

  // Split wave: fill every gap.
  for (Key k = 1; k <= 500; ++k) {
    if (k % 5 != 0) sl.insert(team, k, k + 1'000);
  }
  EXPECT_EQ(scan_all(sl, team, s), frozen) << "splits leaked or lost keys";

  // Merge wave: drain everything, frozen keys included.
  for (Key k = 1; k <= 500; ++k) sl.erase(team, k);
  ASSERT_EQ(snaps.overflows(), 0u) << "arena undersized for the cascade";
  EXPECT_EQ(sl.collect().size(), 0u);
  EXPECT_EQ(scan_all(sl, team, s), frozen) << "merges dropped version records";

  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
  sl.release_snapshot(s);
}

// ---------------------------------------------------------------------------
// Expiry and degrade paths.

TEST(SnapshotExpiry, NoManagerYieldsClosedHandle) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 10;
  Gfsl sl(cfg, &mem);
  Team team(8, 0, 5);
  ASSERT_TRUE(sl.insert(team, 7, 7));

  Snapshot s = sl.snapshot();
  EXPECT_FALSE(s.open());
  Pairs got{{1, 1}};
  EXPECT_EQ(sl.scan_at(team, s, MIN_USER_KEY, MAX_USER_KEY, got),
            ScanAtStatus::kNoManager);
  EXPECT_EQ(got.size(), 1u) << "failed scan_at touched the output tail";
}

TEST(SnapshotExpiry, ReleasedAndLaggingSnapshotsAreRejected) {
  device::DeviceMemory mem;
  SnapshotManager snaps(1u << 10);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 10;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, &snaps);
  Team team(8, 0, 5);
  ASSERT_TRUE(sl.insert(team, 7, 7));

  Snapshot released = sl.snapshot();
  sl.release_snapshot(released);
  Pairs got{{1, 1}};
  EXPECT_EQ(sl.scan_at(team, released, MIN_USER_KEY, MAX_USER_KEY, got),
            ScanAtStatus::kSnapshotExpired);
  EXPECT_EQ(got.size(), 1u) << "failed scan_at touched the output tail";

  // Lagging policy: a holder that falls `max_age` revisions behind is
  // forcibly expired; the laggard sees kSnapshotExpired, never stale data.
  Snapshot laggard = sl.snapshot();
  for (Key k = 100; k < 120; ++k) sl.insert(team, k, k);
  EXPECT_GE(snaps.expire_lagging(/*max_age=*/4), 1u);
  EXPECT_GE(snaps.snapshots_expired(), 1u);
  got.clear();
  EXPECT_EQ(sl.scan_at(team, laggard, MIN_USER_KEY, MAX_USER_KEY, got),
            ScanAtStatus::kSnapshotExpired);
}

TEST(SnapshotExpiry, DegradeExpiresHoldersButNotTheStructure) {
  device::DeviceMemory mem;
  SnapshotManager snaps(1u << 10);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 10;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, &snaps);
  Team team(8, 0, 5);
  ASSERT_TRUE(sl.insert(team, 7, 7));

  Snapshot held = sl.snapshot();
  snaps.degrade();
  Pairs got;
  EXPECT_EQ(sl.scan_at(team, held, MIN_USER_KEY, MAX_USER_KEY, got),
            ScanAtStatus::kSnapshotExpired);

  // The structure itself never blocks or breaks: mutations continue, the
  // revision clock moves past the poisoned window, and a *fresh* snapshot
  // resolves correctly again.
  ASSERT_TRUE(sl.insert(team, 8, 8));
  Snapshot fresh = sl.snapshot();
  ASSERT_TRUE(fresh.open());
  EXPECT_EQ(scan_all(sl, team, fresh), (Pairs{{7, 7}, {8, 8}}));
  sl.release_snapshot(fresh);
}

// ---------------------------------------------------------------------------
// Watermark GC: bounded memory under churn with a rotating snapshot holder.

TEST(SnapshotGC, AnnulledRecordOutlivesOlderSnapshots) {
  // One batch revision r inserts and erases key k: the record {k, r, r} is
  // visible at no snapshot, yet a scan_at at an older snapshot may hold a
  // chunk image from between the two writes, with k's entry in it; only
  // the record keeps rule 2 from harvesting that entry.  Pruning must keep
  // it until the watermark reaches r.
  SnapshotManager snaps(16);
  const ChunkRef c = 1;
  const Key k = 40;
  Snapshot older = snaps.acquire();
  ASSERT_TRUE(older.open());
  const int slot = snaps.acquire_batch_slot();
  ASSERT_GE(slot, 0);
  const Rev r = snaps.begin_commit(slot);
  ASSERT_GT(r, older.rev);
  ASSERT_TRUE(snaps.record_insert(c, k, 7, r));
  ASSERT_TRUE(snaps.mark_erased(c, k, 7, r));

  std::vector<RecIdx> freed;
  EXPECT_EQ(snaps.prune_chain(c, snaps.watermark(), KEY_INF, &freed), 0u);
  snaps.end_commit(slot);
  snaps.release_batch_slot(slot);
  EXPECT_EQ(snaps.prune_chain(c, snaps.watermark(), KEY_INF, &freed), 0u);
  EXPECT_EQ(snaps.chain_length(c), 1u);

  snaps.release(older);
  EXPECT_EQ(snaps.prune_chain(c, snaps.watermark(), KEY_INF, &freed), 1u);
  EXPECT_EQ(snaps.chain_length(c), 0u);
  snaps.free_records(freed);
}

TEST(SnapshotGC, RotatingHolderKeepsRecordArenaBounded) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  // An arena a fraction of the default size: the soak stamps several times
  // its capacity, so surviving without an overflow-degrade requires pruning
  // down to the rotating watermark every round.
  SnapshotManager snaps(1u << 12, /*record_capacity=*/4096);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, &snaps);
  Team team(8, 0, 5);

  constexpr std::uint64_t kRounds = 60;
  constexpr std::uint64_t kOpsPerRound = 400;
  constexpr std::uint64_t kRange = 96;  // tight: long per-key histories
  Xoshiro256ss rng(0x50AC);
  Snapshot held = sl.snapshot();
  std::uint64_t peak_live = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kOpsPerRound; ++i) {
      const Key k = 1 + static_cast<Key>(rng.below(kRange));
      if (rng.below(2) == 0) {
        sl.insert(team, k, static_cast<Value>(round));
      } else {
        sl.erase(team, k);
      }
    }
    // Rotate the holder: the watermark advances every round, so departed
    // records older than the new snapshot become GC-eligible.
    Snapshot next = sl.snapshot();
    sl.release_snapshot(held);
    held = next;
    peak_live = std::max(peak_live, snaps.records_live());
  }
  sl.release_snapshot(held);

  EXPECT_GT(snaps.records_created(),
            static_cast<std::uint64_t>(snaps.record_capacity()))
      << "soak too small to exercise GC";
  EXPECT_EQ(snaps.overflows(), 0u)
      << "record arena overflowed: watermark GC is not keeping up";
  EXPECT_LT(peak_live, static_cast<std::uint64_t>(snaps.record_capacity()))
      << "live records reached arena capacity";
  EXPECT_GT(snaps.records_pruned(), 0u);
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

// ---------------------------------------------------------------------------
// The record arena: freed records on a free-list, then a bump counter over
// the never-used ones.  Neither construction nor reset() writes a record,
// yet indices come out in the order a free-list threaded through the whole
// arena would give: the freed ones LIFO first, then the fresh ones
// ascending.

// The index record_insert handed out: the new head of c's chain.
RecIdx insert_at(SnapshotManager& m, ChunkRef c, Key k) {
  EXPECT_TRUE(m.record_insert(c, k, k, 1));
  return m.chain_head(c);
}

TEST(SnapshotRecordArena, FreshIndicesAscendThenFreedOnesComeBackLifo) {
  SnapshotManager m(64, /*record_capacity=*/32);
  for (RecIdx want = 0; want < 5; ++want) {
    EXPECT_EQ(insert_at(m, 0, want + 1), want);
  }
  std::vector<RecIdx> detached;
  m.purge_chunk(0, &detached);
  ASSERT_EQ(detached, (std::vector<RecIdx>{4, 3, 2, 1, 0}));
  m.free_records({1, 3});
  EXPECT_EQ(insert_at(m, 1, 10), 3u);  // the last freed comes back first
  EXPECT_EQ(insert_at(m, 1, 11), 1u);
  EXPECT_EQ(insert_at(m, 1, 12), 5u);  // then the never-used ones
  EXPECT_EQ(insert_at(m, 1, 13), 6u);
  m.free_records({0, 2, 4});
  // reset() drops the chains and the free-list: the same sequence again.
  m.reset();
  for (RecIdx want = 0; want < 5; ++want) {
    EXPECT_EQ(insert_at(m, 2, want + 1), want);
  }
  m.purge_chunk(2, &detached);
  m.free_records({2});
  EXPECT_EQ(insert_at(m, 3, 20), 2u);
  EXPECT_EQ(insert_at(m, 3, 21), 5u);
}

TEST(SnapshotRecordArena, OverflowsAtExactlyTheRecordCapacity) {
  SnapshotManager m(64, /*record_capacity=*/8);
  for (Key k = 1; k <= 8; ++k) ASSERT_TRUE(m.record_insert(0, k, k, 1));
  EXPECT_EQ(m.overflows(), 0u);
  EXPECT_FALSE(m.record_insert(0, 9, 9, 1));
  EXPECT_EQ(m.overflows(), 1u);
  // A freed record is handed out before the arena overflows again.
  std::vector<RecIdx> detached;
  m.purge_chunk(0, &detached);
  m.free_records({detached[0]});
  EXPECT_TRUE(m.record_insert(1, 10, 10, 1));
  EXPECT_EQ(m.overflows(), 1u);
  EXPECT_FALSE(m.record_insert(1, 11, 11, 1));
  EXPECT_EQ(m.overflows(), 2u);
  // After reset() the whole arena again, and not one record more.
  m.reset();
  for (Key k = 1; k <= 8; ++k) ASSERT_TRUE(m.record_insert(2, k, k, 1));
  EXPECT_EQ(m.overflows(), 2u);
  EXPECT_FALSE(m.record_insert(2, 9, 9, 1));
  EXPECT_EQ(m.overflows(), 3u);
}

// ---------------------------------------------------------------------------
// scan_at's lateral walk loads evict-first: it holds at most the victim slot
// of each L2 set, so the chunks other operations read before a scan over a
// structure several times the L2's size are still resident after it.

TEST(SnapshotScanCache, ScanAtLeavesTheHotChunksResident) {
  device::CacheConfig l2;
  l2.capacity_bytes = 64 * 1024;  // 512 lines: 32 sets of 16 ways
  device::DeviceMemory mem(l2);
  GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 12;
  SnapshotManager snaps(cfg.pool_chunks);
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, &snaps);
  Team team(32, 0, 5);
  Pairs pairs;
  for (Key k = 1; k <= 40'000; ++k) pairs.emplace_back(k, k);
  sl.bulk_load(pairs);
  const auto bottom = static_cast<std::uint64_t>(sl.chunks_in_level(0));
  ASSERT_GT(bottom * 256, 4 * l2.capacity_bytes);
  mem.flush_cache();
  mem.reset_stats();

  const std::vector<Key> hot = {1'000, 9'000, 17'000, 25'000, 33'000};
  for (const Key k : hot) ASSERT_TRUE(sl.contains(team, k));
  const device::MemStats warm = mem.snapshot();
  Snapshot s = sl.snapshot();
  EXPECT_EQ(scan_all(sl, team, s).size(), pairs.size());
  sl.release_snapshot(s);
  const device::MemStats scanned = mem.snapshot();
  for (const Key k : hot) ASSERT_TRUE(sl.contains(team, k));
  const device::MemStats total = mem.snapshot();

  const device::MemStats reread = total - scanned;
  EXPECT_EQ(reread.transactions, warm.transactions);
  EXPECT_EQ(reread.dram_transactions, 0u) << "every hot line hits";
  EXPECT_EQ((scanned - warm).evict_first, 2 * bottom);  // 256 B chunks
  // The operator moves only the hit/DRAM split: these are the sequence's
  // counts with every load normal, when the re-read missed all 34 lines.
  EXPECT_EQ(total.transactions, 3'768u);
  EXPECT_EQ(total.warp_reads, 1'895u);
  EXPECT_EQ(total.bytes_moved, 482'304u);
}

// ---------------------------------------------------------------------------
// scan_at's pin refresh.  Without an enclosing pin, scan_at drops and
// re-takes its pin every kScanPinRefresh chunks and re-descends to its
// watermark.  reclaim_pass swings a stale down pointer to the head of the
// level below, an image validate() accepts, so a re-descent can land
// hundreds of chunks behind the watermark.  The walk back must not spend the
// refresh budget, or the scan refreshes before reaching the watermark and
// lands in the same place forever.  A watchdog kill turns such a livelock
// into a failed case within a second instead of a ctest timeout.

Pairs identity_pairs(Key lo, Key hi) {
  Pairs out;
  for (Key k = lo; k <= hi; ++k) out.emplace_back(k, k);
  return out;
}

/// Bulk-load keys 1..8000 into GFSL-8 with epochs and snapshots (2000
/// bottom chunks, height 6), point the down pointer of every level-1 entry
/// `swing` picks at the bottom level's head, and scan [lo, hi] at a fresh
/// snapshot, with no pin held, under a single-team deterministic scheduler.
/// Returns false when the watchdog had to kill the scan.
template <typename Swing>
bool scan_behind_swung_pointers(Swing swing, Key lo, Key hi, Pairs& got) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 1, 1);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  SnapshotManager snaps(cfg.pool_chunks);
  Gfsl sl(cfg, &mem, &sched, nullptr, &epochs, nullptr, &snaps);
  sl.bulk_load(identity_pairs(1, 8'000));
  EXPECT_EQ(sl.chunks_in_level(0), 2'000);

  const GfslInspector insp(sl);
  const ChunkRef head0 = insp.head(0).load();
  int swung = 0;
  for (const ChunkView& c : insp.level_chain(1, nullptr)) {
    auto* e = const_cast<std::atomic<KV>*>(sl.arena().entries(c.ref));
    for (int i = 0; i < sl.arena().dsize(); ++i) {
      const KV kv = e[i].load();
      if (kv_is_empty(kv) || kv_key(kv) == KEY_NEG_INF) continue;
      if (!swing(kv_key(kv))) continue;
      e[i].store(make_kv(kv_key(kv), static_cast<Value>(head0)));
      ++swung;
    }
  }
  EXPECT_GT(swung, 0);
  const ValidationReport rep = sl.validate();
  EXPECT_TRUE(rep.ok) << rep.error;

  // Every 64-chunk refresh costs a descent and an epoch exit.  A scan that
  // terminates takes at most ~34,000 steps here (every pointer swung: each
  // refresh walks back from the head); a livelocked one passes this many
  // in well under a second.
  sched.kill_all_at(200'000);
  Team team(8, 0, 5);
  sched.enter(0);
  try {
    Snapshot s = sl.snapshot();
    EXPECT_EQ(sl.scan_at(team, s, lo, hi, got), ScanAtStatus::kOk);
    sl.release_snapshot(s);
  } catch (const sched::TeamKilled&) {
    return false;
  }
  sched.leave(0);
  return true;
}

TEST(SnapshotScanRefresh, RedescentFarBehindTheWatermarkStillProgresses) {
  // One level-1 entry in the middle of the key space: the first descent
  // for 4001 lands ~1000 bottom chunks short of it.
  Key swung_key = 0;
  Pairs got;
  ASSERT_TRUE(scan_behind_swung_pointers(
      [&](Key k) {
        if (swung_key != 0 || k < 4'000) return false;
        swung_key = k;
        return true;
      },
      4'001, 6'001, got))
      << "scan_at livelocked re-descending through the swung pointer of key "
      << swung_key;
  EXPECT_EQ(got, identity_pairs(4'001, 6'001));
}

TEST(SnapshotScanRefresh, EveryRedescentLandingAtTheHeadStillProgresses) {
  // Every level-1 entry swung: each refresh walks back from the head.
  Pairs got;
  ASSERT_TRUE(scan_behind_swung_pointers([](Key) { return true; },
                                         MIN_USER_KEY, MAX_USER_KEY, got))
      << "scan_at livelocked re-descending through head-swung pointers";
  EXPECT_EQ(got, identity_pairs(1, 8'000));
}

// ---------------------------------------------------------------------------
// A/B determinism: the detached path is the seed path.

struct AbRun {
  std::vector<bool> results;  // per-op return values, in program order
  Pairs contents;
  bool valid = false;
  std::string error;
};

// Two teams churn *disjoint* key spaces under the same seeded deterministic
// schedule (mirrors test_gfsl_deterministic.cpp).  Per-team key spaces make
// every op's result a function of that team's own program order alone, so
// the result vectors and final contents must be identical across the two
// arms even where attaching the manager shifts structural decisions (e.g.
// erase keeps a chunk's max sticky so version chains stay pinned to their
// chunk, which can change split/merge timing and therefore yield counts).
AbRun run_ab(std::uint64_t sched_seed, bool with_snaps) {
  device::DeviceMemory mem;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             sched_seed, 2);
  std::unique_ptr<SnapshotManager> snaps;
  if (with_snaps) snaps = std::make_unique<SnapshotManager>(1u << 12);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, &sched, nullptr, nullptr, nullptr, snaps.get());

  std::vector<std::vector<bool>> per_team(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 5);
      Xoshiro256ss rng(derive_seed(97, static_cast<std::uint64_t>(t)));
      auto& out = per_team[static_cast<std::size_t>(t)];
      sched.enter(t);
      for (int i = 0; i < 200; ++i) {
        const Key k = static_cast<Key>(1 + t * 1'000 + rng.below(64));
        switch (rng.below(3)) {
          case 0:
            out.push_back(sl.insert(team, k, k));
            break;
          case 1:
            out.push_back(sl.erase(team, k));
            break;
          default:
            out.push_back(sl.contains(team, k));
            break;
        }
      }
      sched.leave(t);
    });
  }
  for (auto& th : threads) th.join();

  AbRun r;
  for (const auto& v : per_team) {
    r.results.insert(r.results.end(), v.begin(), v.end());
  }
  r.contents = sl.collect();
  const auto rep = sl.validate(/*strict=*/false);
  r.valid = rep.ok;
  r.error = rep.error;
  return r;
}

TEST(SnapshotABDeterminism, AttachedManagerChangesNoResultOrContents) {
  // The deterministic scheduler replays the same interleaving for both arms
  // (the snapshot sidecar has no yield points), so any behavioral difference
  // introduced by version stamping would surface as a diverging op result or
  // final contents.  Sweep a few schedules.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const AbRun detached = run_ab(seed, /*with_snaps=*/false);
    const AbRun attached = run_ab(seed, /*with_snaps=*/true);
    ASSERT_TRUE(detached.valid) << "seed " << seed << ": " << detached.error;
    ASSERT_TRUE(attached.valid) << "seed " << seed << ": " << attached.error;
    EXPECT_EQ(detached.results, attached.results)
        << "seed " << seed << ": an op returned differently with MVCC armed";
    EXPECT_EQ(detached.contents, attached.contents)
        << "seed " << seed << ": final contents diverged with MVCC armed";
  }
}

TEST(SnapshotABDeterminism, DetachedPathIsReproducible) {
  // Seed-path determinism (same schedule twice, no manager): the baseline
  // the A/B above compares against is itself stable.
  const AbRun a = run_ab(11, /*with_snaps=*/false);
  const AbRun b = run_ab(11, /*with_snaps=*/false);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.contents, b.contents);
}

}  // namespace
}  // namespace gfsl::core
