// Epoch-based chunk reclamation (DESIGN.md §9): generation-stamp ABA
// detection, grace-period enforcement, crashed-team limbo adoption,
// bounded-memory churn, and determinism with/without an EpochManager.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/chunk.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "device/persist.h"
#include "harness/crash_sweep.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using device::EpochManager;
using simt::Team;

// ---- generation stamps (the ABA defence) ----------------------------------

TEST(ReclaimArena, GenerationStampFlipsAcrossLifetimes) {
  ChunkArena a(8, 4);
  const ChunkRef c = a.alloc_locked();
  const std::uint32_t g0 = a.generation(c);
  EXPECT_EQ(g0 & 1u, 0u);  // even: in use

  a.recycle(c);
  EXPECT_EQ(a.generation(c), g0 + 1);  // odd: on the free-list

  const ChunkRef c2 = a.alloc_locked();
  EXPECT_EQ(c2, c);  // LIFO free-list hands the index straight back
  const std::uint32_t g1 = a.generation(c);
  EXPECT_EQ(g1 & 1u, 0u);
  // A reader parked across the recycle+reuse compares its pre-recycle stamp
  // against the current one and must see a mismatch — this inequality IS the
  // seqlock's staleness signal.
  EXPECT_NE(g1, g0);
}

TEST(ReclaimArena, StaleStampVisibleMidReuse) {
  ChunkArena a(8, 2);
  const ChunkRef c = a.alloc_locked();
  const std::uint32_t parked = a.generation(c);  // reader "parks" here
  a.recycle(c);
  // Stale is detectable both while the index sits free (odd stamp) ...
  EXPECT_NE(a.generation(c), parked);
  EXPECT_EQ(a.generation(c) & 1u, 1u);
  // ... and after it has been re-allocated into a new lifetime.
  ASSERT_EQ(a.alloc_locked(), c);
  EXPECT_NE(a.generation(c), parked);
}

TEST(ReclaimArena, AccountingSeparatesInUseFromHighWater) {
  ChunkArena a(8, 4);
  const ChunkRef c0 = a.alloc_locked();
  const ChunkRef c1 = a.alloc_locked();
  (void)c0;
  EXPECT_EQ(a.allocated(), 2u);
  EXPECT_EQ(a.high_water(), 2u);

  a.recycle(c1);
  EXPECT_EQ(a.allocated(), 1u);   // in-use shrinks ...
  EXPECT_EQ(a.high_water(), 2u);  // ... the sweep bound does not
  EXPECT_EQ(a.free_count(), 1u);
  // Headroom counts both the bump tail and the recycled index.
  EXPECT_TRUE(a.can_alloc(3));
  EXPECT_FALSE(a.can_alloc(4));
}

// ---- epoch grace periods ---------------------------------------------------

TEST(ReclaimEpoch, PinnedReaderBlocksDrainUntilUnpin) {
  EpochManager ep;
  ep.pin(1);         // reader enters at epoch 1
  ep.retire(0, 7);   // writer retires chunk 7 (stamped epoch 1)

  std::vector<ChunkRef> out;
  EXPECT_EQ(ep.drain_safe(0, &out), 0u);  // no grace period yet
  EXPECT_TRUE(ep.try_advance());          // 1 -> 2: reader has caught up
  EXPECT_FALSE(ep.try_advance());         // parked at 1, the epoch wedges
  EXPECT_EQ(ep.drain_safe(0, &out), 0u);  // still protected by the pin

  ep.unpin(1);
  EXPECT_TRUE(ep.try_advance());          // 2 -> 3
  ASSERT_EQ(ep.drain_safe(0, &out), 1u);  // two epochs + no retire-era pin
  EXPECT_EQ(out[0], 7u);
  EXPECT_EQ(ep.limbo_depth(0), 0u);
}

TEST(ReclaimEpoch, RequeueRestartsTheGracePeriod) {
  EpochManager ep;
  ep.retire(0, 3);
  EXPECT_TRUE(ep.try_advance());
  EXPECT_TRUE(ep.try_advance());
  std::vector<ChunkRef> out;
  ASSERT_EQ(ep.drain_safe(0, &out), 1u);

  ep.requeue(0, 3);  // a stale down pointer was found: age it again
  out.clear();
  EXPECT_EQ(ep.drain_safe(0, &out), 0u);  // re-stamped at the current epoch
  EXPECT_TRUE(ep.try_advance());
  EXPECT_TRUE(ep.try_advance());
  EXPECT_EQ(ep.drain_safe(0, &out), 1u);
}

TEST(ReclaimEpoch, OutOfRangeIdsNeverAliasLiveTeamSlots) {
  // Ids outside [0, kMaxSlots) map to one shared overflow slot instead of
  // wrapping modulo onto a live team's slot: a stray force_quiesce/unpin on
  // such an id must not void a real team's grace period, and a stray adopt
  // must not splice a real team's limbo.
  EpochManager ep;
  ep.pin(3);
  ep.retire(3, 21);
  EXPECT_TRUE(ep.try_advance());  // slot 3 pinned at 1; 1 -> 2 still legal

  ep.force_quiesce(3 + EpochManager::kMaxSlots);  // would alias slot 3 if
  ep.unpin(-1);                                   // slot_of wrapped
  EXPECT_TRUE(ep.pinned(3));
  EXPECT_FALSE(ep.try_advance());  // the lagging pin still wedges the epoch

  ep.adopt(3 + EpochManager::kMaxSlots, 9);
  EXPECT_EQ(ep.limbo_depth(3), 1u);  // limbo stayed with its owner
  EXPECT_EQ(ep.limbo_depth(9), 0u);

  // Overflow ids are still fully usable (shared among themselves): a pin is
  // honored by the epoch like any in-range team's.
  ep.unpin(3);
  ep.pin(EpochManager::kMaxSlots + 7);
  EXPECT_TRUE(ep.try_advance());   // overflow pin caught up at pin time
  EXPECT_FALSE(ep.try_advance());  // ... then lags and wedges
  ep.force_quiesce(EpochManager::kMaxSlots + 7);
  EXPECT_TRUE(ep.try_advance());
}

TEST(ReclaimEpoch, MedicQuiescesAndAdoptsCrashedTeam) {
  EpochManager ep;
  ep.pin(2);
  ep.retire(2, 11);
  ep.retire(2, 12);
  EXPECT_TRUE(ep.try_advance());
  EXPECT_FALSE(ep.try_advance());  // the "crashed" pin wedges everyone

  ep.force_quiesce(2);
  ep.adopt(2, 5);
  EXPECT_EQ(ep.limbo_depth(2), 0u);
  EXPECT_EQ(ep.limbo_depth(5), 2u);
  EXPECT_TRUE(ep.try_advance());   // unwedged

  std::vector<ChunkRef> out;
  ASSERT_EQ(ep.drain_safe(5, &out), 2u);  // stamps survived the adoption
  EXPECT_EQ(ep.limbo_total(), 0u);
}

// ---- structure-level reclamation -------------------------------------------

void churn_cycle(Gfsl& sl, Team& team, Key lo, Key hi) {
  for (Key k = lo; k <= hi; ++k) sl.insert(team, k, k);
  for (Key k = lo; k <= hi; ++k) sl.erase(team, k);
}

TEST(ReclaimGfsl, ParkedPinPreventsReuseThenLimboDrains) {
  device::DeviceMemory mem;
  EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);
  Team team(8, 0, 1);

  // Scripted interleaving, host-driven: a reader pins, then a writer retires
  // a full structure's worth of chunks "under" it.
  for (Key k = 1; k <= 600; ++k) sl.insert(team, k, k);
  ep.pin(99);  // the parked reader
  for (Key k = 1; k <= 600; ++k) sl.erase(team, k);

  EXPECT_GT(ep.limbo_total(), 0u);          // zombies retired ...
  EXPECT_EQ(sl.chunks_reclaimed(), 0u);     // ... but nothing recycled:
  churn_cycle(sl, team, 1, 600);            // even more churn cannot drain
  EXPECT_EQ(sl.chunks_reclaimed(), 0u);     // past the parked pin

  ep.unpin(99);
  churn_cycle(sl, team, 1, 600);  // epoch advances again; limbo drains
  EXPECT_GT(sl.chunks_reclaimed(), 0u);

  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ReclaimGfsl, ChurnSoakStaysWithinBoundedMemory) {
  // 50/50 insert/erase on a small key range in a small pool: without
  // reclamation every merge leaks a zombie chunk and this exhausts the pool
  // long before the end; with it the in-use count stays near the live
  // working set forever.
  device::DeviceMemory mem;
  EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 4096;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsEach = 12'000;  // 48k total > 10x pool capacity
  std::atomic<int> oom{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 42);
      Xoshiro256ss rng(derive_seed(7, static_cast<std::uint64_t>(t)));
      try {
        for (std::uint64_t i = 0; i < kOpsEach; ++i) {
          const Key k = 1 + static_cast<Key>(rng.below(512));
          if (rng.below(2) == 0) {
            sl.insert(team, k, k);
          } else {
            sl.erase(team, k);
          }
        }
      } catch (const std::bad_alloc&) {
        oom.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(oom.load(), 0) << "pool exhausted mid-churn";
  EXPECT_GT(sl.chunks_reclaimed(), 0u);
  // In-use = live + zombies-in-flight + limbo: far below the pool size.
  EXPECT_LT(sl.chunks_allocated(), 2048u);
  const auto rep = sl.validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.limbo_chunks + rep.free_chunks +
                rep.live_chunks + rep.zombie_chunks,
            static_cast<std::uint64_t>(sl.arena().high_water()))
      << "every index the bump pointer handed out must be classified";
}

TEST(ReclaimGfsl, EraseCompletesOnMergeSplitOom) {
  // No EpochManager: nothing is ever recycled, so once the bump pointer hits
  // the pool end every merge-path receiver split fails.  Erase must still
  // complete (merge-free fallback) instead of throwing bad_alloc *after*
  // the key was already removed from the upper levels — a failed erase used
  // to leave the structure partially mutated while reporting total failure.
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 48;  // tiny: inserts exhaust it
  Gfsl sl(cfg, &mem, nullptr, nullptr, /*epochs=*/nullptr);
  Team team(8, 0, 11);

  Key last_inserted = 0;
  try {
    for (Key k = 1; k <= 100000; ++k) {
      sl.insert(team, k, k);
      last_inserted = k;
    }
  } catch (const std::bad_alloc&) {
    // expected: the pool is now exhausted
  }
  ASSERT_GT(last_inserted, 0);

  // Every erase below runs against a full pool; merges that need a receiver
  // split hit OOM and must fall back, never throw, never lose the removal.
  for (Key k = 1; k <= last_inserted; ++k) {
    EXPECT_NO_THROW(EXPECT_TRUE(sl.erase(team, k))) << "key " << k;
  }
  for (Key k = 1; k <= last_inserted; ++k) {
    EXPECT_FALSE(sl.contains(team, k)) << "key " << k;
  }
  // Underfull chunks are legal; every other invariant must hold.
  const auto rep = sl.validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.bottom_keys, 0u);
}

TEST(ReclaimGfsl, ChurnWithLockFreeReadersStaysConsistent) {
  // Writers churn a small key range hard enough that chunks are retired,
  // recycled, and reused while lock-free readers (contains + scan) traverse.
  // Readers cross retire/reuse boundaries constantly: the epoch pins plus
  // the transitive requeue of zombie chains (reclaim_pass) and the
  // acquisition-time generation checks must keep a reader from ever walking
  // into a reused chunk.  Every insert stores v == k, so a scan that strayed
  // into a chunk reused as an upper level would return down-pointer values
  // that differ from their keys — that mismatch is the detector.  (Sortedness
  // is NOT asserted: in-chunk shift duplicates are legal seed semantics.)
  device::DeviceMemory mem;
  EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 2048;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 23);
      Xoshiro256ss rng(derive_seed(13, static_cast<std::uint64_t>(t)));
      for (std::uint64_t i = 0; i < 8000; ++i) {
        const Key k = 1 + static_cast<Key>(rng.below(256));
        if (rng.below(2) == 0) {
          sl.insert(team, k, k);
        } else {
          sl.erase(team, k);
        }
      }
      stop.store(true, std::memory_order_release);
    });
  }
  for (int t = 2; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 23);
      Xoshiro256ss rng(derive_seed(29, static_cast<std::uint64_t>(t)));
      std::vector<std::pair<Key, Value>> hits;
      while (!stop.load(std::memory_order_acquire)) {
        sl.contains(team, 1 + static_cast<Key>(rng.below(256)));
        hits.clear();
        sl.scan(team, 1, 256, hits);
        for (const auto& [hk, hv] : hits) {
          if (hv != static_cast<Value>(hk)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(violations.load(), 0) << "a scan observed unsorted/duplicate keys";
  EXPECT_GT(sl.chunks_reclaimed(), 0u);  // reuse actually happened
  const auto rep = sl.validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ReclaimGfsl, CompactReturnsChunksThroughFreeList) {
  device::DeviceMemory mem;
  EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);
  Team team(8, 0, 3);

  for (Key k = 1; k <= 300; ++k) sl.insert(team, k, k);
  for (Key k = 1; k <= 300; k += 2) sl.erase(team, k);
  const std::uint32_t before = sl.chunks_allocated();
  const std::uint32_t hw_before = sl.arena().high_water();

  sl.compact();
  // Densely rebuilt: fewer in-use chunks, all through the free-list — the
  // bump high-water mark must not grow.
  EXPECT_LT(sl.chunks_allocated(), before);
  EXPECT_LE(sl.arena().high_water(), hw_before);
  EXPECT_EQ(sl.epochs()->limbo_total(), 0u);

  auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.bottom_keys, 150u);

  // Idempotent, and the structure keeps answering queries.
  sl.compact();
  rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(sl.contains(team, 2));
  EXPECT_FALSE(sl.contains(team, 1));
}

// ---- generation protocol across process crashes ----------------------------

TEST(ReclaimPersist, TornOddGenChunkClassifiedFreeNeverLive) {
  // The recycle protocol is gen-flip-first: the generation goes odd *before*
  // the free-list push, so a process crash between the two persists chunks
  // that are odd-generation yet on no list.  Recovery must classify every
  // such chunk as free — odd is never reachable — and must never serve it
  // as live data.  Simulate the torn state by wiping the persisted free-list
  // control words (head + count) out from under a churned image.
  using device::PersistRegion;
  const std::string path = testing::TempDir() + "gfsl_reclaim_torn.region";
  std::set<Key> expected;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 4096;
  {
    harness::GfslStack stack(cfg, {.persist_path = path, .epochs = true});
    Gfsl& sl = stack.gfsl();
    Team team(8, 0, 1);
    for (int round = 0; round < 3; ++round) churn_cycle(sl, team, 1, 600);
    for (Key k = 1; k <= 100; ++k) sl.insert(team, k, k);
    ASSERT_GT(sl.chunks_reclaimed(), 0u) << "churn produced no recycles";
    ASSERT_GT(sl.arena().free_count(), 0u);
    for (const auto& [k, v] : sl.collect()) expected.insert(k);
    // No mark_clean(): the image is dirty, as after SIGKILL.
  }
  std::uint32_t odd_before = 0;
  {
    // Tear the free-list: same control layout the arena maps (chunk.cpp).
    struct Ctl {
      std::atomic<std::uint32_t> next;
      std::atomic<std::uint32_t> free_count;
      std::atomic<std::uint64_t> free_head;
    };
    PersistRegion region(path, PersistRegion::Mode::kAttach);
    auto* ctl = static_cast<Ctl*>(region.arena_control());
    const auto* gens =
        static_cast<const std::atomic<std::uint32_t>*>(region.generations());
    const std::uint32_t hw = ctl->next.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < hw; ++i) {
      if ((gens[i].load(std::memory_order_relaxed) & 1u) != 0) ++odd_before;
    }
    ASSERT_GT(odd_before, 0u);
    ctl->free_count.store(0, std::memory_order_relaxed);
    ctl->free_head.store((std::uint64_t{0} << 32) | NULL_CHUNK,
                         std::memory_order_relaxed);
  }
  {
    harness::GfslStack stack(
        cfg, {.persist_path = path,
              .persist_mode = PersistRegion::Mode::kAttach});
    Gfsl& sl = stack.gfsl();
    const auto rep = sl.recover();
    ASSERT_TRUE(rep.ok) << rep.error;
    // Every stranded odd-gen chunk is back on the free-list ...
    EXPECT_GE(rep.chunks_freed, odd_before);
    EXPECT_GE(sl.arena().free_count(), odd_before);
    // ... and none of them leaked into the live structure: the contents are
    // exactly what the dirty image held, and post-recovery the free-list
    // population and the odd-generation population coincide.
    std::set<Key> recovered;
    for (const auto& [k, v] : sl.collect()) recovered.insert(k);
    EXPECT_EQ(recovered, expected);
    std::uint32_t odd_after = 0;
    for (std::uint32_t i = 0; i < sl.arena().high_water(); ++i) {
      if ((sl.arena().generation(i) & 1u) != 0) ++odd_after;
    }
    EXPECT_EQ(odd_after, sl.arena().free_count());
  }
}

// ---- crash composition -----------------------------------------------------

TEST(ReclaimCrash, SweepWithEpochsStaysConsistent) {
  harness::CrashSweepConfig cfg;
  cfg.workers = 3;
  cfg.team_size = 8;
  cfg.ops = 96;
  cfg.key_range = 48;
  cfg.stride = 5;
  cfg.with_epochs = true;
  const auto res = harness::run_crash_sweep(cfg);
  EXPECT_TRUE(res.ok) << res.error << " (kill step " << res.failed_at_step
                      << ")";
  EXPECT_GT(res.kills_landed, 0u);
}

// ---- determinism -----------------------------------------------------------

struct DetRun {
  std::vector<std::pair<Key, Value>> contents;
  std::uint64_t instructions = 0;
  std::uint64_t steps = 0;
};

DetRun deterministic_run(bool with_epochs, std::uint64_t seed) {
  device::DeviceMemory mem;
  EpochManager ep;
  constexpr int kWorkers = 3;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, seed,
                             kWorkers);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 14;
  Gfsl sl(cfg, &mem, &sched, nullptr, with_epochs ? &ep : nullptr);

  DetRun out;
  std::atomic<std::uint64_t> instructions{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Team team(8, w, 5);
      Xoshiro256ss rng(derive_seed(seed, static_cast<std::uint64_t>(w)));
      sched.enter(w);
      for (int i = 0; i < 160; ++i) {
        const Key k = 1 + static_cast<Key>(rng.below(64));
        switch (rng.below(3)) {
          case 0: sl.insert(team, k, k); break;
          case 1: sl.erase(team, k); break;
          default: sl.contains(team, k); break;
        }
      }
      sched.leave(w);
      instructions.fetch_add(team.counters().instructions,
                             std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  out.contents = sl.collect();
  out.instructions = instructions.load(std::memory_order_relaxed);
  out.steps = sched.global_steps();
  return out;
}

TEST(ReclaimDeterminism, DetachedRunsAreBitIdentical) {
  const DetRun a = deterministic_run(/*with_epochs=*/false, 17);
  const DetRun b = deterministic_run(/*with_epochs=*/false, 17);
  EXPECT_EQ(a.contents, b.contents);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(ReclaimDeterminism, AttachedRunsAreBitIdentical) {
  const DetRun a = deterministic_run(/*with_epochs=*/true, 17);
  const DetRun b = deterministic_run(/*with_epochs=*/true, 17);
  EXPECT_EQ(a.contents, b.contents);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.steps, b.steps);
}

// ---- batched dispatch vs reclamation (DESIGN.md SS10) ----------------------

TEST(ReclaimGfsl, BatchedChurnSoakStaysWithinBoundedMemory) {
  // The batched engine pins once per shard instead of once per op.  A pin
  // held across a whole shard must still cycle fast enough for the epoch to
  // advance and limbo to drain: 50/50 churn through run_gfsl_batched in a
  // small pool would exhaust it within a few batches if per-shard pins
  // stalled reclamation.
  device::DeviceMemory mem;
  EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 4096;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);

  std::vector<Op> ops;
  Xoshiro256ss rng(7);
  for (int i = 0; i < 48000; ++i) {  // > 10x pool capacity worth of churn
    const Key k = 1 + static_cast<Key>(rng.below(512));
    ops.push_back(Op{rng.below(2) == 0 ? OpKind::Insert : OpKind::Delete, k,
                     k, 0});
  }

  harness::RunConfig rc;
  rc.num_workers = 4;
  rc.seed = 42;
  harness::BatchRunOptions bo;
  bo.batch_size = 2048;
  BatchResult br;
  const auto rr = harness::run_gfsl_batched(sl, ops, rc, mem, bo, &br);

  EXPECT_FALSE(rr.out_of_memory) << "pool exhausted mid-churn";
  EXPECT_FALSE(br.out_of_memory);
  EXPECT_GT(br.stats.epoch_pins, 0u);
  EXPECT_GT(sl.chunks_reclaimed(), 0u);
  EXPECT_LT(sl.chunks_allocated(), 2048u);
  const auto rep = sl.validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.limbo_chunks + rep.free_chunks +
                rep.live_chunks + rep.zombie_chunks,
            static_cast<std::uint64_t>(sl.arena().high_water()))
      << "every index the bump pointer handed out must be classified";
}

TEST(ReclaimGfsl, PinRefreshInsideGiantShardUnblocksReclamation) {
  // Force the degenerate plan: one team, ONE shard erasing an entire
  // prefilled structure.  The sorted left-to-right erase sweep merges
  // chunk after chunk, retiring ~130 zombies into the team's limbo — far
  // past kReclaimBatch — while the team holds its per-shard pin.  Without
  // the kBatchPinRefresh mid-shard re-pin the epoch could never advance
  // past that pin, drain_safe would find nothing grace-expired, and the
  // run would end with zero chunks recycled.  The refresh cycles the pin
  // every 64 ops, so reclamation must have happened *during* the shard.
  device::DeviceMemory mem;
  EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);
  Team team(8, 0, 5);

  std::vector<std::pair<Key, Value>> prefill;
  for (Key k = 1; k <= 800; ++k) prefill.emplace_back(k, k);
  sl.bulk_load(prefill);

  std::vector<Op> ops;
  for (Key k = 1; k <= 800; ++k) ops.push_back(Op{OpKind::Delete, k, 0, 0});

  // target_shard_ops >= n: plan_shards emits a single shard.
  const BatchResult br = run_batch(sl, team, ops, ops.size());
  ASSERT_EQ(br.stats.shards, 1u);
  EXPECT_FALSE(br.out_of_memory);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(br.status(i), BatchOpStatus::kTrue) << "erase " << i;
  }
  EXPECT_GT(br.stats.epoch_pins, 1u) << "no mid-shard pin refresh happened";
  EXPECT_GT(sl.chunks_reclaimed(), 0u)
      << "reclamation stalled behind the per-shard pin";
  const auto rep = sl.validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
}

}  // namespace
}  // namespace gfsl::core
