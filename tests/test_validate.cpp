// Gfsl::validate() failure classes: each test forges one kind of damage into
// a small, otherwise valid structure and asserts validate() reports exactly
// that class as its first error.  The crash, corrupt and process-crash
// sweeps judge a run by these verdicts, so none may go silent when the walk
// or its bookkeeping changes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gfsl.h"
#include "core/inspect.h"
#include "core/snapshot.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using simt::Team;

constexpr std::uint32_t kPool = 1u << 12;

// Team size 8: bulk_load packs 4 keys per chunk, so keys 100, 100+step, ...
// span several chunks on levels 0-2.  Keys start at 100 so that small keys
// stay free for forgeries below the first chunk.
struct Fixture {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  std::unique_ptr<SnapshotManager> snaps;
  std::unique_ptr<Gfsl> sl;
  Team team{8, 0, 5};

  explicit Fixture(Key step = 2, bool versioned = false) {
    if (versioned) snaps = std::make_unique<SnapshotManager>(kPool);
    GfslConfig cfg;
    cfg.team_size = 8;
    cfg.pool_chunks = kPool;
    sl = std::make_unique<Gfsl>(cfg, &mem, nullptr, nullptr, &epochs, nullptr,
                                snaps.get());
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 100; k < 100 + 200 * step; k += step) pairs.emplace_back(k, k);
    sl->bulk_load(pairs);
    const auto rep = sl->validate(true);
    EXPECT_TRUE(rep.ok) << "fixture invalid before forging: " << rep.error;
  }

  std::vector<ChunkView> chain(int level) const {
    return GfslInspector(*sl).level_chain(level, nullptr);
  }
  std::atomic<KV>& slot(ChunkRef ref, int i) const {
    return const_cast<std::atomic<KV>*>(sl->arena().entries(ref))[i];
  }
  std::atomic<KV>& next(ChunkRef ref) const {
    return slot(ref, sl->arena().next_slot());
  }
  std::atomic<KV>& lock(ChunkRef ref) const {
    return slot(ref, sl->arena().lock_slot());
  }
  ChunkArena& arena() const { return const_cast<ChunkArena&>(sl->arena()); }

  // Erase a run of keys so merges leave zombies, and lookups over the run
  // unlink (and retire) them.
  void churn_zombies_into_limbo() {
    for (Key k = 140; k < 260; k += 2) ASSERT_TRUE(sl->erase(team, k));
    for (Key k = 100; k < 300; ++k) sl->contains(team, k);
    ASSERT_GT(epochs.limbo_total(), 0u) << "no retired zombie to work with";
  }
};

void expect_error(const Gfsl& sl, bool strict, const std::string& needle) {
  const ValidationReport rep = sl.validate(strict);
  EXPECT_FALSE(rep.ok) << "forged damage went unreported (" << needle << ")";
  EXPECT_NE(rep.error.find(needle), std::string::npos)
      << "expected \"" << needle << "\", got \"" << rep.error << "\"";
}

TEST(ValidateForged, CycleInLevel) {
  Fixture f;
  const auto c = f.chain(1);
  ASSERT_GE(c.size(), 3u);
  f.next(c[2].ref).store(make_next_entry(c[2].max, c[1].ref));
  expect_error(*f.sl, false, "cycle in level 1");
}

TEST(ValidateForged, LinkOutsideThePool) {
  Fixture f;
  const auto c = f.chain(0);
  f.next(c[1].ref).store(make_next_entry(c[1].max, kPool + 5));
  expect_error(*f.sl, false, "level 0 links to a chunk outside the pool");
}

TEST(ValidateForged, LevelWithoutChunks) {
  Fixture f;
  GfslInspector(*f.sl).head(2).store(NULL_CHUNK);
  expect_error(*f.sl, false, "level 2 has no chunks");
}

TEST(ValidateForged, LockedAtQuiescence) {
  Fixture f;
  const ChunkRef r = f.chain(0)[3].ref;
  f.lock(r).store(make_lock_entry(kLocked));
  expect_error(*f.sl, false,
               "chunk " + std::to_string(r) + " left locked at quiescence");
}

TEST(ValidateForged, HoleBeforeData) {
  Fixture f;
  f.slot(f.chain(0)[3].ref, 1).store(KV_EMPTY);
  expect_error(*f.sl, false, "non-empty entry after an empty one");
}

TEST(ValidateForged, UnsortedChunk) {
  Fixture f;
  const ChunkRef r = f.chain(0)[3].ref;
  const KV a = f.slot(r, 1).load();
  f.slot(r, 1).store(f.slot(r, 2).load());
  f.slot(r, 2).store(a);
  expect_error(*f.sl, false, "data not strictly sorted");
}

TEST(ValidateForged, LastChunkMaxNotInf) {
  Fixture f;
  const auto c = f.chain(0);
  const ChunkView& last = c.back();
  f.next(last.ref).store(
      make_next_entry(kv_key(last.data.back()), NULL_CHUNK));
  expect_error(*f.sl, false, "last chunk max != inf");
}

TEST(ValidateForged, EmptyNonLastChunk) {
  Fixture f;
  const ChunkRef r = f.chain(0)[3].ref;
  for (int i = 0; i < f.sl->arena().dsize(); ++i) f.slot(r, i).store(KV_EMPTY);
  expect_error(*f.sl, false, "empty non-last chunk");
}

TEST(ValidateForged, MaxFieldAboveLargestKey) {
  Fixture f;
  const ChunkView c = f.chain(0)[3];
  f.next(c.ref).store(make_next_entry(c.max + 1, c.next));
  expect_error(*f.sl, false, "max field != largest key");
}

TEST(ValidateForged, DuplicateKeyAcrossChunksOverlaps) {
  // A key repeated in the next chunk is the overlap class: the ordering
  // checks reject every repeat before the duplicate check could name it.
  Fixture f;
  const auto c = f.chain(0);
  const KV first = f.slot(c[3].ref, 0).load();
  f.slot(c[3].ref, 0)
      .store(make_kv(kv_key(c[2].data.back()), kv_value(first)));
  expect_error(*f.sl, false, "overlaps previous chunk's range");
}

TEST(ValidateForged, LostNegInfKey) {
  Fixture f;
  const ChunkRef head = f.chain(0)[0].ref;
  f.slot(head, 0).store(make_kv(5, 0));
  f.next(head).store(make_next_entry(5, f.chain(0)[0].next));
  expect_error(*f.sl, false, "level 0 lost its -inf key");
}

TEST(ValidateForged, DownPointerToAnotherLevel) {
  Fixture f;
  const ChunkRef r = f.chain(1)[2].ref;
  const KV e = f.slot(r, 1).load();
  f.slot(r, 1).store(make_kv(kv_key(e), f.chain(1)[3].ref));
  expect_error(*f.sl, false,
               "level 1 key " + std::to_string(kv_key(e)) +
                   ": enclosing chunk below not reachable from its down "
                   "pointer");
}

TEST(ValidateForged, UpperKeyMissingBelowUnderStrict) {
  Fixture f;  // step 2: key + 1 exists nowhere
  const ChunkRef r = f.chain(1)[2].ref;
  const KV e = f.slot(r, 1).load();
  f.slot(r, 1).store(make_kv(kv_key(e) + 1, kv_value(e)));
  EXPECT_TRUE(f.sl->validate(false).ok) << "stale upper keys are legal";
  expect_error(*f.sl, true,
               "level 1 key " + std::to_string(kv_key(e) + 1) +
                   " missing from level below (strict)");
}

TEST(ValidateForged, FreeButReachable) {
  Fixture f;
  const ChunkRef r = f.chain(0)[3].ref;
  f.arena().recycle(r);
  expect_error(*f.sl, false,
               "chunk " + std::to_string(r) + ": free but reachable");
}

TEST(ValidateForged, FreeButInLimbo) {
  Fixture f;
  f.churn_zombies_into_limbo();
  ASSERT_TRUE(f.sl->validate(true).ok);
  const ChunkRef z = f.epochs.limbo_snapshot().front();
  f.arena().recycle(z);
  expect_error(*f.sl, false,
               "chunk " + std::to_string(z) + ": free but in limbo");
}

TEST(ValidateForged, ZombieReachableAndInLimbo) {
  Fixture f;
  const ChunkRef r = f.chain(0)[3].ref;
  f.lock(r).store(make_lock_entry(kZombie));
  f.epochs.retire(0, r);
  expect_error(*f.sl, false,
               "chunk " + std::to_string(r) +
                   ": zombie both reachable and in limbo");
}

TEST(ValidateForged, LeakedZombieUnderStrict) {
  Fixture f;
  f.churn_zombies_into_limbo();
  std::vector<ChunkRef> drained;
  f.epochs.drain_all(&drained);
  EXPECT_TRUE(f.sl->validate(false).ok) << "leaks are legal after kills";
  expect_error(*f.sl, true,
               "chunk " + std::to_string(drained.front()) +
                   ": zombie neither reachable nor in limbo (leak)");
}

// With versioning attached, a live version record asserts its key is
// present with its value.  Keys step by 4 so 102 can be inserted (stamping
// a live record) and then forged to 101 or to another value in place.
struct VersionedFixture : Fixture {
  VersionedFixture() : Fixture(4, true) {
    EXPECT_TRUE(sl->insert(team, 102, 7));
    const auto rep = sl->validate(true);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
  std::atomic<KV>& slot_of(Key k) const {
    for (const ChunkView& c : chain(0)) {
      for (int i = 0; i < sl->arena().dsize(); ++i) {
        if (kv_key(slot(c.ref, i).load()) == k) return slot(c.ref, i);
      }
    }
    ADD_FAILURE() << "key " << k << " not found";
    return slot(chain(0)[0].ref, 0);
  }
};

TEST(ValidateForged, LiveRecordForAbsentKey) {
  VersionedFixture f;
  f.slot_of(102).store(make_kv(101, 7));
  expect_error(*f.sl, false, ": live version record for absent key 102");
}

TEST(ValidateForged, LiveRecordValueDisagrees) {
  VersionedFixture f;
  f.slot_of(102).store(make_kv(102, 8));
  expect_error(*f.sl, false,
               ": key 102 value 8 disagrees with its live version record 7");
}

}  // namespace
}  // namespace gfsl::core
