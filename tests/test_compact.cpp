// Tests for the between-kernel compaction extension (§4.1 future work) and
// bulk_load's input contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
#include "core/inspect.h"
#include "device/device_memory.h"
#include "device/epoch.h"

namespace gfsl::core {
namespace {

using simt::Team;

struct Fixture {
  Fixture() : team(32, 0, 1) {
    GfslConfig cfg;
    cfg.team_size = 32;
    cfg.pool_chunks = 1u << 15;
    sl = std::make_unique<Gfsl>(cfg, &mem);
  }
  device::DeviceMemory mem;
  Team team;
  std::unique_ptr<Gfsl> sl;
};

TEST(Compact, PreservesContents) {
  Fixture f;
  std::set<Key> ref;
  Xoshiro256ss rng(1);
  for (int i = 0; i < 4'000; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(2'000));
    if (rng.below(3) != 0) {
      if (f.sl->insert(f.team, k, k * 7)) ref.insert(k);
    } else {
      if (f.sl->erase(f.team, k)) ref.erase(k);
    }
  }
  const auto before = f.sl->collect();
  f.sl->compact();
  const auto after = f.sl->collect();
  EXPECT_EQ(before, after);
  EXPECT_EQ(after.size(), ref.size());
  const auto rep = f.sl->validate();
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(Compact, ReclaimsZombiesAndStaleChunks) {
  Fixture f;
  for (Key k = 1; k <= 3'000; ++k) ASSERT_TRUE(f.sl->insert(f.team, k, 0));
  for (Key k = 1; k <= 2'700; ++k) ASSERT_TRUE(f.sl->erase(f.team, k));
  const auto before = f.sl->chunks_allocated();
  const auto rep_before = f.sl->validate();
  ASSERT_GT(rep_before.zombie_chunks, 0u);

  f.sl->compact();

  EXPECT_LT(f.sl->chunks_allocated(), before);
  const auto rep = f.sl->validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.zombie_chunks, 0u);
  EXPECT_EQ(f.sl->size(), 300u);
}

TEST(Compact, StructureRemainsFullyOperational) {
  Fixture f;
  for (Key k = 1; k <= 1'000; ++k) f.sl->insert(f.team, k, k);
  f.sl->compact();
  for (Key k = 1; k <= 1'000; ++k) {
    ASSERT_EQ(f.sl->find(f.team, k).value_or(0), k);
  }
  EXPECT_TRUE(f.sl->insert(f.team, 5'000, 1));
  EXPECT_TRUE(f.sl->erase(f.team, 500));
  EXPECT_FALSE(f.sl->contains(f.team, 500));
  EXPECT_TRUE(f.sl->validate().ok);
}

TEST(Compact, EmptyStructure) {
  Fixture f;
  f.sl->compact();
  EXPECT_EQ(f.sl->size(), 0u);
  EXPECT_TRUE(f.sl->validate().ok);
  EXPECT_TRUE(f.sl->insert(f.team, 1, 1));
  EXPECT_TRUE(f.sl->contains(f.team, 1));
}

TEST(Compact, RepeatedCompactionIsIdempotent) {
  Fixture f;
  for (Key k = 10; k <= 5'000; k += 10) f.sl->insert(f.team, k, k);
  f.sl->compact();
  const auto once = f.sl->chunks_allocated();
  const auto contents = f.sl->collect();
  f.sl->compact();
  EXPECT_EQ(f.sl->chunks_allocated(), once);
  EXPECT_EQ(f.sl->collect(), contents);
  EXPECT_TRUE(f.sl->validate().ok);
}

TEST(Compact, RebuildsIdealHeightShape) {
  Fixture f;
  for (Key k = 1; k <= 8'000; ++k) f.sl->insert(f.team, k, 0);
  f.sl->compact();
  // Ideal p_chunk=1 shape: fan-out ~ chunk fill, so height ~ log_fill(n).
  const int h = f.sl->current_height();
  EXPECT_GE(h, 2);
  EXPECT_LE(h, 5);
  EXPECT_TRUE(f.sl->validate().ok);
}

// bulk_load checks its input inside the level-0 layout: every key a user key
// strictly above its predecessor.  A violation throws and leaves the
// structure empty, valid and usable — not the malformed layout (unsorted
// chunks, a chunk overlapping its neighbour, a silently dropped pair) that
// an unchecked layout builds.

std::vector<std::pair<Key, Value>> ascending(Key first, Key last) {
  std::vector<std::pair<Key, Value>> p;
  for (Key k = first; k <= last; ++k) p.emplace_back(k, k * 3);
  return p;
}

// The most slices rebuild() would cut any level into on this host.
int most_slices(const Gfsl& sl) {
  return sl.layout_slices(std::uint64_t{1} << 40);
}

std::uint64_t layout_fill(int team_size) {
  return static_cast<std::uint64_t>((team_size - 2) * 3 / 4);
}

std::uint64_t level0_chunks(int team_size, std::size_t pairs) {
  const std::uint64_t fill = layout_fill(team_size);
  return (pairs + fill - 1) / fill;
}

// `bad` is rejected naming pair `first_bad`, the lowest bad index, however
// the level is sliced; the structure is left empty and usable.
void expect_rejected(const std::vector<std::pair<Key, Value>>& bad,
                     std::size_t first_bad) {
  Fixture f;
  f.sl->bulk_load(ascending(1, 2'000));  // contents the rejection must drop
  try {
    f.sl->bulk_load(bad);
    ADD_FAILURE() << "bulk_load accepted a bad input";
  } catch (const std::invalid_argument& e) {
    const std::string want = "key " + std::to_string(bad[first_bad].first) +
                             " of pair " + std::to_string(first_bad) + " ";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what() << " does not name " << want;
  }
  EXPECT_EQ(f.sl->size(), 0u);
  EXPECT_EQ(f.sl->chunks_in_level(0), 0);
  // Nothing of the partial layout survives: one head chunk per level.
  EXPECT_EQ(f.sl->chunks_allocated(),
            static_cast<std::uint32_t>(f.sl->max_levels()));
  const auto rep = f.sl->validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(f.sl->insert(f.team, 5, 50));
  EXPECT_TRUE(f.sl->contains(f.team, 5));
  f.sl->bulk_load(ascending(1, 500));
  EXPECT_EQ(f.sl->collect(), ascending(1, 500));
}

TEST(BulkLoad, RejectsUnsortedPairs) {
  auto bad = ascending(1, 500);
  std::swap(bad[300], bad[301]);
  expect_rejected(bad, 301);
}

TEST(BulkLoad, RejectsDuplicateKeys) {
  auto bad = ascending(1, 500);
  bad[301].first = bad[300].first;
  expect_rejected(bad, 301);
}

TEST(BulkLoad, RejectsKeyZero) {
  auto bad = ascending(1, 500);
  bad.insert(bad.begin(), {KEY_NEG_INF, 1});
  expect_rejected(bad, 0);
}

TEST(BulkLoad, RejectsKeyInf) {
  auto bad = ascending(1, 500);
  bad.emplace_back(KEY_INF, 2);
  expect_rejected(bad, 500);
}

// A level-0 layout of 300K pairs at team 32 is 3.5 MB: one slice per MiB,
// up to four on a four-CPU host.  Each slice checks its own pairs; the
// lowest bad index is named whichever slice finishes first.

constexpr std::size_t kSliced = 300'000;

// Whether this host lays a kSliced-pair level 0 out in several slices;
// the rejection rule must hold either way.
void note_slices() {
  Fixture f;
  const int slices = f.sl->layout_slices(level0_chunks(32, kSliced));
  if (most_slices(*f.sl) >= 2) {
    EXPECT_GE(slices, 2);
  } else {
    std::printf("one usable CPU: the layout runs in one slice\n");
  }
}

TEST(BulkLoad, RejectsABadPairInTheLastSlice) {
  note_slices();
  auto bad = ascending(1, static_cast<Key>(kSliced));
  bad[kSliced - 10].first = bad[kSliced - 11].first;
  expect_rejected(bad, kSliced - 10);
}

TEST(BulkLoad, RejectsBadPairsInTwoSlicesNamingTheLowest) {
  note_slices();
  auto bad = ascending(1, static_cast<Key>(kSliced));
  std::swap(bad[80'000], bad[80'001]);  // slice 1 of 4
  bad[250'000].first = KEY_INF;         // slice 3 of 4
  expect_rejected(bad, 80'001);
}

TEST(BulkLoad, RejectsAPairBelowThePreviousSlicesLastKey) {
  note_slices();
  Fixture f;
  const std::uint64_t chunks = level0_chunks(32, kSliced);
  const int slices = f.sl->layout_slices(chunks);
  // The first pair of slice 1 (mid-input when there is one slice).
  const std::size_t b =
      slices == 1 ? kSliced / 2
                  : static_cast<std::size_t>(
                        chunks / static_cast<std::uint64_t>(slices) *
                        layout_fill(32));
  auto bad = ascending(1, static_cast<Key>(kSliced));
  std::swap(bad[b - 1], bad[b]);
  expect_rejected(bad, b);
}

// ---- the sliced layout writes the one-slice image -------------------------
//
// However a level is sliced, the layout is one fixed image of its input and
// of the indices it takes, in alloc_locked()'s order: the heads, then level
// 0's data chunks, then each level's above.  Data chunk c of level 0 holds
// pairs [c*fill, (c+1)*fill); each entry above is the first key and the ref
// of one chunk of the level below; each chunk's NEXT is its last key and its
// successor's ref (inf and null for a level's last chunk); and every chunk
// is unlocked with an even stamp.

using Pairs = std::vector<std::pair<Key, Value>>;

/// Chunks the layout of `pairs` keys takes: a head per level, then
/// ceil(n/fill) at level 0 and ceil(c/fill) above each level of c > 1.
std::uint64_t layout_total(const Gfsl& sl, std::size_t pairs) {
  const std::uint64_t fill = layout_fill(sl.team_size());
  std::uint64_t total = static_cast<std::uint64_t>(sl.max_levels());
  std::uint64_t chunks = (pairs + fill - 1) / fill;
  total += chunks;
  for (int level = 1; level < sl.max_levels() && chunks > 1; ++level) {
    chunks = (chunks + fill - 1) / fill;
    total += chunks;
  }
  return total;
}

void expect_chunk(const ChunkArena& a, ChunkRef ref,
                  const std::vector<KV>& data, KV next,
                  const std::string& what) {
  const std::atomic<KV>* e = a.entries(ref);
  for (int i = 0; i < a.dsize(); ++i) {
    const KV want =
        i < static_cast<int>(data.size()) ? data[static_cast<std::size_t>(i)]
                                          : KV_EMPTY;
    ASSERT_EQ(e[i].load(), want) << what << " slot " << i;
  }
  ASSERT_EQ(e[a.next_slot()].load(), next) << what << " NEXT";
  ASSERT_EQ(lock_entry_state(e[a.lock_slot()].load()), kUnlocked) << what;
  ASSERT_EQ(a.generation(ref) & 1u, 0u) << what << " stamp";
}

/// The image a layout of `pairs` writes when it takes the indices `taken`
/// in order.
void expect_layout_image(const Gfsl& sl, const Pairs& pairs,
                         const std::vector<ChunkRef>& taken,
                         const std::string& where) {
  ASSERT_LE(layout_total(sl, pairs.size()), taken.size()) << where;
  const ChunkArena& a = sl.arena();
  const GfslInspector inspect(sl);
  const std::uint64_t fill = layout_fill(sl.team_size());
  Pairs entries = pairs;
  bool built = true;  // level 0 always is; a level above iff c > 1 below
  std::size_t at = static_cast<std::size_t>(sl.max_levels());
  for (int level = 0; level < sl.max_levels(); ++level) {
    const std::string lw = where + ", level " + std::to_string(level);
    const std::uint64_t chunks =
        built ? (entries.size() + fill - 1) / fill : 0;
    const auto l = static_cast<std::size_t>(level);
    ASSERT_EQ(inspect.head(level).load(), taken[l]) << lw;
    ASSERT_EQ(sl.chunks_in_level(level), static_cast<std::int64_t>(chunks))
        << lw;
    const Value down = level == 0 ? Value{0} : static_cast<Value>(taken[l - 1]);
    ASSERT_NO_FATAL_FAILURE(expect_chunk(
        a, taken[l], {make_kv(KEY_NEG_INF, down)},
        chunks == 0 ? make_next_entry(KEY_INF, NULL_CHUNK)
                    : make_next_entry(KEY_NEG_INF, taken[at]),
        lw + " head"));
    Pairs raised;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const ChunkRef ref = taken[at + c];
      std::vector<KV> data;
      for (std::uint64_t i = c * fill;
           i < std::min<std::uint64_t>((c + 1) * fill, entries.size()); ++i) {
        data.push_back(make_kv(entries[i].first, entries[i].second));
      }
      const bool last = c + 1 == chunks;
      ASSERT_NO_FATAL_FAILURE(expect_chunk(
          a, ref, data,
          last ? make_next_entry(KEY_INF, NULL_CHUNK)
               : make_next_entry(kv_key(data.back()), taken[at + c + 1]),
          lw + " chunk " + std::to_string(c)));
      raised.emplace_back(entries[c * fill].first, static_cast<Value>(ref));
    }
    at += chunks;
    built = chunks > 1;
    entries = std::move(raised);
  }
  ASSERT_EQ(at, layout_total(sl, pairs.size())) << where;
}

/// ~300K ascending keys: each of [1, 600K] with probability 1/2.
Pairs half_of_600k(std::uint64_t seed) {
  Pairs pairs;
  Xoshiro256ss rng(seed);
  for (Key k = 1; k <= 600'000; ++k) {
    if (rng.below(2) == 0) pairs.emplace_back(k, k ^ 0x5A5Au);
  }
  return pairs;
}

TEST(SlicedLayout, BulkLoadWritesTheOneSliceImage) {
  for (const int team_size : {8, 16, 32}) {
    const std::string where = "team " + std::to_string(team_size);
    device::DeviceMemory mem;
    GfslConfig cfg;
    cfg.team_size = team_size;
    cfg.pool_chunks = 1u << 17;
    Gfsl sl(cfg, &mem);
    Team team(team_size, 0, 1);
    for (Key k = 1; k <= 3'000; ++k) sl.insert(team, k * 5, k);  // a used pool
    const Pairs pairs = half_of_600k(static_cast<std::uint64_t>(team_size));
    if (most_slices(sl) >= 2) {
      ASSERT_GE(sl.layout_slices(level0_chunks(team_size, pairs.size())), 2)
          << where;
    }
    sl.bulk_load(pairs);
    // After the reset the layout takes every index from 0 on.
    std::vector<ChunkRef> taken(cfg.pool_chunks);
    for (std::size_t i = 0; i < taken.size(); ++i) {
      taken[i] = static_cast<ChunkRef>(i);
    }
    ASSERT_NO_FATAL_FAILURE(expect_layout_image(sl, pairs, taken, where));
    EXPECT_EQ(sl.arena().high_water(), layout_total(sl, pairs.size()))
        << where;
    const auto rep = sl.validate(/*strict=*/true);
    EXPECT_TRUE(rep.ok) << where << ": " << rep.error;
  }
}

TEST(SlicedLayout, EpochCompactWritesTheOneSliceImageFromTheFreeList) {
  for (const int team_size : {8, 16, 32}) {
    const std::string where = "team " + std::to_string(team_size);
    device::DeviceMemory mem;
    device::EpochManager epochs;
    GfslConfig cfg;
    cfg.team_size = team_size;
    cfg.pool_chunks = 1u << 17;
    Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs);
    Team team(team_size, 0, 1);
    sl.bulk_load(half_of_600k(static_cast<std::uint64_t>(team_size)));
    Xoshiro256ss rng(derive_seed(0xC0, static_cast<std::uint64_t>(team_size)));
    for (int i = 0; i < 4'000; ++i) {
      const Key k = static_cast<Key>(1 + rng.below(600'000));
      if (rng.below(2) == 0) {
        sl.insert(team, k, k);
      } else {
        sl.erase(team, k);
      }
    }
    const Pairs pairs = sl.collect();
    // The sweep recycles every in-use index in ascending order, so the
    // layout pops them back off the free-list in descending order.
    std::vector<ChunkRef> taken;
    for (ChunkRef r = sl.arena().high_water(); r-- > 0;) {
      if ((sl.arena().generation(r) & 1u) == 0) taken.push_back(r);
    }
    if (most_slices(sl) >= 2) {
      ASSERT_GE(sl.layout_slices(level0_chunks(team_size, pairs.size())), 2)
          << where;
    }
    sl.compact();
    ASSERT_NO_FATAL_FAILURE(expect_layout_image(sl, pairs, taken, where));
    const auto rep = sl.validate(/*strict=*/true);
    EXPECT_TRUE(rep.ok) << where << ": " << rep.error;
  }
}

// The layout's chunk count is known before anything is freed, so input the
// pool cannot hold is refused with the previous contents still in place —
// not after the reset, with part of level 0 laid out over them.
TEST(BulkLoad, InputLargerThanThePoolLeavesTheStructureUnchanged) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 64;
  Gfsl sl(cfg, &mem);
  Team team(8, 0, 1);
  sl.bulk_load(ascending(1, 40));
  const auto allocated = sl.chunks_allocated();
  EXPECT_THROW(sl.bulk_load(ascending(1, 2'000)), std::bad_alloc);
  const auto rep = sl.validate(/*strict=*/true);
  ASSERT_TRUE(rep.ok) << rep.error;
  ASSERT_EQ(sl.collect(), ascending(1, 40));
  EXPECT_EQ(sl.chunks_allocated(), allocated);
  EXPECT_TRUE(sl.insert(team, 5'000, 1));
  EXPECT_TRUE(sl.contains(team, 40));
  EXPECT_TRUE(sl.validate().ok);
}

// Chunks an epoch-reclaiming structure retired are still in limbo when
// bulk_load replaces it.  The arena reset frees their indices, so they must
// leave limbo too: a later reclaim pass would otherwise recycle chunks of
// the new layout while they are live, and searches then restart forever.
TEST(BulkLoad, ReplacesAChurnedStructureUnderEpochs) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs);
  Team team(8, 0, 5);
  Xoshiro256ss rng(3);
  for (int i = 0; i < 3'000; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(400));
    if (rng.below(2) == 0) {
      sl.insert(team, k, k);
    } else {
      sl.erase(team, k);
    }
  }
  ASSERT_FALSE(epochs.limbo_snapshot().empty()) << "nothing retired";

  sl.bulk_load(ascending(1, 2'000));
  ASSERT_TRUE(epochs.limbo_snapshot().empty())
      << "limbo still names indices the reset freed";

  for (int i = 0; i < 6'000; ++i) {
    const Key k = static_cast<Key>(3'000 + rng.below(2'000));
    if (rng.below(2) == 0) {
      sl.insert(team, k, k);
    } else {
      sl.erase(team, k);
    }
  }
  for (Key k = 1; k <= 2'000; ++k) {
    ASSERT_TRUE(sl.contains(team, k)) << "key " << k;
  }
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

}  // namespace
}  // namespace gfsl::core
