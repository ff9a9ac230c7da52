// Tests for the between-kernel compaction extension (§4.1 future work) and
// bulk_load's input contract.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
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

void expect_rejected(const std::vector<std::pair<Key, Value>>& bad) {
  Fixture f;
  f.sl->bulk_load(ascending(1, 2'000));  // contents the rejection must drop
  EXPECT_THROW(f.sl->bulk_load(bad), std::invalid_argument);
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
  expect_rejected(bad);
}

TEST(BulkLoad, RejectsDuplicateKeys) {
  auto bad = ascending(1, 500);
  bad[301].first = bad[300].first;
  expect_rejected(bad);
}

TEST(BulkLoad, RejectsKeyZero) {
  auto bad = ascending(1, 500);
  bad.insert(bad.begin(), {KEY_NEG_INF, 1});
  expect_rejected(bad);
}

TEST(BulkLoad, RejectsKeyInf) {
  auto bad = ascending(1, 500);
  bad.emplace_back(KEY_INF, 2);
  expect_rejected(bad);
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
