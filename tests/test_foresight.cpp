// Foresight hint index (core/foresight.{h,cpp}; DESIGN.md §14): differential
// oracle equivalence of the attached vs detached paths, the per-consult
// hit/fallback accounting invariant, staleness-adversarial churn (merge
// zombies, recycled-chunk generation bumps, compact's republish) between
// hint publication and use, the layout-published table against the walk's,
// the fresh-hint traversal bound, and the A/B determinism contract — a Gfsl
// constructed *without* a ForesightIndex runs the seed code path, and
// attaching one must not change any operation's result or the final
// contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/foresight.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using gfsl::testing::MapOracle;
using simt::Team;

using Pairs = std::vector<std::pair<Key, Value>>;

Value value_of(Key k) { return static_cast<Value>(k * 31 + 7); }

Pairs ascending_pairs(Key first, Key last) {
  Pairs p;
  for (Key k = first; k <= last; ++k) p.emplace_back(k, value_of(k));
  return p;
}

Op random_op(Xoshiro256ss& rng, std::uint64_t key_range, int ins_pct,
             int del_pct) {
  const Key k = static_cast<Key>(1 + rng.below(key_range));
  const auto roll = static_cast<int>(rng.below(100));
  OpKind kind = OpKind::Contains;
  if (roll < ins_pct) {
    kind = OpKind::Insert;
  } else if (roll < ins_pct + del_pct) {
    kind = OpKind::Delete;
  }
  return Op{kind, k, kind == OpKind::Insert ? value_of(k) : Value{0}, 0};
}

bool apply_op(Gfsl& sl, Team& team, const Op& op) {
  switch (op.kind) {
    case OpKind::Insert:
      return sl.insert(team, op.key, op.value);
    case OpKind::Delete:
      return sl.erase(team, op.key);
    case OpKind::Contains:
      return sl.contains(team, op.key);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Differential oracle: attached and detached runs replay the same per-op
// stream and must agree with each other and with the std::map oracle on
// every single result and on the final contents.

TEST(ForesightDifferential, AttachedDetachedAndOracleAgree) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    device::DeviceMemory mem_a, mem_d;
    device::EpochManager epochs_a, epochs_d;
    // stride 1 / tiny threshold: every split/merge/recycle soon republishes,
    // so the stream constantly flips between hinted and fallback starts.
    ForesightIndex foresight(1u << 12, /*stride=*/1, /*rebuild_threshold=*/8);
    GfslConfig cfg;
    cfg.team_size = 8;
    cfg.pool_chunks = 1u << 12;
    Gfsl attached(cfg, &mem_a, nullptr, nullptr, &epochs_a, nullptr, nullptr,
                  &foresight);
    Gfsl detached(cfg, &mem_d, nullptr, nullptr, &epochs_d);
    MapOracle oracle;
    Team team_a(8, 0, 5);
    Team team_d(8, 0, 5);

    Xoshiro256ss rng(derive_seed(0xF5, seed));
    for (int i = 0; i < 1500; ++i) {
      const Op op = random_op(rng, /*key_range=*/160, /*ins=*/35, /*del=*/35);
      const bool want = oracle.apply(op);
      ASSERT_EQ(apply_op(attached, team_a, op), want)
          << "seed " << seed << " op " << i << " kind "
          << static_cast<int>(op.kind) << " key " << op.key
          << ": attached arm diverged from the oracle";
      ASSERT_EQ(apply_op(detached, team_d, op), want)
          << "seed " << seed << " op " << i << ": detached arm diverged";
    }

    // find() goes through the same hinted start; sweep the whole key space.
    const auto& state = oracle.state();
    for (Key k = 1; k <= 160; ++k) {
      const auto it = state.find(k);
      const std::optional<Value> got = attached.find(team_a, k);
      ASSERT_EQ(got.has_value(), it != state.end()) << "find(" << k << ")";
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second);
      }
    }

    EXPECT_EQ(attached.collect(), oracle.collect());
    EXPECT_EQ(detached.collect(), oracle.collect());
    const auto rep_a = attached.validate(/*strict=*/true);
    EXPECT_TRUE(rep_a.ok) << rep_a.error;
    const auto rep_d = detached.validate(/*strict=*/true);
    EXPECT_TRUE(rep_d.ok) << rep_d.error;
  }
}

// ---------------------------------------------------------------------------
// Accounting invariant: every consult records exactly one of hit/fallback,
// so hits + fallbacks == lookups and stale hints are a subset of fallbacks.

TEST(ForesightAccounting, StaticStructureEveryLookupIsAHit) {
  device::DeviceMemory mem;
  ForesightIndex foresight(1u << 12);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 2000));
  sl.foresight_prime(team);
  ASSERT_EQ(foresight.rebuilds(), 1u);
  ASSERT_GT(foresight.entries(), 0u);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  constexpr std::uint64_t kLookups = 600;
  Xoshiro256ss rng(0xACC1);
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(2500));  // hits and misses
    EXPECT_EQ(sl.contains(team, k), k <= 2000);
  }
  team.set_metrics(nullptr);

  const std::uint64_t hits = shard.counter(obs::kForesightHits);
  const std::uint64_t falls = shard.counter(obs::kForesightFallbacks);
  EXPECT_EQ(hits + falls, kLookups)
      << "a consult recorded neither or both of hit/fallback";
  EXPECT_EQ(hits, kLookups) << "published, static structure: no fallbacks";
  EXPECT_EQ(shard.counter(obs::kForesightStaleHints), 0u);
}

TEST(ForesightAccounting, ChurnKeepsHitPlusFallbackCoveringEveryConsult) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12, /*stride=*/1, /*rebuild_threshold=*/8);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  Xoshiro256ss rng(0xACC2);
  constexpr int kOps = 2000;
  std::uint64_t lookups = 0;
  for (int i = 0; i < kOps; ++i) {
    const Op op = random_op(rng, 128, 40, 40);
    if (op.kind == OpKind::Contains) ++lookups;
    apply_op(sl, team, op);
  }
  team.set_metrics(nullptr);

  const std::uint64_t hits = shard.counter(obs::kForesightHits);
  const std::uint64_t falls = shard.counter(obs::kForesightFallbacks);
  const std::uint64_t stale = shard.counter(obs::kForesightStaleHints);
  // Only lookups consult (updates take the classic descent), and staleness
  // restarts re-consult, so consults >= lookups; the invariant is that the
  // two verdicts partition the consults and staleness implies fallback.
  ASSERT_GT(lookups, 0u);
  EXPECT_GE(hits + falls, lookups);
  EXPECT_LE(stale, falls) << "a stale hint must always take the fallback";
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ForesightAccounting, UpdatesNeverConsult) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);
  sl.bulk_load(ascending_pairs(1, 1000));
  sl.foresight_prime(team);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  Xoshiro256ss rng(0xACC3);
  for (int i = 0; i < 1000; ++i) {
    apply_op(sl, team, random_op(rng, 1500, 50, 50));
  }
  BatchCursor cur;
  for (Key k = 1; k <= 1500; k += 7) {
    if (k % 2 == 0) {
      sl.insert_batch(team, k, value_of(k), cur);
    } else {
      sl.erase_batch(team, k, cur);
    }
  }
  team.set_metrics(nullptr);

  EXPECT_EQ(shard.counter(obs::kForesightHits) +
                shard.counter(obs::kForesightFallbacks),
            0u)
      << "an insert or erase consulted the hint table";
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

// ---------------------------------------------------------------------------
// Hinted updates keep the classic path: with foresight attached, an erase of
// a raised key and an insert that raises must each read O(height) chunks in
// total.  Before the fix a validated hint skipped the upper descent, the
// commit halves walked every upper level from its head, and each such op
// read about half of level 1 — at 1M keys, a thousand chunks or more.

constexpr int kBoundTeam = 32;

struct BoundFixture {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight{1u << 16};
  Gfsl sl;
  Team team{kBoundTeam, 0, 5};
  Pairs pairs;

  static GfslConfig config() {
    GfslConfig cfg;
    cfg.team_size = kBoundTeam;
    cfg.pool_chunks = 1u << 16;
    return cfg;
  }

  // 1M even keys: the odd keys in between stay insertable.
  BoundFixture()
      : sl(config(), &mem, nullptr, nullptr, &epochs, nullptr, nullptr,
           &foresight) {
    pairs.reserve(1'000'000);
    for (Key k = 2; k <= 2'000'000; k += 2) pairs.emplace_back(k, value_of(k));
    sl.bulk_load(pairs);
    sl.foresight_prime(team);
  }

  // bulk_load fills each chunk to 3/4 and raises every chunk's first key:
  // `index`-th level-0 chunk starts at pairs[index * kFill].
  static constexpr std::size_t kFill = (kBoundTeam - 2) * 3 / 4;

  // Warp reads (chunk reads plus the small head/height reads) of one op.
  template <typename Fn>
  std::uint64_t reads_of(Fn&& op) {
    const std::uint64_t before = mem.snapshot().warp_reads;
    op();
    return mem.snapshot().warp_reads - before;
  }
};

// Generous slack over the height: the search's height/head reads, the
// lock-and-recheck re-reads, one probe per level, a split's down-pointer
// repair probes — all independent of how long the levels are.
constexpr std::uint64_t kReadSlack = 48;

TEST(ForesightUpdates, HintedEraseOfRaisedKeyReadsBoundedChunks) {
  BoundFixture f;
  const int height = f.sl.current_height();
  ASSERT_GE(f.sl.chunks_in_level(1), 1500) << "level 1 too short to matter";

  const std::size_t chunks0 = f.pairs.size() / BoundFixture::kFill;
  // A level-2 key (first key of a level-1 chunk) near the middle, and a
  // level-1 key at three quarters of the key space.
  const Key mid = f.pairs[(chunks0 / 2 / BoundFixture::kFill) *
                          BoundFixture::kFill * BoundFixture::kFill]
                      .first;
  const Key late = f.pairs[(chunks0 * 3 / 4) * BoundFixture::kFill].first;

  const std::uint64_t per_op =
      f.reads_of([&] { ASSERT_TRUE(f.sl.erase(f.team, mid)); });
  EXPECT_LE(per_op, static_cast<std::uint64_t>(height) + kReadSlack)
      << "per-op erase of raised key " << mid;

  BatchCursor cur;
  const std::uint64_t batched =
      f.reads_of([&] { ASSERT_TRUE(f.sl.erase_batch(f.team, late, cur)); });
  EXPECT_LE(batched, static_cast<std::uint64_t>(height) + kReadSlack)
      << "batched erase of raised key " << late;

  EXPECT_FALSE(f.sl.contains(f.team, mid));
  EXPECT_FALSE(f.sl.contains(f.team, late));
  const auto rep = f.sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ForesightUpdates, HintedInsertThatRaisesReadsBoundedChunks) {
  BoundFixture f;
  const int height = f.sl.current_height();
  const std::size_t chunks0 = f.pairs.size() / BoundFixture::kFill;

  // Fill one level-0 chunk with the odd keys inside its range until an
  // insert splits it; p_chunk = 1, so that split raises a key to level 1.
  auto fill_until_split = [&](std::size_t chunk, bool batched) {
    const Key first = f.pairs[chunk * BoundFixture::kFill].first;
    BatchCursor cur;
    std::uint64_t worst = 0;
    for (Key k = first + 1;; k += 2) {
      const std::int64_t level0 = f.sl.chunks_in_level(0);
      const std::uint64_t reads = f.reads_of([&] {
        ASSERT_TRUE(batched ? f.sl.insert_batch(f.team, k, value_of(k), cur)
                            : f.sl.insert(f.team, k, value_of(k)));
      });
      worst = std::max(worst, reads);
      if (f.sl.chunks_in_level(0) > level0) return worst;  // split + raise
      if (k > first + 2 * BoundFixture::kFill) {
        ADD_FAILURE() << "chunk " << chunk << " never split";
        return worst;
      }
    }
  };

  const std::uint64_t per_op = fill_until_split(chunks0 / 2, false);
  EXPECT_LE(per_op, static_cast<std::uint64_t>(height) + kReadSlack)
      << "per-op insert that raises";
  const std::uint64_t batched = fill_until_split(chunks0 * 3 / 4, true);
  EXPECT_LE(batched, static_cast<std::uint64_t>(height) + kReadSlack)
      << "batched insert that raises";

  const auto rep = f.sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

// ---------------------------------------------------------------------------
// Staleness-adversarial: structural churn between a hint's publication and
// its consultation.  Correctness must never depend on hint freshness.

// Huge threshold and no invalidation: the primed table stays published (and
// increasingly wrong) across the churn, so consults keep dereferencing hints
// whose chunks were merged away or recycled since publication.
constexpr std::uint64_t kNeverRepublish = 1'000'000'000;

TEST(ForesightStaleness, MergeZombiesFallBackWithoutWrongAnswers) {
  device::DeviceMemory mem;
  // No EpochManager: merged-away chunks stay zombie with their published
  // generation intact — the gen-consistent-zombie shape, which validation
  // must reject (§9 ABA argument) even though the stamp matches.
  ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 1200));
  sl.foresight_prime(team);
  const std::uint64_t published = foresight.rebuilds();
  ASSERT_EQ(published, 1u);

  // Merge wave through [400, 800]: the hints into that region now name
  // zombies (or chunks whose coverage moved right underneath them).
  for (Key k = 400; k <= 800; ++k) ASSERT_TRUE(sl.erase(team, k));

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (Key k = 350; k <= 850; ++k) {
    EXPECT_EQ(sl.contains(team, k), k < 400 || k > 800) << "key " << k;
  }
  team.set_metrics(nullptr);

  EXPECT_EQ(foresight.rebuilds(), published) << "table republished mid-test";
  const std::uint64_t stale = shard.counter(obs::kForesightStaleHints);
  const std::uint64_t falls = shard.counter(obs::kForesightFallbacks);
  EXPECT_GT(stale, 0u) << "churned hints never went stale — test is inert";
  EXPECT_LE(stale, falls);
  EXPECT_EQ(shard.counter(obs::kForesightHits) + falls,
            static_cast<std::uint64_t>(850 - 350 + 1));
}

TEST(ForesightStaleness, RecycledChunkGenerationBumpFallsBack) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 1200));
  sl.foresight_prime(team);
  ASSERT_EQ(foresight.rebuilds(), 1u);

  // Drain a region, then churn elsewhere until the epoch machinery has
  // demonstrably recycled chunks: the drained region's hints now carry
  // generation stamps the arena has since bumped.
  obs::MetricsShard churn_shard;
  team.set_metrics(&churn_shard);
  for (Key k = 200; k <= 900; ++k) ASSERT_TRUE(sl.erase(team, k));
  Xoshiro256ss rng(0x9E4);
  for (int i = 0; i < 4000 &&
                  churn_shard.counter(obs::kChunkReclaims) == 0;
       ++i) {
    const Key k = static_cast<Key>(1000 + rng.below(4000));
    if (rng.below(2) == 0) {
      sl.insert(team, k, value_of(k));
    } else {
      sl.erase(team, k);
    }
  }
  team.set_metrics(nullptr);
  ASSERT_GT(churn_shard.counter(obs::kChunkReclaims), 0u)
      << "no chunk was recycled — the generation-bump path never ran";

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (Key k = 150; k <= 950; ++k) {
    EXPECT_EQ(sl.contains(team, k), k < 200 || k > 900) << "key " << k;
  }
  team.set_metrics(nullptr);

  EXPECT_EQ(foresight.rebuilds(), 1u) << "table republished mid-test";
  EXPECT_GT(shard.counter(obs::kForesightStaleHints), 0u);
  EXPECT_LE(shard.counter(obs::kForesightStaleHints),
            shard.counter(obs::kForesightFallbacks));
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ForesightStaleness, CompactRepublishesFromItsLayout) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 800));
  sl.foresight_prime(team);
  ASSERT_EQ(foresight.rebuilds(), 1u);

  // Quiescent structural replacement: every ref of the old table is garbage
  // in the rebuilt pool, so compact must replace the table with its own
  // layout's before any operation can consult it.
  sl.compact();
  ASSERT_EQ(foresight.rebuilds(), 2u);
  ASSERT_FALSE(foresight.rebuild_due());

  // No stale hint survived: every published ref carries the stamp its chunk
  // holds in the rebuilt pool.
  for (Key k = 1; k <= 801; ++k) {
    ChunkRef ref = NULL_CHUNK;
    std::uint32_t gen = 0;
    ASSERT_TRUE(foresight.lookup(k, &ref, &gen)) << "key " << k;
    ASSERT_EQ(gen, sl.arena().generation(ref)) << "key " << k;
  }

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (Key k = 1; k <= 200; ++k) {
    EXPECT_TRUE(sl.contains(team, k)) << "key " << k;
  }
  team.set_metrics(nullptr);

  // Every consult ran hinted against the compacted layout's table; none
  // republished it.
  EXPECT_EQ(shard.counter(obs::kForesightHits), 200u);
  EXPECT_EQ(shard.counter(obs::kForesightFallbacks), 0u);
  EXPECT_EQ(shard.counter(obs::kForesightStaleHints), 0u);
  EXPECT_EQ(shard.counter(obs::kForesightRebuilds), 0u);
  EXPECT_EQ(foresight.rebuilds(), 2u);
  EXPECT_EQ(sl.collect(), ascending_pairs(1, 800));
}

// ---------------------------------------------------------------------------
// Publication from the layout: compact and bulk_load publish the table the
// lazy bottom-level walk would sample from the chunks they just wrote.

// lookup()'s answer for every key in [0, last]: found, ref, gen.
struct Answer {
  bool found = false;
  ChunkRef ref = NULL_CHUNK;
  std::uint32_t gen = 0;
  bool operator==(const Answer&) const = default;
};

std::vector<Answer> answers(const ForesightIndex& f, Key last) {
  std::vector<Answer> out(static_cast<std::size_t>(last) + 1);
  for (Key k = 0; k <= last; ++k) {
    Answer& a = out[k];
    a.found = f.lookup(k, &a.ref, &a.gen);
  }
  return out;
}

// The published table's answers, then the walk's over the same structure.
void expect_layout_table_is_walk_table(Gfsl& sl, ForesightIndex& f,
                                       Team& team, Key last,
                                       const std::string& where) {
  ASSERT_FALSE(f.rebuild_due()) << where << ": nothing published";
  const std::vector<Answer> layout = answers(f, last);
  const std::uint64_t published = f.rebuilds();
  f.invalidate_all();
  sl.foresight_prime(team);
  ASSERT_EQ(f.rebuilds(), published + 1) << where << ": the walk did not run";
  const std::vector<Answer> walk = answers(f, last);
  for (Key k = 0; k <= last; ++k) {
    ASSERT_EQ(layout[k], walk[k])
        << where << ": key " << k << " layout {" << layout[k].found << ", "
        << layout[k].ref << ", " << layout[k].gen << "} walk {"
        << walk[k].found << ", " << walk[k].ref << ", " << walk[k].gen << "}";
  }
}

TEST(ForesightPublish, RebuildPublishesTheWalksTable) {
  for (const int team_size : {8, 16, 32}) {
    const std::size_t fill = static_cast<std::size_t>((team_size - 2) * 3 / 4);
    // ~300K keys: each of [1, 600K] with probability 1/2.  Level 0 is 3.5 to
    // 4.8 MB, so the layout cuts it into one slice per usable CPU, up to
    // four, and the table is appended from that many Samplers.
    Pairs random;
    Xoshiro256ss rng(derive_seed(0x1A7, static_cast<std::uint64_t>(team_size)));
    for (Key k = 1; k <= 600'000; ++k) {
      if (rng.below(2) == 0) random.emplace_back(k, value_of(k));
    }
    const std::vector<std::pair<const char*, Pairs>> inputs = {
        {"empty", {}},
        {"one key", ascending_pairs(7, 7)},
        {"one chunk's fill", ascending_pairs(1, static_cast<Key>(fill))},
        {"fill + 1", ascending_pairs(1, static_cast<Key>(fill + 1))},
        {"300K random", random},
    };
    for (const std::uint32_t stride : {1u, 2u, 3u, 7u}) {
      for (const auto& [name, pairs] : inputs) {
        const std::string where = "team " + std::to_string(team_size) +
                                  ", stride " + std::to_string(stride) +
                                  ", " + name;
        const Key last = (pairs.empty() ? 0 : pairs.back().first) + 2;
        GfslConfig cfg;
        cfg.team_size = team_size;
        cfg.pool_chunks = 1u << 17;
        device::DeviceMemory mem;
        device::EpochManager epochs;
        ForesightIndex foresight(cfg.pool_chunks, stride, kNeverRepublish);
        Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr,
                &foresight);
        Team team(team_size, 0, 5);
        if (std::string(name) == "300K random") {
          const int most =
              std::min(sl.layout_slices(std::uint64_t{1} << 40), 4);
          ASSERT_EQ(sl.layout_slices((pairs.size() + fill - 1) / fill), most)
              << where;
        }

        sl.bulk_load(pairs);
        ASSERT_NO_FATAL_FAILURE(expect_layout_table_is_walk_table(
            sl, foresight, team, last, where + ", bulk_load"));
        // With epochs, compact recycles every chunk and rebuilds through
        // the LIFO free-list: new refs, bumped stamps.
        sl.compact();
        ASSERT_NO_FATAL_FAILURE(expect_layout_table_is_walk_table(
            sl, foresight, team, last, where + ", compact"));
        ASSERT_EQ(sl.collect(), pairs) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fresh hints: a hinted lookup lands at-or-left within a stride of the
// enclosing chunk, so chunks read per traversal stays <= 2 (vs height+1 for
// the classic descent).

TEST(ForesightFreshness, FreshHintsReadAtMostTwoChunksPerTraversal) {
  device::DeviceMemory mem;
  ForesightIndex foresight(1u << 14);  // default stride 2
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 14;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 6000));
  sl.foresight_prime(team);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  Xoshiro256ss rng(0xF2E5);
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(6000));
    ASSERT_TRUE(sl.contains(team, k));
  }
  team.set_metrics(nullptr);

  // Nothing fell back (the prime published before any traffic), so the
  // traversal counters measure the hinted path alone: one validated jump
  // plus at most one lateral step at stride 2.
  ASSERT_EQ(shard.counter(obs::kForesightFallbacks), 0u);
  EXPECT_LE(sl.avg_chunks_per_traversal(), 2.0);
  EXPECT_GT(sl.avg_chunks_per_traversal(), 0.0);
}

// ---------------------------------------------------------------------------
// A/B determinism: the detached path is the seed path, and the attached path
// is reproducible under a fixed deterministic schedule.

struct AbRun {
  std::vector<bool> results;  // per-op return values, in program order
  Pairs contents;
  bool valid = false;
  std::string error;
};

// Two teams churn *disjoint* key spaces under the same seeded deterministic
// schedule (mirrors test_snapshot.cpp's A/B harness).  Per-team key spaces
// make every op's result a function of that team's own program order alone,
// so the result vectors and final contents must be identical across the two
// arms even though attaching the index changes traversal shapes — a hinted
// jump skips the upper descent's yield points — and can shift which team
// performs the lazy rebuild walk.
AbRun run_ab(std::uint64_t sched_seed, bool with_foresight) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             sched_seed, 2);
  std::unique_ptr<ForesightIndex> foresight;
  if (with_foresight) {
    foresight = std::make_unique<ForesightIndex>(1u << 12, /*stride=*/1,
                                                 /*rebuild_threshold=*/16);
  }
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, &sched, nullptr, &epochs, nullptr, nullptr,
          foresight.get());

  std::vector<std::vector<bool>> per_team(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 5);
      Xoshiro256ss rng(derive_seed(83, static_cast<std::uint64_t>(t)));
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

TEST(ForesightABDeterminism, AttachedIndexChangesNoResultOrContents) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const AbRun detached = run_ab(seed, /*with_foresight=*/false);
    const AbRun attached = run_ab(seed, /*with_foresight=*/true);
    ASSERT_TRUE(detached.valid) << "seed " << seed << ": " << detached.error;
    ASSERT_TRUE(attached.valid) << "seed " << seed << ": " << attached.error;
    EXPECT_EQ(detached.results, attached.results)
        << "seed " << seed
        << ": an op returned differently with foresight armed";
    EXPECT_EQ(detached.contents, attached.contents)
        << "seed " << seed << ": final contents diverged with foresight armed";
  }
}

TEST(ForesightABDeterminism, DetachedPathIsReproducible) {
  const AbRun a = run_ab(13, /*with_foresight=*/false);
  const AbRun b = run_ab(13, /*with_foresight=*/false);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.contents, b.contents);
}

TEST(ForesightABDeterminism, AttachedPathIsReproducible) {
  // Fixed seed, foresight armed twice: hint consults, rebuild timing and all
  // fallbacks replay identically under the deterministic schedule.
  const AbRun a = run_ab(13, /*with_foresight=*/true);
  const AbRun b = run_ab(13, /*with_foresight=*/true);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.contents, b.contents);
}

}  // namespace
}  // namespace gfsl::core
