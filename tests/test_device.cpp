// Unit tests: cache simulator, coalescing/transaction counting.
#include <gtest/gtest.h>

#include <new>

#include "device/cache_sim.h"
#include "device/device_memory.h"

namespace gfsl::device {
namespace {

TEST(CacheSim, HitsAfterFirstTouch) {
  CacheSim cache;
  EXPECT_FALSE(cache.access(0));   // cold miss
  EXPECT_TRUE(cache.access(0));    // hit
  EXPECT_TRUE(cache.access(64));   // same 128 B line
  EXPECT_FALSE(cache.access(128)); // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheSim, LruEvictionWithinSet) {
  CacheConfig cfg;
  cfg.capacity_bytes = 2 * 128;  // 2 lines total
  cfg.line_bytes = 128;
  cfg.associativity = 2;  // one set, 2 ways
  CacheSim cache(cfg);
  EXPECT_EQ(cache.num_sets(), 1u);
  cache.access(0 * 128);
  cache.access(1 * 128);
  cache.access(0 * 128);       // refresh line 0
  cache.access(2 * 128);       // evicts line 1 (LRU)
  EXPECT_TRUE(cache.access(0 * 128));
  EXPECT_FALSE(cache.access(1 * 128));  // was evicted
}

// ---- cache operators -------------------------------------------------------
//
// An evict-first miss installs its line as its set's next victim, an
// evict-first hit leaves the line's rank alone, and a normal access behaves
// as plain LRU, promoting a streamed line it hits.

CacheSim one_set(std::uint32_t ways) {
  CacheConfig cfg;
  cfg.capacity_bytes = ways * 128ull;
  cfg.associativity = ways;
  return CacheSim(cfg);
}

constexpr std::uint64_t line(int i) { return static_cast<std::uint64_t>(i) * 128; }

TEST(CacheOperator, EvictFirstMissIsTheSetsNextVictim) {
  CacheSim cache = one_set(4);
  for (int i = 0; i < 4; ++i) cache.access(line(i));  // normal 0..3, 0 LRU
  EXPECT_FALSE(cache.access(line(10), CacheOp::kEvictFirst));  // evicts 0
  EXPECT_FALSE(cache.access(line(4)));  // evicts the streamed line, not 1
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(cache.access(line(i))) << i;
  EXPECT_FALSE(cache.access(line(10)));
  EXPECT_FALSE(cache.access(line(0)));
}

TEST(CacheOperator, EvictFirstHitDoesNotPromote) {
  CacheSim cache = one_set(2);
  cache.access(line(0));
  cache.access(line(1));  // 0 is LRU
  EXPECT_TRUE(cache.access(line(0), CacheOp::kEvictFirst));
  cache.access(line(2));  // still evicts 0
  EXPECT_TRUE(cache.access(line(1)));
  EXPECT_FALSE(cache.access(line(0)));
}

TEST(CacheOperator, NormalHitPromotesAStreamedLine) {
  CacheSim cache = one_set(2);
  cache.access(line(0));
  EXPECT_FALSE(cache.access(line(1), CacheOp::kEvictFirst));
  EXPECT_TRUE(cache.access(line(1)));  // promoted above 0
  cache.access(line(2));               // evicts 0, the LRU normal line
  EXPECT_TRUE(cache.access(line(1)));
  EXPECT_FALSE(cache.access(line(0)));
}

TEST(CacheOperator, NewestStreamedLineIsTheNextVictim) {
  for (int run = 0; run < 2; ++run) {  // the same outcome every run
    CacheSim cache = one_set(4);
    cache.access(line(10), CacheOp::kEvictFirst);
    cache.access(line(11), CacheOp::kEvictFirst);
    cache.access(line(0));
    cache.access(line(1));
    EXPECT_FALSE(cache.access(line(2)));  // evicts 11, the newer
    EXPECT_TRUE(cache.access(line(10), CacheOp::kEvictFirst));
    EXPECT_FALSE(cache.access(line(3)));  // evicts 10
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(cache.access(line(i))) << i;
    EXPECT_FALSE(cache.access(line(11)));
    EXPECT_EQ(cache.hits(), 5u);
    EXPECT_EQ(cache.misses(), 7u);
  }
}

TEST(CacheOperator, MovesOnlyTheHitDramSplit) {
  // A pattern twice the cache's size, read twice under each operator: the
  // counts other than the hit/DRAM split agree.
  CacheConfig cfg;
  cfg.capacity_bytes = 8 * 1024;
  DeviceMemory normal(cfg);
  DeviceMemory streamed(cfg);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 16 * 1024; a += 256) {
      normal.warp_read(a, 256);
      streamed.warp_read(a, 256, CacheOp::kEvictFirst);
    }
  }
  const MemStats n = normal.snapshot();
  const MemStats s = streamed.snapshot();
  EXPECT_EQ(n.transactions, s.transactions);
  EXPECT_EQ(n.bytes_moved, s.bytes_moved);
  EXPECT_EQ(n.warp_reads, s.warp_reads);
  EXPECT_EQ(n.l2_hits + n.dram_transactions, n.transactions);
  EXPECT_EQ(s.l2_hits + s.dram_transactions, s.transactions);
  EXPECT_EQ(n.evict_first, 0u);
  EXPECT_EQ(s.evict_first, s.transactions);
  // LRU thrashes on a loop twice its size; evict-first keeps the lines the
  // first pass brought in before each set filled, and hits them again.
  EXPECT_EQ(n.l2_hits, 0u);
  EXPECT_GT(s.l2_hits, 0u);
}

TEST(CacheSim, CapacityWorkingSetBehavior) {
  // A working set within capacity hits on re-scan; a 2x working set thrashes.
  CacheConfig cfg;
  cfg.capacity_bytes = 64 * 128;
  CacheSim small(cfg);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 64; ++i) small.access(static_cast<std::uint64_t>(i) * 128);
  }
  EXPECT_EQ(small.misses(), 64u);
  EXPECT_EQ(small.hits(), 64u);
}

TEST(CacheSim, InvalidateDropsEverything) {
  CacheSim cache;
  cache.access(0);
  cache.invalidate_all();
  EXPECT_FALSE(cache.access(0));
}

TEST(CacheSim, RejectsBadConfig) {
  CacheConfig cfg;
  cfg.line_bytes = 100;  // not a power of two
  EXPECT_THROW(CacheSim{cfg}, std::invalid_argument);
  cfg.line_bytes = 128;
  cfg.associativity = 0;
  EXPECT_THROW(CacheSim{cfg}, std::invalid_argument);
}

TEST(DeviceMemory, CoalescedChunkReadTransactions) {
  DeviceMemory mem;
  // A 256 B chunk read (GFSL-32) covers two 128 B lines -> 2 transactions.
  mem.warp_read(0, 256);
  auto s = mem.snapshot();
  EXPECT_EQ(s.warp_reads, 1u);
  EXPECT_EQ(s.transactions, 2u);
  EXPECT_EQ(s.dram_transactions, 2u);  // cold
  // A 128 B chunk read (GFSL-16) is a single transaction (§5.2).
  mem.reset_stats();
  mem.warp_read(512, 128);
  s = mem.snapshot();
  EXPECT_EQ(s.transactions, 1u);
}

TEST(DeviceMemory, UnalignedAccessSpansExtraLine) {
  DeviceMemory mem;
  mem.warp_read(64, 128);  // straddles two lines
  EXPECT_EQ(mem.snapshot().transactions, 2u);
}

TEST(DeviceMemory, LaneAccessesAreSingleTransactions) {
  DeviceMemory mem;
  // 32 scattered 8 B node reads (the M&C pattern) = 32 transactions...
  for (int i = 0; i < 32; ++i) {
    mem.lane_read(static_cast<std::uint64_t>(i) * 4096, 8);
  }
  auto s = mem.snapshot();
  EXPECT_EQ(s.lane_reads, 32u);
  EXPECT_EQ(s.transactions, 32u);
  // ...while the same 256 bytes in one coalesced access is 2.
  mem.reset_stats();
  mem.warp_read(1 << 20, 256);
  EXPECT_EQ(mem.snapshot().transactions, 2u);
}

TEST(DeviceMemory, L2HitClassification) {
  DeviceMemory mem;
  mem.warp_read(0, 128);
  mem.warp_read(0, 128);
  auto s = mem.snapshot();
  EXPECT_EQ(s.l2_hits, 1u);
  EXPECT_EQ(s.dram_transactions, 1u);
  EXPECT_EQ(s.bytes_moved, 256u);
}

TEST(DeviceMemory, AtomicsCountAndTouchCache) {
  DeviceMemory mem;
  mem.atomic_rmw(128);
  mem.atomic_rmw(128);
  auto s = mem.snapshot();
  EXPECT_EQ(s.atomics, 2u);
  EXPECT_EQ(s.l2_hits, 1u);
}

TEST(DeviceMemory, AccountingToggle) {
  DeviceMemory mem;
  mem.set_accounting(false);
  mem.warp_read(0, 256);
  mem.atomic_rmw(0);
  auto s = mem.snapshot();
  EXPECT_EQ(s.transactions, 0u);
  EXPECT_EQ(s.atomics, 0u);
  mem.set_accounting(true);
  mem.warp_read(0, 256);
  EXPECT_EQ(mem.snapshot().transactions, 2u);
}

TEST(DeviceMemory, StatsDiffOperator) {
  DeviceMemory mem;
  mem.warp_read(0, 256);
  const MemStats a = mem.snapshot();
  mem.warp_read(4096, 256);
  mem.atomic_rmw(0);
  const MemStats d = mem.snapshot() - a;
  EXPECT_EQ(d.warp_reads, 1u);
  EXPECT_EQ(d.atomics, 1u);
  EXPECT_EQ(d.transactions, 3u);
}

TEST(DeviceMemory, GTX970L2Geometry) {
  DeviceMemory mem;
  EXPECT_EQ(mem.cache().config().capacity_bytes, 1792ull * 1024);
  EXPECT_EQ(mem.cache().config().line_bytes, 128u);
}

}  // namespace
}  // namespace gfsl::device
