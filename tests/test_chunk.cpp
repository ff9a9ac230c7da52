// Unit tests: chunk arena layout, entry packing, allocation protocol, the
// quiescent layout's take/publish pair, the pages set-up leaves untouched
// and the huge-page advice.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chunk.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "device/persist.h"

namespace gfsl::core {
namespace {

TEST(ChunkArena, LayoutAndSlots) {
  ChunkArena a(32, 8);
  EXPECT_EQ(a.entries_per_chunk(), 32);
  EXPECT_EQ(a.dsize(), 30);
  EXPECT_EQ(a.next_slot(), 30);
  EXPECT_EQ(a.lock_slot(), 31);
  EXPECT_EQ(a.chunk_bytes(), 256u);

  ChunkArena b(16, 8);
  EXPECT_EQ(b.chunk_bytes(), 128u);  // one transaction per read (§5.2)
}

TEST(ChunkArena, DeviceAddressesAreDense) {
  ChunkArena a(32, 8);
  EXPECT_EQ(a.device_address(0), 0u);
  EXPECT_EQ(a.device_address(1), 256u);
  EXPECT_EQ(a.entry_address(1, 30), 256u + 240u);
}

TEST(ChunkArena, AllocInitializesLockedAndEmpty) {
  ChunkArena a(16, 4);
  const ChunkRef c = a.alloc_locked();
  for (int i = 0; i < a.dsize(); ++i) {
    EXPECT_TRUE(kv_is_empty(a.entry(c, i).load()));
  }
  const KV nx = a.entry(c, a.next_slot()).load();
  EXPECT_EQ(next_entry_max(nx), KEY_INF);  // allocated as a last chunk (§4.1)
  EXPECT_EQ(next_entry_ref(nx), NULL_CHUNK);
  EXPECT_EQ(lock_entry_state(a.entry(c, a.lock_slot()).load()), kLocked);
}

TEST(ChunkArena, ExhaustionReturnsNullChunk) {
  ChunkArena a(8, 2);
  a.alloc_locked();
  a.alloc_locked();
  EXPECT_FALSE(a.can_alloc());
  EXPECT_EQ(a.alloc_locked(), NULL_CHUNK);
}

TEST(ChunkArena, RecycledIndicesReturnLifoBelowAFixedHighWater) {
  ChunkArena a(8, 2);
  const ChunkRef x = a.alloc_locked();
  const ChunkRef y = a.alloc_locked();
  EXPECT_EQ(a.allocated(), 2u);
  a.recycle(x);
  a.recycle(y);
  EXPECT_EQ(a.allocated(), 0u);
  EXPECT_EQ(a.free_count(), 2u);
  EXPECT_TRUE(a.can_alloc(2));
  EXPECT_EQ(a.generation(x) & 1u, 1u);  // odd: free
  EXPECT_EQ(a.generation(y) & 1u, 1u);
  // LIFO: the most recently recycled index comes back first, even again;
  // the bump high-water mark never moves once indices recycle.
  EXPECT_EQ(a.alloc_locked(), y);
  EXPECT_EQ(a.generation(y) & 1u, 0u);
  EXPECT_EQ(a.alloc_locked(), x);
  EXPECT_EQ(a.generation(x) & 1u, 0u);
  EXPECT_EQ(a.high_water(), 2u);
  EXPECT_EQ(a.alloc_locked(), NULL_CHUNK);
}

TEST(ChunkArena, TakeUnwrittenFollowsAllocOrderAndLeavesTheStampToPublish) {
  ChunkArena a(8, 6);
  const ChunkRef x = a.alloc_locked();
  const ChunkRef y = a.alloc_locked();
  const KV sentinel = make_kv(77, 78);
  a.entry(x, 0).store(sentinel);
  const std::uint32_t g = a.generation(x);
  a.recycle(x);
  a.recycle(y);
  std::vector<ChunkRef> recycled;
  // 2 recycled + 4 fresh indices: one more than that takes nothing.
  EXPECT_EQ(a.take_unwritten(7, &recycled), NULL_CHUNK);
  EXPECT_TRUE(recycled.empty());
  EXPECT_EQ(a.free_count(), 2u);
  EXPECT_EQ(a.high_water(), 2u);
  // Recycled first (LIFO), then the bump pointer — alloc_locked's order.
  EXPECT_EQ(a.take_unwritten(4, &recycled), 2u);
  EXPECT_EQ(recycled, (std::vector<ChunkRef>{y, x}));
  EXPECT_EQ(a.free_count(), 0u);
  EXPECT_EQ(a.high_water(), 4u);
  EXPECT_EQ(a.entry(x, 0).load(), sentinel);  // nothing written
  EXPECT_EQ(a.generation(x), g + 1);          // still odd
  a.publish_generation(x);
  EXPECT_EQ(a.generation(x), g + 2);  // even, as its last step
  a.publish_generation(2);
  EXPECT_EQ(a.generation(2), 0u);  // bump-fresh: born even, no flip
  EXPECT_EQ(a.take_unwritten(2, &recycled), 4u);
  EXPECT_TRUE(recycled.empty());
  EXPECT_EQ(a.take_unwritten(1, &recycled), NULL_CHUNK);
  EXPECT_EQ(a.high_water(), 6u);
}

TEST(ChunkArena, RejectsBadGeometry) {
  EXPECT_THROW(ChunkArena(7, 4), std::invalid_argument);
  EXPECT_THROW(ChunkArena(4, 4), std::invalid_argument);
  EXPECT_THROW(ChunkArena(64, 4), std::invalid_argument);
  EXPECT_THROW(ChunkArena(32, 0), std::invalid_argument);
}

TEST(ChunkEntries, NextEntryPacksMaxAndRef) {
  const KV e = make_next_entry(12345, 678);
  EXPECT_EQ(next_entry_max(e), 12345u);
  EXPECT_EQ(next_entry_ref(e), 678u);
  // Updating max and next together is a single 64-bit write (§4.2.2).
  static_assert(sizeof(KV) == 8);
}

TEST(ChunkEntries, LockStates) {
  EXPECT_EQ(lock_entry_state(make_lock_entry(kUnlocked)), kUnlocked);
  EXPECT_EQ(lock_entry_state(make_lock_entry(kLocked)), kLocked);
  EXPECT_EQ(lock_entry_state(make_lock_entry(kZombie)), kZombie);
}

// ---- huge-page advice -------------------------------------------------------
//
// /proc/self/smaps marks a range advised MADV_HUGEPAGE with VmFlags "hg"
// whether or not the kernel actually handed out huge pages, so these checks
// do not depend on free memory or the THP defrag setting.

using Span = std::pair<std::uintptr_t, std::uintptr_t>;  // [first, second)

constexpr std::uintptr_t kHugeBlock = std::uintptr_t{2} << 20;

std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

/// [lo, hi) rounded inward to whole 2 MB blocks; empty when none fits.
std::vector<Span> inward_blocks(std::uintptr_t lo, std::uintptr_t hi) {
  const std::uintptr_t b = (lo + kHugeBlock - 1) & ~(kHugeBlock - 1);
  const std::uintptr_t e = hi & ~(kHugeBlock - 1);
  if (b >= e) return {};
  return {{b, e}};
}

/// The parts of [lo, hi) that smaps marks "hg", adjacent parts merged;
/// nullopt when smaps cannot be read.
std::optional<std::vector<Span>> advised_within(std::uintptr_t lo,
                                                std::uintptr_t hi) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return std::nullopt;
  std::vector<Span> out;
  bool seen_header = false;
  std::uintptr_t vma_lo = 0, vma_hi = 0;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long long a = 0, b = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &a, &b) == 2) {
      seen_header = true;
      vma_lo = static_cast<std::uintptr_t>(a);
      vma_hi = static_cast<std::uintptr_t>(b);
      continue;
    }
    if (line.rfind("VmFlags:", 0) != 0) continue;
    std::istringstream flags(line.substr(8));
    bool hg = false;
    for (std::string f; flags >> f;) hg = hg || f == "hg";
    const std::uintptr_t b0 = std::max(lo, vma_lo);
    const std::uintptr_t e0 = std::min(hi, vma_hi);
    if (!hg || b0 >= e0) continue;
    if (!out.empty() && out.back().second == b0) {
      out.back().second = e0;
    } else {
      out.emplace_back(b0, e0);
    }
  }
  if (!seen_header) return std::nullopt;
  return out;
}

/// Why the advice cannot be observed here; empty when it can.
std::string advice_unobservable() {
  if (!std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled").good()) {
    return "kernel without transparent huge pages";
  }
  if (!advised_within(0, 1)) return "/proc/self/smaps unreadable";
  return {};
}

TEST(HugePageAdvice, BulkLoadAdvisesExactlyItsInwardRoundedRange) {
  if (const auto why = advice_unobservable(); !why.empty()) GTEST_SKIP() << why;
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.team_size = 8;  // 64 B chunks holding 4 keys each after a rebuild
  cfg.pool_chunks = 1u << 18;
  Gfsl sl(cfg, &mem);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 1; k <= 400'000; ++k) pairs.emplace_back(k, k);
  sl.bulk_load(pairs);
  const ChunkArena& a = sl.arena();
  // The reset hands the layout every index from 0, and it takes exactly
  // [0, high_water): ~6.4 MB, so two or three whole blocks.
  const auto want =
      inward_blocks(addr(a.entries(0)), addr(a.entries(a.high_water())));
  ASSERT_FALSE(want.empty());
  ASSERT_GE(want[0].second - want[0].first, 2 * kHugeBlock);
  const auto got =
      advised_within(addr(a.entries(0)), addr(a.entries(a.capacity())));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
}

TEST(HugePageAdvice, OnlyTheRangeTheFreeListCannotCoverIsAdvised) {
  if (const auto why = advice_unobservable(); !why.empty()) GTEST_SKIP() << why;
  ChunkArena a(32, 64'000);  // 256 B chunks, a 16.4 MB mapping
  for (int i = 0; i < 21'000; ++i) ASSERT_NE(a.alloc_locked(), NULL_CHUNK);
  for (ChunkRef r = 0; r < 20'000; ++r) a.recycle(r);  // 5.1 MB of them
  std::vector<ChunkRef> recycled;
  a.take_unwritten(10'000, &recycled);  // the free-list covers it all
  const auto whole = [&] {
    return advised_within(addr(a.entries(0)), addr(a.entries(a.capacity())));
  };
  ASSERT_TRUE(whole().has_value());
  EXPECT_TRUE(whole()->empty());
  // The other 10,000 recycled, then fresh: bump indices [21000, 41000).
  a.take_unwritten(30'000, &recycled);
  EXPECT_EQ(*whole(), inward_blocks(addr(a.entries(21'000)),
                                    addr(a.entries(41'000))));
}

TEST(HugePageAdvice, LayoutUnderOneBlockAdvisesNothing) {
  if (const auto why = advice_unobservable(); !why.empty()) GTEST_SKIP() << why;
  ChunkArena a(32, 48'000);
  std::vector<ChunkRef> recycled;
  a.take_unwritten(8'000, &recycled);  // 2,048,000 B: under 2 MiB anywhere
  const auto got =
      advised_within(addr(a.entries(0)), addr(a.entries(a.capacity())));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(HugePageAdvice, RegionBackedArenaIsNeverAdvised) {
  if (const auto why = advice_unobservable(); !why.empty()) GTEST_SKIP() << why;
  const std::string path = testing::TempDir() + "gfsl_huge_page_advice.region";
  {
    device::PersistRegion region(path, device::PersistRegion::Mode::kCreate,
                                 device::PersistGeometry{32, 48'000});
    ChunkArena a(32, 48'000, &region);
    std::vector<ChunkRef> recycled;
    a.take_unwritten(40'000, &recycled);
    const auto got =
        advised_within(addr(a.entries(0)), addr(a.entries(a.capacity())));
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->empty());
  }
  std::remove(path.c_str());
}

// ---- lazy arenas -----------------------------------------------------------
//
// Set-up writes only what the structure keeps: the snapshot record arena
// and chain heads and the chunk arena's free links are zero-filled mappings
// that neither construction nor bulk_load's resets write, so none of their
// pages is resident until a record is handed out or an index is recycled.

/// Resident pages of [p, p + bytes); nullopt when mincore is unavailable.
std::optional<std::size_t> resident_pages(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t lo = addr(p) & ~(page - 1);
  const std::uintptr_t hi = addr(p) + bytes;
  std::vector<unsigned char> in_core((hi - lo + page - 1) / page);
  if (::mincore(reinterpret_cast<void*>(lo), hi - lo, in_core.data()) != 0) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(
      std::count_if(in_core.begin(), in_core.end(),
                    [](unsigned char c) { return (c & 1u) != 0; }));
}

TEST(LazyArenas, SetUpTouchesNoRecordOrFreeLinkPage) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 14;
  SnapshotManager snaps(cfg.pool_chunks);  // 65,536 records, 2 MB
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, &snaps);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 1; k <= 100'000; ++k) pairs.emplace_back(k, k);
  sl.bulk_load(pairs);
  sl.bulk_load(pairs);  // a second reset of both arenas
  const auto records = resident_pages(
      &snaps.rec(0), sizeof(VersionRec) * snaps.record_capacity());
  if (!records) GTEST_SKIP() << "mincore unavailable";
  EXPECT_EQ(*records, 0u) << "of the record arena's pages";
  const auto links = resident_pages(sl.arena().free_links(),
                                    sizeof(std::uint32_t) * cfg.pool_chunks);
  ASSERT_TRUE(links.has_value());
  EXPECT_EQ(*links, 0u) << "of the free-link pages";
  const auto heads = resident_pages(
      snaps.chain_heads(), sizeof(std::atomic<RecIdx>) * cfg.pool_chunks);
  ASSERT_TRUE(heads.has_value());
  EXPECT_EQ(*heads, 0u) << "of the chain-head pages";
}

}  // namespace
}  // namespace gfsl::core
