// Chunk storage for GFSL (§3, Figure 3.1; §4.1).
//
// A chunk of size N is an array of N 8-byte entries:
//
//   [ DATA 0 .. DATA N-3 | NEXT (max key | next ref) | LOCK ]
//
// The first N-2 entries hold sorted key/value pairs with EMPTY (key == inf)
// entries grouped at the end.  The NEXT entry packs the chunk's max key in
// its key half and the next-chunk reference in its value half, so both are
// updated with one atomic 64-bit write (§4.2.2: "Both of these changes are
// performed with a single atomic write by the NEXT thread").  The LOCK entry
// encodes unlocked / locked / zombie in its key half; when locked, its value
// half carries the holder's *lease word* (team id + epoch, sched/lease.h) so
// peers can attribute the hold and recover it if the holder crashes.  Word 0
// is the anonymous legacy owner: such locks are never considered expired.
//
// Chunks live in a dense arena addressed by 32-bit ChunkRefs; a chunk of N
// entries is N*8 bytes (128 B for N=16, 256 B for N=32 — the two sizes the
// paper evaluates), so ChunkRef * N * 8 is the chunk's synthetic device
// address for the coalescing/cache model.
//
// Reclamation (DESIGN.md §9): the arena is no longer bump-only.  `recycle`
// pushes an index onto a lock-free LIFO free-list (Treiber stack with a
// tagged head so free-list pops are themselves ABA-safe) and `alloc_locked`
// pops from it before falling back to the bump pointer.  Each chunk carries
// a *generation stamp*: odd while on the free-list (and throughout the next
// lifetime's initialization), even while in use, and bumped on both
// transitions.  A lock-free reader samples the stamp when it *acquires* a
// chunk reference and validates every read of that chunk against the sample
// (seqlock discipline, Gfsl::guard_ref/read_chunk_checked), restarting its
// traversal on mismatch — index reuse is detectable even though the reused
// lifetime's own pre/post stamps are internally consistent and the
// zombie-skip logic cannot distinguish the old chunk from its reincarnation
// by contents alone.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "device/persist.h"
#include "device/zeroed.h"

namespace gfsl::core {

/// LOCK entry states, stored in the key half of the LOCK entry.
enum LockState : Key {
  kUnlocked = 0,
  kLocked = 1,
  kZombie = 2,  // terminal: zombies are never unlocked or relocked (§4.1)
};

class ChunkArena {
 public:
  /// `entries_per_chunk` is N (== team size); must be a power of two in
  /// [8, 32].  `capacity` is the total number of chunks in the pool.
  ///
  /// With `region == nullptr` the arena owns its storage: the chunk slots,
  /// the stamps and the free-list links are zero-filled anonymous mappings
  /// (device/zeroed.h), each page first touched where it is used.  The
  /// slots sit on 4 KiB pages except the whole 2 MB blocks a quiescent
  /// layout takes fresh (take_unwritten); a zero stamp is the initial
  /// stamp; and a link is written by recycle() or rebuild_free() before
  /// pop_free() reads it, so neither construction nor reset() writes one.
  /// With a PersistRegion attached, the chunk slots, generation stamps,
  /// free-list linkage and the control words (bump pointer, tagged free
  /// head, free count) all live inside the mapped file: a fresh region is
  /// written once to the empty-arena state (its durable empty image), an
  /// attached region's stored state is adopted as-is (the caller is
  /// expected to run Gfsl::recover() before serving).  The region's
  /// geometry must match.
  ChunkArena(int entries_per_chunk, std::uint32_t capacity,
             device::PersistRegion* region = nullptr);

  /// Allocate one chunk, "allocated locked with inf values in all key-data
  /// pairs, as well as in the max field" (§4.1).  The inf max marks it as a
  /// (potential) last chunk until the split fills it in.  `owner_word` is
  /// the allocating team's lease word, stamped into the born-held lock so
  /// that a chunk published by a team that then crashes remains recoverable.
  /// Recycled indices are preferred (LIFO) over fresh bump indices.
  /// Returns NULL_CHUNK on exhaustion — the hot path never throws.
  ChunkRef alloc_locked(std::uint32_t owner_word = 0);

  /// Return a chunk to the free-list.  The caller must guarantee no team
  /// can still *acquire* a reference to it (epoch grace period + reference
  /// scan, device/epoch.h); parked readers that already hold the ref detect
  /// the reuse via the generation stamp.  Flips the generation to odd.
  void recycle(ChunkRef ref);

  /// Generation stamp of `ref`.  Even = in use, odd = on the free-list.
  std::uint32_t generation(
      ChunkRef ref, std::memory_order mo = std::memory_order_acquire) const {
    return gen_[ref].load(mo);
  }

  /// True if `count` more allocations would succeed right now (bump headroom
  /// plus recycled chunks).
  bool can_alloc(std::uint32_t count = 1) const {
    const auto bumped = next_->load(std::memory_order_relaxed);
    const std::uint32_t headroom = bumped < capacity_ ? capacity_ - bumped : 0;
    return headroom + free_count_->load(std::memory_order_relaxed) >= count;
  }

  std::atomic<KV>* entries(ChunkRef ref) {
    return slots_ + static_cast<std::size_t>(ref) * n_;
  }
  const std::atomic<KV>* entries(ChunkRef ref) const {
    return slots_ + static_cast<std::size_t>(ref) * n_;
  }

  std::atomic<KV>& entry(ChunkRef ref, int i) { return entries(ref)[i]; }

  int entries_per_chunk() const { return n_; }
  int dsize() const { return n_ - 2; }
  int next_slot() const { return n_ - 2; }
  int lock_slot() const { return n_ - 1; }

  std::uint32_t capacity() const { return capacity_; }
  /// Chunks currently *in use* (bump high-water minus free-list population).
  /// With reclamation this is the live+zombie footprint, not a lifetime
  /// allocation count.
  std::uint32_t allocated() const {
    const auto hw = high_water();
    const auto freed = free_count_->load(std::memory_order_relaxed);
    return freed < hw ? hw - freed : 0;
  }
  /// Highest index ever handed out (sweep bound: recycled chunks keep their
  /// slots, so full-arena scans must walk [0, high_water)).
  std::uint32_t high_water() const {
    const auto v = next_->load(std::memory_order_relaxed);
    return v < capacity_ ? v : capacity_;
  }
  std::uint32_t free_count() const {
    return free_count_->load(std::memory_order_relaxed);
  }
  std::uint32_t chunk_bytes() const { return static_cast<std::uint32_t>(n_) * 8u; }

  std::uint64_t device_address(ChunkRef ref) const {
    return static_cast<std::uint64_t>(ref) * chunk_bytes();
  }
  std::uint64_t entry_address(ChunkRef ref, int i) const {
    return device_address(ref) + static_cast<std::uint64_t>(i) * 8u;
  }

  /// Reset the bump pointer and drop the free-list (quiescent only; every
  /// Gfsl::bulk_load starts with it).  No link is written: the emptied
  /// list is only ever read past links a later push writes.  Generation
  /// stamps survive so parked-reader tests that straddle a reset still see
  /// monotone stamps; odd stamps are normalized back to even by the next
  /// publish of that index.
  void reset();

  /// The free-list link array (one word per index), for white-box tests
  /// that check which of its pages were ever touched.
  const void* free_links() const { return free_next_; }

  // --- Quiescent layout (Gfsl::rebuild) --------------------------------------
  //
  // A rebuild writes each chunk's whole final image itself, so it takes all
  // its indices at once in alloc_locked()'s order (recycled first, then
  // fresh bump indices) but skips the born-locked EMPTY image and the atomic
  // bump, and ends each chunk with the same publish_generation()
  // alloc_locked() ends with.

  /// The next `count` indices alloc_locked() would hand out, taken without
  /// writing them: each stamp stays as it was until the caller has written
  /// the whole image and calls publish_generation().  The recycled ones are
  /// popped into `recycled` (LIFO order); the rest are the fresh bump
  /// indices [returned, returned + count - recycled->size()).  The whole
  /// 2 MB blocks of address inside that fresh range are advised huge pages
  /// (MADV_HUGEPAGE), so a layout under one block keeps 4 KiB pages and
  /// their smaller RSS.  Only the owned mapping is advised, never a
  /// region's file mapping, and errors (EINVAL without THP) are ignored:
  /// it is advice.  Returns NULL_CHUNK, taking nothing, when fewer than
  /// `count` indices are available.
  ChunkRef take_unwritten(std::uint64_t count, std::vector<ChunkRef>* recycled);

  /// The seqlock publish that ends every chunk initialization: an odd stamp
  /// (recycled, or left odd across a reset) goes even as the last step, with
  /// release so the image's stores are visible before the stamp a reader
  /// validates against.  Bump-fresh indices are born even and need no flip.
  void publish_generation(ChunkRef ref) {
    if ((gen_[ref].load(std::memory_order_relaxed) & 1u) != 0) {
      gen_[ref].fetch_add(1, std::memory_order_release);
    }
  }

  /// Quiescent (recovery only): normalize a reachable chunk's stamp back to
  /// even.  A reachable odd stamp cannot arise from any legal crash
  /// interleaving (alloc flips the stamp even before the link that makes
  /// the chunk reachable publishes); it is damage in the stamp word itself,
  /// and bumping it keeps the index off the rebuilt free-list.
  void force_even_generation(ChunkRef ref) {
    const auto g = gen_[ref].load(std::memory_order_relaxed);
    if ((g & 1u) != 0) gen_[ref].store(g + 1, std::memory_order_release);
  }

  /// Quiescent (recovery only): replace the free-list wholesale.  Every ref
  /// in `free_refs` gets an odd generation (bumped if currently even) and is
  /// pushed in order — the last element ends up at the head — with the head
  /// tag reset to 0, so the rebuilt linkage is a deterministic function of
  /// the input list alone (recovery idempotence depends on this).
  void rebuild_free(const std::vector<ChunkRef>& free_refs);

 private:
  // Tagged Treiber head: {tag:32 | index:32}.  The tag increments on every
  // push so a pop's CAS cannot succeed against a head that was popped and
  // re-pushed in between (free-list ABA).
  static constexpr std::uint64_t pack_head(std::uint32_t tag,
                                           std::uint32_t index) {
    return (static_cast<std::uint64_t>(tag) << 32) | index;
  }
  static constexpr std::uint32_t head_tag(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }
  static constexpr std::uint32_t head_index(std::uint64_t h) {
    return static_cast<std::uint32_t>(h);
  }

  ChunkRef pop_free();
  /// take_unwritten()'s huge-page advice for the fresh indices [first, last).
  void advise_huge_pages(std::uint32_t first, std::uint32_t last);

  int n_;
  std::uint32_t capacity_;

  // Owned backing storage, allocated only when no region is attached.  The
  // raw pointers below are the single access path either way, so the
  // detached hot path is bit-identical to the seed (one extra indirection
  // that the owned case had through unique_ptr anyway).  All three are
  // anonymous mappings: the kernel zero-fills each page on first touch, so
  // a pool sized with headroom costs resident memory only for the chunks
  // ever handed out, and the stamps and links of indices never used cost
  // nothing.  A quiescent layout advises the whole 2 MB blocks it takes
  // fresh, so a 48.8 MB bulk load faults ~22 huge pages plus the small
  // pages at its ends instead of ~11.9K small ones.
  device::ZeroedArray<std::atomic<KV>> slots_own_;
  device::ZeroedArray<std::atomic<std::uint32_t>> gen_own_;
  device::ZeroedArray<std::atomic<std::uint32_t>> free_next_own_;
  struct Control {
    std::atomic<std::uint32_t> next;
    std::atomic<std::uint32_t> free_count;
    std::atomic<std::uint64_t> free_head;
  };
  Control ctl_own_{};

  std::atomic<KV>* slots_ = nullptr;
  std::atomic<std::uint32_t>* gen_ = nullptr;
  std::atomic<std::uint32_t>* free_next_ = nullptr;
  std::atomic<std::uint32_t>* next_ = nullptr;
  std::atomic<std::uint64_t>* free_head_ = nullptr;
  std::atomic<std::uint32_t>* free_count_ = nullptr;
};

// --- Entry helpers ----------------------------------------------------------

constexpr KV make_next_entry(Key max_key, ChunkRef next) {
  return make_kv(max_key, static_cast<Value>(next));
}
constexpr Key next_entry_max(KV e) { return kv_key(e); }
constexpr ChunkRef next_entry_ref(KV e) { return static_cast<ChunkRef>(kv_value(e)); }

constexpr KV make_lock_entry(LockState s, std::uint32_t owner_word = 0) {
  return make_kv(static_cast<Key>(s), static_cast<Value>(owner_word));
}
constexpr LockState lock_entry_state(KV e) { return static_cast<LockState>(kv_key(e)); }
/// Lease word of the holder (0 = anonymous / unheld).
constexpr std::uint32_t lock_entry_owner(KV e) { return kv_value(e); }

}  // namespace gfsl::core
