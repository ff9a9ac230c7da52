#include "core/chunk.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gfsl::core {

namespace {

// Region-backed atomics are placed into the mapped file by address; both
// properties below are what make that representation-stable: the atomic is
// exactly its value word (no embedded lock) and same-sized as the plain type.
static_assert(std::atomic<KV>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(sizeof(std::atomic<KV>) == sizeof(KV));
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));

}  // namespace

ChunkArena::ChunkArena(int entries_per_chunk, std::uint32_t capacity,
                       device::PersistRegion* region)
    : n_(entries_per_chunk), capacity_(capacity) {
  if (n_ < 8 || n_ > 32 || (n_ & (n_ - 1)) != 0) {
    throw std::invalid_argument("chunk size must be a power of two in [8, 32]");
  }
  if (capacity == 0) {
    throw std::invalid_argument("chunk arena capacity must be positive");
  }
  if (region == nullptr) {
    // Zeroed on first touch, exactly what value-initialized atomics held.
    slots_own_ = device::map_zeroed<std::atomic<KV>>(
        static_cast<std::size_t>(n_) * capacity);
    gen_own_ = device::map_zeroed<std::atomic<std::uint32_t>>(capacity);
    free_next_own_ = device::map_zeroed<std::atomic<std::uint32_t>>(capacity);
    slots_ = slots_own_.get();
    gen_ = gen_own_.get();
    free_next_ = free_next_own_.get();
    next_ = &ctl_own_.next;
    free_count_ = &ctl_own_.free_count;
    free_head_ = &ctl_own_.free_head;
  } else {
    if (region->geometry().entries_per_chunk !=
            static_cast<std::uint32_t>(n_) ||
        region->geometry().capacity != capacity_) {
      throw std::invalid_argument(
          "persist region geometry does not match the arena configuration");
    }
    slots_ = static_cast<std::atomic<KV>*>(region->chunk_slots());
    gen_ = static_cast<std::atomic<std::uint32_t>*>(region->generations());
    free_next_ = static_cast<std::atomic<std::uint32_t>*>(region->free_links());
    auto* ctl = static_cast<Control*>(region->arena_control());
    static_assert(sizeof(Control) <= device::PersistRegion::kArenaControlBytes);
    // The durable MVCC revision lives at byte 16 of this section
    // (PersistRegion::durable_rev); the arena must not grow into it.
    static_assert(sizeof(Control) <= 16);
    next_ = &ctl->next;
    free_count_ = &ctl->free_count;
    free_head_ = &ctl->free_head;
    if (!region->fresh()) {
      // Attach: the stored arena state IS the arena.  Gfsl::recover()
      // re-derives the free-list and normalizes torn allocations before the
      // structure serves anything.
      return;
    }
    // A fresh region is the durable empty image, written once.
    for (std::uint32_t i = 0; i < capacity; ++i) {
      gen_[i].store(0, std::memory_order_relaxed);
      free_next_[i].store(NULL_CHUNK, std::memory_order_relaxed);
    }
  }
  reset();
}

ChunkRef ChunkArena::pop_free() {
  std::uint64_t h = free_head_->load(std::memory_order_acquire);
  while (head_index(h) != NULL_CHUNK) {
    const std::uint32_t idx = head_index(h);
    const std::uint32_t nxt = free_next_[idx].load(std::memory_order_relaxed);
    // The tag is bumped only on push, so the popped node's `free_next_` read
    // above is stable across a successful CAS: a concurrent pop+repush of
    // `idx` would have changed the tag.
    if (free_head_->compare_exchange_weak(h, pack_head(head_tag(h), nxt),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      free_count_->fetch_sub(1, std::memory_order_relaxed);
      // Generation protocol: an index coming off the free-list is mid-flip —
      // recycle() made it odd and it stays odd until this allocation's last
      // initialization store.
      assert((gen_[idx].load(std::memory_order_relaxed) & 1u) != 0 &&
             "free-list entry with an even (in-use) generation");
      return idx;
    }
  }
  return NULL_CHUNK;
}

ChunkRef ChunkArena::alloc_locked(std::uint32_t owner_word) {
  // Recycled indices first (LIFO keeps the working set hot), bump fallback.
  ChunkRef ref = pop_free();
  if (ref == NULL_CHUNK) {
    const std::uint32_t idx = next_->fetch_add(1, std::memory_order_relaxed);
    if (idx >= capacity_) {
      next_->fetch_sub(1, std::memory_order_relaxed);
      return NULL_CHUNK;  // exhaustion is a value, not an exception
    }
    ref = idx;
  }
  // Seqlock write phase: the generation stays *odd* (recycle() flipped it)
  // for the entire initialization, so a reader that samples the stamp at any
  // point inside this window rejects the read.  Only after the last store
  // does the generation go even — publishing the stamp before (or amid) the
  // stores would let a reader whose read falls entirely inside the init
  // window accept a torn mix of retired-lifetime and fresh contents.
  std::atomic<KV>* e = entries(ref);
  for (int i = 0; i < dsize(); ++i) {
    e[i].store(KV_EMPTY, std::memory_order_relaxed);
  }
  e[next_slot()].store(make_next_entry(KEY_INF, NULL_CHUNK),
                       std::memory_order_relaxed);
  // Release so a team that later reaches this chunk through an atomically
  // published pointer observes the initialized contents.
  e[lock_slot()].store(make_lock_entry(kLocked, owner_word),
                       std::memory_order_release);
  // Transition to "in use" (even) as the last step.
  publish_generation(ref);
  return ref;
}

ChunkRef ChunkArena::take_unwritten(std::uint64_t count,
                                    std::vector<ChunkRef>* recycled) {
  recycled->clear();
  if (count > capacity_ || !can_alloc(static_cast<std::uint32_t>(count))) {
    return NULL_CHUNK;
  }
  recycled->reserve(std::min<std::uint64_t>(count, free_count()));
  while (recycled->size() < count) {
    const ChunkRef ref = pop_free();
    if (ref == NULL_CHUNK) break;
    recycled->push_back(ref);
  }
  // Quiescent: nobody else bumps, so a plain load and store replace the
  // fetch_add.
  const std::uint32_t first = next_->load(std::memory_order_relaxed);
  const auto last =
      first + static_cast<std::uint32_t>(count - recycled->size());
  next_->store(last, std::memory_order_relaxed);
  advise_huge_pages(first, last);
  return first;
}

void ChunkArena::advise_huge_pages(std::uint32_t first, std::uint32_t last) {
  if (slots_own_ == nullptr) return;  // a region's file mapping
  constexpr std::uintptr_t kBlock = std::uintptr_t{2} << 20;
  const auto lo = reinterpret_cast<std::uintptr_t>(entries(first));
  const auto hi = reinterpret_cast<std::uintptr_t>(entries(last));
  const std::uintptr_t begin = (lo + kBlock - 1) & ~(kBlock - 1);
  const std::uintptr_t end = hi & ~(kBlock - 1);
  if (begin < end) {
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
  }
}

void ChunkArena::recycle(ChunkRef ref) {
  // Generation protocol: only an in-use (even) chunk may be recycled; a
  // second recycle of the same lifetime would flip it back to "in use" while
  // it sits on the free-list.
  assert((gen_[ref].load(std::memory_order_relaxed) & 1u) == 0 &&
         "recycle of a chunk that is already free (odd generation)");
  // Odd = free.  acq_rel: release publishes every store of the retiring
  // lifetime before the stamp flips, so a reader whose post-read stamp still
  // matches its pre-read stamp is guaranteed a consistent snapshot.
  gen_[ref].fetch_add(1, std::memory_order_acq_rel);
  std::uint64_t h = free_head_->load(std::memory_order_relaxed);
  for (;;) {
    free_next_[ref].store(head_index(h), std::memory_order_relaxed);
    if (free_head_->compare_exchange_weak(h, pack_head(head_tag(h) + 1, ref),
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  free_count_->fetch_add(1, std::memory_order_relaxed);
}

void ChunkArena::reset() {
  next_->store(0, std::memory_order_relaxed);
  free_head_->store(pack_head(0, NULL_CHUNK), std::memory_order_relaxed);
  free_count_->store(0, std::memory_order_relaxed);
}

void ChunkArena::rebuild_free(const std::vector<ChunkRef>& free_refs) {
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    free_next_[i].store(NULL_CHUNK, std::memory_order_relaxed);
  }
  std::uint32_t head = NULL_CHUNK;
  for (const ChunkRef ref : free_refs) {
    const std::uint32_t g = gen_[ref].load(std::memory_order_relaxed);
    if ((g & 1u) == 0) {
      // A torn allocation (killed mid-init) or an unreachable in-use chunk:
      // flip it free.  Already-odd stamps stay put so re-running recovery
      // reproduces the same image bit for bit.
      gen_[ref].store(g + 1, std::memory_order_relaxed);
    }
    free_next_[ref].store(head, std::memory_order_relaxed);
    head = ref;
  }
  free_head_->store(pack_head(0, head), std::memory_order_relaxed);
  free_count_->store(static_cast<std::uint32_t>(free_refs.size()),
                     std::memory_order_relaxed);
}

}  // namespace gfsl::core
