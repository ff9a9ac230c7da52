// Between-kernel compaction — the memory-reclamation scheme the thesis
// sketches as future work (§4.1: "A possible reclamation scheme would be to
// compact the structure between kernel launches").
//
// Runs host-side at quiescence: collects the live bottom-level pairs, resets
// the pool, and rebuilds a dense structure with every chunk filled to a
// target factor and exactly one key raised per chunk (the ideal p_chunk = 1
// shape, §3).  All zombie and stale chunks are reclaimed.  The layout also
// publishes the foresight table it implies (DESIGN.md §14), so no bottom
// walk has to rediscover it.  Like a bulk build on the device, where each
// team of one data-parallel kernel writes its own chunks, each level is
// written as contiguous slices of chunks, one host thread per slice.
#include "core/gfsl.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/foresight.h"

namespace gfsl::core {

namespace {

// Fill to 3/4 so the rebuilt chunks absorb inserts without immediate
// splits and deletes without immediate merges.
int layout_fill(const ChunkArena& arena) {
  return std::max(1, arena.dsize() * 3 / 4);
}

using LevelChunks = std::array<std::uint64_t, Gfsl::kMaxLevels>;

// Data chunks per level of the layout of `pairs` keys: ⌈pairs/fill⌉ at
// level 0, then ⌈c/fill⌉ above each level of c > 1 chunks, none above.
LevelChunks level_chunks(std::size_t pairs, std::uint64_t fill, int levels) {
  LevelChunks chunks{};
  std::uint64_t entries = pairs;
  for (int level = 0; level < levels; ++level) {
    chunks[static_cast<std::size_t>(level)] = (entries + fill - 1) / fill;
    if (chunks[static_cast<std::size_t>(level)] <= 1) break;
    entries = chunks[static_cast<std::size_t>(level)];
  }
  return chunks;
}

// A level is cut into slices of about this many bytes of chunks, one host
// thread each (Gfsl::layout_slices).  Of 512 KiB to 4 MiB, 1 MiB gave the
// fastest set-up of both benchmark workloads on a 4-vCPU host: the 5.8 MB
// level 0 of a 500K-key load in four slices, not two or three.
constexpr std::uint64_t kSliceBytes = std::uint64_t{1} << 20;

// CPUs the calling thread may run on: the threads it starts inherit them.
std::uint64_t usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::uint64_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

// Runs slice(s) for every s in [0, slices): slice 0 on the caller, every
// other one on a thread of its own, or on the caller when no thread can be
// started (std::system_error, or std::bad_alloc for its state).  `slice`
// must not throw, so every started thread is joined.
template <typename Slice>
void run_slices(int slices, const Slice& slice) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(slices - 1));
  for (int s = 1; s < slices; ++s) {
    try {
      threads.emplace_back(std::cref(slice), s);
    } catch (const std::exception&) {
      slice(s);
    }
  }
  slice(0);
  for (std::thread& t : threads) t.join();
}

// First chunk of slice `s` of `slices` over `chunks` chunks.
std::uint64_t slice_begin(std::uint64_t chunks, int slices, int s) {
  return chunks * static_cast<std::uint64_t>(s) /
         static_cast<std::uint64_t>(slices);
}

// Returned by a slice whose pairs are all good.
constexpr std::uint64_t kAllGood = ~std::uint64_t{0};

// One level of the layout.  Its entries are the input pairs at level 0 and,
// above, the entries the level below raised: one per chunk, its first key
// and its ref.  Its own chunks raise theirs into `raise`.
struct LevelPlan {
  int level;
  std::uint64_t entries;
  std::uint64_t chunks;
  std::uint64_t first;  // take position of its first data chunk
  const KV* raised;     // above level 0: the level below's raised entries
  KV* raise;            // one per chunk of this level
};

// What every slice of one rebuild reads: the input, the chunk geometry, and
// the indices taken for the whole layout in alloc_locked()'s order —
// `recycled` first, then the fresh ones from `fresh` on — which hold the
// heads, then level 0's data chunks, then each level's above.
struct Layout {
  ChunkArena& arena;
  std::uint8_t* chunk_level;  // null when no sidecar reads it
  const std::pair<Key, Value>* pairs;
  const ChunkRef* recycled;
  std::uint64_t recycled_count;
  ChunkRef fresh;
  std::uint64_t fill;
  int dsize;
  int next_slot;
  int lock_slot;

  // The index taken `taken`-th.
  ChunkRef ref(std::uint64_t taken) const {
    return taken < recycled_count
               ? recycled[taken]
               : fresh + static_cast<ChunkRef>(taken - recycled_count);
  }

  // Ends the image of chunk `ch` whose first `filled` entries are written:
  // EMPTY up to its NEXT entry `next`, the unlocked lock and, last, the
  // stamp alloc_locked() would publish.
  void finish(ChunkRef ch, std::atomic<KV>* slot, int filled, KV next) const {
    for (int i = filled; i < dsize; ++i) {
      slot[i].store(KV_EMPTY, std::memory_order_relaxed);
    }
    slot[next_slot].store(next, std::memory_order_relaxed);
    slot[lock_slot].store(make_lock_entry(kUnlocked),
                          std::memory_order_release);
    arena.publish_generation(ch);
  }

  // Writes data chunks [begin, end) of `lv`, each once with its final image
  // (its successor's ref is known), raises each, and offers each to
  // `sample` at level 0.  Level 0 checks its keys on the way: every key a
  // user key strictly above its predecessor, the slice's first against the
  // last pair before it (upper levels hold level-0 keys, so they pass by
  // construction).  Returns the index of the first bad pair, where the
  // slice stops, or kAllGood.
  template <bool kBottom>
  std::uint64_t write_slice(const LevelPlan& lv, std::uint64_t begin,
                            std::uint64_t end,
                            ForesightIndex::Sampler* sample) const noexcept {
    // A local copy: an atomic store makes the compiler reload members on
    // every entry, which cost as much as the key check.
    const Layout self = *this;
    const auto level = static_cast<std::uint8_t>(lv.level);
    const auto key_at = [&](std::uint64_t i) {
      if constexpr (kBottom) return self.pairs[i].first;
      return kv_key(lv.raised[i]);
    };
    Key prev = begin == 0 ? KEY_NEG_INF : key_at(begin * self.fill - 1);
    ChunkRef ch = self.ref(lv.first + begin);
    for (std::uint64_t c = begin; c < end; ++c) {
      std::atomic<KV>* slot = self.arena.entries(ch);
      const Key lo = prev;  // the walk's bound: the predecessor's max
      const std::uint64_t at = c * self.fill;
      const int n = static_cast<int>(std::min(self.fill, lv.entries - at));
      if constexpr (kBottom) {
        const std::pair<Key, Value>* in = self.pairs + at;
        for (int i = 0; i < n; ++i) {
          const Key k = in[i].first;
          if (k <= prev || k > MAX_USER_KEY) return at + i;
          prev = k;
          slot[i].store(make_kv(k, in[i].second), std::memory_order_relaxed);
        }
      } else {
        const KV* in = lv.raised + at;
        for (int i = 0; i < n; ++i) {
          slot[i].store(in[i], std::memory_order_relaxed);
        }
        prev = kv_key(in[n - 1]);
      }
      const bool last = c + 1 == lv.chunks;
      const ChunkRef next = last ? NULL_CHUNK : self.ref(lv.first + c + 1);
      self.finish(ch, slot, n, make_next_entry(last ? KEY_INF : prev, next));
      if (self.chunk_level != nullptr) self.chunk_level[ch] = level;
      lv.raise[c] = make_kv(key_at(at), static_cast<Value>(ch));
      if (kBottom && sample != nullptr) {
        sample->offer(lo, ch, self.arena.generation(ch));
      }
      ch = next;
    }
    return kAllGood;
  }
};

}  // namespace

std::uint64_t Gfsl::layout_chunks(std::size_t pairs) const {
  std::uint64_t total = static_cast<std::uint64_t>(max_levels());
  for (const std::uint64_t c : level_chunks(
           pairs, static_cast<std::uint64_t>(layout_fill(arena_)),
           max_levels())) {
    total += c;
  }
  return total;
}

int Gfsl::layout_slices(std::uint64_t chunks) const {
  const std::uint64_t bytes = chunks * arena_.chunk_bytes();
  const std::uint64_t slices =
      std::min((bytes + kSliceBytes - 1) / kSliceBytes, usable_cpus());
  return static_cast<int>(std::max<std::uint64_t>(slices, 1));
}

void Gfsl::compact() {
  const auto pairs = collect();  // sorted: the bottom level is ordered
  if (epochs_ == nullptr) {
    bulk_load(pairs);  // legacy: wholesale arena reset
    return;
  }
  // The sweep below frees every index, so the layout may use the whole
  // pool; one that needs more fails here, before anything is freed.
  if (layout_chunks(pairs.size()) > arena_.capacity()) throw std::bad_alloc();
  // With reclamation active, compaction and steady-state recycling share one
  // code path: every in-use index — live, zombie, limbo'd or leaked — goes
  // through arena_.recycle() (bumping its generation stamp so any parked
  // reader still holding it restarts), the limbo lists are emptied (their
  // indices are covered by the sweep; draining them twice would double-free),
  // and the rebuild allocates back through the free-list.
  std::vector<ChunkRef> limbo;
  epochs_->drain_all(&limbo);
  const std::uint32_t hw = arena_.high_water();
  for (std::uint32_t ref = 0; ref < hw; ++ref) {
    if ((arena_.generation(static_cast<ChunkRef>(ref)) & 1u) == 0) {
      arena_.recycle(static_cast<ChunkRef>(ref));
    }
  }
  rebuild(pairs);
}

void Gfsl::bulk_load(const std::vector<std::pair<Key, Value>>& pairs) {
  // Checked before anything is freed: a layout that ran out of pool midway
  // would leave neither the old structure nor the new one.
  if (layout_chunks(pairs.size()) > arena_.capacity()) throw std::bad_alloc();
  // The reset frees every index at once: a retired chunk left in limbo
  // would later be recycled out from under the new layout.
  if (epochs_ != nullptr) {
    std::vector<ChunkRef> discard;
    epochs_->drain_all(&discard);
  }
  arena_.reset();
  try {
    rebuild(pairs);
  } catch (const std::invalid_argument&) {
    // The layout stopped at the first bad key: drop what it wrote and leave
    // the empty structure a fresh construction would have.
    arena_.reset();
    rebuild({});
    throw;
  }
}

void Gfsl::rebuild(const std::vector<std::pair<Key, Value>>& pairs) {
  // Rebuild is quiescent: version history cannot survive it (chunk refs are
  // reassigned wholesale), so the whole version store resets — every open
  // snapshot is expired via the store-generation bump and the rebuilt keys
  // act as insert_rev 0 (visible to every future snapshot).  Record indices
  // still parked in epoch ticket limbo are discarded, not freed: reset()
  // rebuilds the record free-list wholesale, so freeing them later would
  // double-free.
  if (snaps_ != nullptr) {
    if (epochs_ != nullptr) {
      std::vector<RecIdx> discard;
      epochs_->drain_all_tickets(&discard);
    }
    snaps_->reset();
  }
  // Chunk refs are reassigned wholesale: every published hint is garbage.
  // Unpublish now; the rebuild's last step publishes the new layout's table
  // (a throw before it leaves the lazy walk to republish).
  if (foresight_ != nullptr) foresight_->invalidate_all();

  // Every index is taken up front, in alloc_locked()'s order: the heads,
  // then level 0's data chunks, then each level's above.  The fresh part of
  // the range sits on huge pages.
  const auto fill = static_cast<std::uint64_t>(layout_fill(arena_));
  const LevelChunks chunks = level_chunks(pairs.size(), fill, max_levels());
  LevelChunks first{};
  std::uint64_t taken = static_cast<std::uint64_t>(max_levels());
  for (int level = 0; level < max_levels(); ++level) {
    first[static_cast<std::size_t>(level)] = taken;
    taken += chunks[static_cast<std::size_t>(level)];
  }
  std::vector<ChunkRef> recycled;
  const ChunkRef fresh = arena_.take_unwritten(taken, &recycled);
  if (fresh == NULL_CHUNK) throw std::bad_alloc();
  const Layout layout{arena_,          chunk_level_.get(), pairs.data(),
                      recycled.data(), recycled.size(),    fresh,
                      fill,            arena_.dsize(),     arena_.next_slot(),
                      arena_.lock_slot()};

  // The per-level head chunks, as construction makes them.  A head is a
  // last chunk (max inf) until a data chunk follows it; then its max is its
  // own largest key, -inf.
  for (int level = 0; level < max_levels(); ++level) {
    const auto l = static_cast<std::size_t>(level);
    const ChunkRef ch = layout.ref(l);
    std::atomic<KV>* slot = arena_.entries(ch);
    const Value down =
        (level == 0) ? Value{0} : static_cast<Value>(layout.ref(l - 1));
    slot[0].store(make_kv(KEY_NEG_INF, down), std::memory_order_relaxed);
    layout.finish(ch, slot, 1,
                  chunks[l] == 0
                      ? make_next_entry(KEY_INF, NULL_CHUNK)
                      : make_next_entry(KEY_NEG_INF, layout.ref(first[l])));
    set_chunk_level(ch, level);
    head_[l].store(ch, std::memory_order_relaxed);
    level_chunks_[l].store(static_cast<std::int64_t>(chunks[l]),
                           std::memory_order_relaxed);
  }

  // Level 0, checked as it is written.  It also yields the foresight table
  // of this layout: the head is offer 0 (covering keys above -inf) and data
  // chunk c offer c + 1 (covering the keys above its predecessor's max, the
  // bound the walk would read).  Each slice samples its own run of offers;
  // slice 0's sampler takes the head's and then, appended, every later
  // slice's, so the hints match one sampler fed every offer.
  const int slices = layout_slices(chunks[0]);
  std::vector<ForesightIndex::Sampler> samples;
  if (foresight_ != nullptr) {
    samples.reserve(static_cast<std::size_t>(slices));
    for (int s = 0; s < slices; ++s) {
      const std::uint64_t b = slice_begin(chunks[0], slices, s);
      const std::uint64_t e = slice_begin(chunks[0], slices, s + 1);
      samples.emplace_back(*foresight_, s == 0 ? chunks[0] + 1 : e - b,
                           s == 0 ? 0 : b + 1);
    }
    const ChunkRef head = layout.ref(0);
    samples[0].offer(KEY_NEG_INF, head, arena_.generation(head));
  }
  // Each level raises its chunks' first keys and refs as the entries of
  // the level above: level 0 into the first c0 entries, level 1 into the
  // c1 after them, and on, alternating.
  const auto raised = std::make_unique_for_overwrite<KV[]>(
      static_cast<std::size_t>(chunks[0] + chunks[1]));
  const auto raise_to = [&](int level) {
    return raised.get() + (level % 2 == 0 ? 0 : chunks[0]);
  };
  const LevelPlan bottom{0, pairs.size(), chunks[0], first[0], nullptr,
                         raise_to(0)};
  std::vector<std::uint64_t> bad(static_cast<std::size_t>(slices), kAllGood);
  run_slices(slices, [&](int s) noexcept {
    bad[static_cast<std::size_t>(s)] = layout.write_slice<true>(
        bottom, slice_begin(chunks[0], slices, s),
        slice_begin(chunks[0], slices, s + 1),
        samples.empty() ? nullptr : &samples[static_cast<std::size_t>(s)]);
  });
  // The lowest bad pair, whichever slice finished first.
  const std::uint64_t at = *std::min_element(bad.begin(), bad.end());
  if (at != kAllGood) {
    throw std::invalid_argument(
        "bulk_load: key " + std::to_string(pairs[at].first) + " of pair " +
        std::to_string(at) + " is not a user key above its predecessor");
  }
  for (std::size_t s = 1; s < samples.size(); ++s) {
    samples[0].append(samples[s]);
  }

  for (int level = 1; level < max_levels(); ++level) {
    const auto l = static_cast<std::size_t>(level);
    if (chunks[l] == 0) break;
    const LevelPlan lv{level,    chunks[l - 1],       chunks[l],
                       first[l], raise_to(level - 1), raise_to(level)};
    const int n = layout_slices(lv.chunks);
    run_slices(n, [&](int s) noexcept {
      layout.write_slice<false>(lv, slice_begin(lv.chunks, n, s),
                                slice_begin(lv.chunks, n, s + 1), nullptr);
    });
  }

  // Every chunk above was published unlocked by direct stores, not through
  // unlock(): give the rebuilt structure its integrity baseline.
  reseal_all();

  // Publish last, so a throw anywhere above leaves the table unpublished.
  // Nothing here throws while the claim is held.
  if (!samples.empty() && foresight_->claim_rebuild()) {
    foresight_->publish(samples[0].hints());
    foresight_->release_rebuild();
  }
}

}  // namespace gfsl::core
