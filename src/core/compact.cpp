// Between-kernel compaction — the memory-reclamation scheme the thesis
// sketches as future work (§4.1: "A possible reclamation scheme would be to
// compact the structure between kernel launches").
//
// Runs host-side at quiescence: collects the live bottom-level pairs, resets
// the pool, and rebuilds a dense structure with every chunk filled to a
// target factor and exactly one key raised per chunk (the ideal p_chunk = 1
// shape, §3).  All zombie and stale chunks are reclaimed.  The layout also
// publishes the foresight table it implies (DESIGN.md §14), so no bottom
// walk has to rediscover it.
#include "core/gfsl.h"

#include <algorithm>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/foresight.h"

namespace gfsl::core {

namespace {

// Fill to 3/4 so the rebuilt chunks absorb inserts without immediate
// splits and deletes without immediate merges.
int layout_fill(const ChunkArena& arena) {
  return std::max(1, arena.dsize() * 3 / 4);
}

}  // namespace

std::uint64_t Gfsl::layout_chunks(std::size_t pairs) const {
  const auto fill = static_cast<std::uint64_t>(layout_fill(arena_));
  std::uint64_t chunks = (pairs + fill - 1) / fill;  // level 0
  std::uint64_t total = static_cast<std::uint64_t>(max_levels()) + chunks;
  for (int level = 1; level < max_levels() && chunks > 1; ++level) {
    chunks = (chunks + fill - 1) / fill;
    total += chunks;
  }
  return total;
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
  // Each chunk is taken unwritten and written once, with its final image:
  // its first `filled` entries by the caller, then here the EMPTY rest, its
  // max with no next yet (the chunk laid out after it links itself in), the
  // unlocked lock and, last, the stamp alloc_locked() would publish.  The
  // fresh part of the range it takes sits on huge pages.
  const int fill = layout_fill(arena_);
  const int dsize = arena_.dsize();
  const int next_slot = arena_.next_slot();
  const int lock_slot = arena_.lock_slot();
  arena_.advise_huge_pages(layout_chunks(pairs.size()));
  auto take = [&](int level) {
    const ChunkRef ch = arena_.take_unwritten();
    if (ch == NULL_CHUNK) throw std::bad_alloc();
    set_chunk_level(ch, level);
    return ch;
  };
  auto finish = [&](ChunkRef ch, std::atomic<KV>* slot, int filled,
                    Key max_key) {
    for (int i = filled; i < dsize; ++i) {
      slot[i].store(KV_EMPTY, std::memory_order_relaxed);
    }
    slot[next_slot].store(make_next_entry(max_key, NULL_CHUNK),
                          std::memory_order_relaxed);
    slot[lock_slot].store(make_lock_entry(kUnlocked),
                          std::memory_order_release);
    arena_.publish_generation(ch);
  };

  // Recreate the per-level head chunks exactly as construction does.
  ChunkRef below = NULL_CHUNK;
  for (int level = 0; level < max_levels(); ++level) {
    const ChunkRef ch = take(level);
    std::atomic<KV>* slot = arena_.entries(ch);
    const Value down = (level == 0) ? Value{0} : static_cast<Value>(below);
    slot[0].store(make_kv(KEY_NEG_INF, down), std::memory_order_relaxed);
    finish(ch, slot, 1, KEY_INF);
    head_[static_cast<std::size_t>(level)].store(ch, std::memory_order_relaxed);
    level_chunks_[static_cast<std::size_t>(level)].store(
        0, std::memory_order_relaxed);
    below = ch;
  }

  // The foresight table of this layout, offered chunk by chunk as level 0
  // is written: the head covers keys above -inf, and each data chunk the
  // keys above its predecessor's max — the bound the walk would read.
  // Reading those bounds back from the input afterwards cost ~6 ms of cache
  // misses at 4M pairs.
  std::optional<ForesightIndex::Sampler> sample;
  if (foresight_ != nullptr) {
    sample.emplace(*foresight_,
                   pairs.size() / static_cast<std::size_t>(fill) + 2);
    const ChunkRef head = head_[0].load(std::memory_order_relaxed);
    sample->offer(KEY_NEG_INF, head, arena_.generation(head));
  }

  // Lay `entries` (values are user values at level 0 and chunk references
  // above) out as `level`'s data chunks after its head; returns the first
  // key and ref of every chunk made — the entries of the level above.
  // Level 0 reads `pairs` in place, so no copy of the input is ever made,
  // and checks them on the way: every key a user key strictly above its
  // predecessor (upper levels hold level-0 keys, so they pass by
  // construction).
  using Entries = std::vector<std::pair<Key, Value>>;
  auto fill_level = [&](int level, const Entries& entries) {
    ChunkRef tail = head_[static_cast<std::size_t>(level)].load(
        std::memory_order_relaxed);
    Entries raised;
    raised.reserve((entries.size() + static_cast<std::size_t>(fill) - 1) /
                   static_cast<std::size_t>(fill));
    Key prev = KEY_NEG_INF;
    for (std::size_t at = 0; at < entries.size(); at += fill) {
      const std::size_t n = std::min<std::size_t>(fill, entries.size() - at);
      const ChunkRef ch = take(level);
      // Hoisted: an atomic store makes the compiler reload the arena's
      // fields on every entry, which cost as much as the key check.
      std::atomic<KV>* slot = arena_.entries(ch);
      const std::pair<Key, Value>* in = entries.data() + at;
      for (std::size_t i = 0; i < n; ++i) {
        const Key k = in[i].first;
        if (k <= prev || k > MAX_USER_KEY) {
          throw std::invalid_argument(
              "bulk_load: key " + std::to_string(k) + " of pair " +
              std::to_string(at + i) +
              " is not a user key above its predecessor");
        }
        prev = k;
        slot[i].store(make_kv(k, in[i].second), std::memory_order_relaxed);
      }
      const bool is_final = (at + n >= entries.size());
      const Key max_key = is_final ? KEY_INF : entries[at + n - 1].first;
      finish(ch, slot, static_cast<int>(n), max_key);

      // Link after the tail.  Every data chunk is created with its final max
      // already in place; only the head chunk starts with the inf max of a
      // last chunk and must drop to its own largest key (-inf) when a data
      // chunk is linked after it.
      const KV tail_next = arena_.entry(tail, next_slot)
                               .load(std::memory_order_relaxed);
      const Key tail_max = (next_entry_max(tail_next) == KEY_INF)
                               ? KEY_NEG_INF
                               : next_entry_max(tail_next);
      arena_.entry(tail, next_slot)
          .store(make_next_entry(tail_max, ch), std::memory_order_relaxed);
      if (level == 0 && sample) {
        sample->offer(tail_max, ch, arena_.generation(ch));
      }

      raised.emplace_back(entries[at].first, static_cast<Value>(ch));
      tail = ch;
    }
    level_chunks_[static_cast<std::size_t>(level)].store(
        static_cast<std::int64_t>(raised.size()), std::memory_order_relaxed);
    return raised;
  };

  Entries raised = fill_level(0, pairs);
  for (int level = 1; level < max_levels() && raised.size() > 1; ++level) {
    raised = fill_level(level, raised);
  }

  // Every chunk above was published unlocked by direct stores, not through
  // unlock(): give the rebuilt structure its integrity baseline.
  reseal_all();

  // Publish last, so a throw anywhere above leaves the table unpublished.
  // Nothing here throws while the claim is held.
  if (sample && foresight_->claim_rebuild()) {
    foresight_->publish(sample->hints());
    foresight_->release_rebuild();
  }
}

}  // namespace gfsl::core
