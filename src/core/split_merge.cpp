// Split (Algorithm 4.9, Figure 4.4) and merge-copy (Figure 4.5c) machinery.
#include "core/gfsl.h"

#include <algorithm>

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

/// The split body (Algorithm 4.9 lines 23-33), shared by insert-splits and
/// merge-splits: allocate a fresh chunk, lock `split_ref`'s successor
/// (preSplit), copy the top DSIZE/2 entries into the fresh chunk, publish it
/// with one atomic NEXT write, and empty the moved entries.  The caller owns
/// `split_ref`'s lock; the body returns with the fresh chunk and the
/// successor still locked.  On allocation failure nothing was locked or
/// modified and `fresh` is NULL_CHUNK.
Gfsl::SplitBody Gfsl::split_body(Team& team, ChunkRef split_ref, int level) {
  team.record(simt::TraceEvent::kSplit, split_ref, static_cast<std::uint64_t>(level));
  SplitBody out;
  // Allocate before taking any further lock: exhaustion then unwinds
  // without having touched the structure (the caller still holds split_ref).
  out.fresh = alloc_chunk(team);
  if (out.fresh == NULL_CHUNK) return out;
  const ChunkRef fresh = out.fresh;
  set_chunk_level(fresh, level);
  out.after = lock_next_chunk(team, split_ref);
  const LaneVec<KV> skv = read_chunk(team, split_ref);
  const int dsz = team.dsize();
  const int half = dsz / 2;
  out.thresh = kv_key(team.shfl(skv, half - 1));
  const Key old_max = max_of(team, skv);
  const ChunkRef old_next = next_of(team, skv);

  // Fresh chunk: top half of the data, inheriting the split chunk's max and
  // next pointer ("the new chunk receives the max field of the chunk being
  // split", §4.3).  One coalesced team write; published below.
  sync_point(team);
  for (int i = half; i < dsz; ++i) {
    arena_.entry(fresh, i - half).store(skv[i], std::memory_order_relaxed);
  }
  arena_.entry(fresh, arena_.next_slot())
      .store(make_next_entry(old_max, old_next), std::memory_order_relaxed);
  mem_->warp_write(arena_.device_address(fresh),
                   static_cast<std::uint32_t>(half + 1) * 8u);
  team.step();

  // Version records for the moved span (thresh, old_max] ride along with the
  // entries: copied into the fresh chunk's chain while it is still private.
  // A crash here merely leaks the fresh chunk — records included, purged
  // when the chunk is reclaimed.  The copy is idempotent under replay.
  copy_version_records(team, split_ref, fresh, out.thresh, old_max, level);

  // Publish: new max + new next pointer in a single atomic write (§4.2.2).
  // This is the split span's first destructive store: before it, the fresh
  // chunk is unreachable and a crash merely leaks it; after it, recovery
  // rolls forward by finishing the tail clearing below.
  publish_intent(team, IntentKind::kSplit, out.thresh, split_ref, out.after,
                 fresh);
  atomic_entry_write(team, split_ref, arena_.next_slot(),
                     make_next_entry(out.thresh, fresh));
  // The donor's coverage just shrank to (.., thresh]: hints for the moved
  // span now land a chunk early (harmless, one extra lateral hop) — erode
  // the table toward its next rebuild.
  if (foresight_ != nullptr && level == 0) foresight_->mark_dirty();

  // Empty the moved entries, highest tId first; traversals give precedence
  // to the NEXT lane's (already lowered) max, so stale high entries are
  // never considered (§4.2.2).
  for (int i = dsz - 1; i >= half; --i) {
    atomic_entry_write(team, split_ref, i, KV_EMPTY);
  }
  clear_intent(team);
  // The donor's chain still holds the moved keys' records; now that its max
  // dropped to `thresh` they are out-of-range there and prunable.
  maybe_prune_records(team, split_ref);

  out.moved.count = half;
  out.moved.moved_to = fresh;
  for (int i = 0; i < half; ++i) out.moved.keys[i] = kv_key(skv[half + i]);
  return out;
}

Gfsl::MovedKeys Gfsl::split_remove(Team& team, ChunkRef next_ref, int level) {
  SplitBody s = split_body(team, next_ref, level);
  if (s.fresh == NULL_CHUNK) {
    s.moved.ok = false;
    return s.moved;
  }
  unlock(team, s.fresh);
  if (s.after != NULL_CHUNK) unlock(team, s.after);
  return s.moved;
}

Gfsl::SplitOutcome Gfsl::split_insert(Team& team, ChunkRef split_ref, Key k,
                                      Value v, int level) {
  const SplitBody s = split_body(team, split_ref, level);
  SplitOutcome out;
  out.fresh = s.fresh;
  if (s.fresh == NULL_CHUNK) {
    // Exhaustion: the caller gets its untouched, still-locked chunk back.
    out.locked = split_ref;
    return out;
  }
  out.moved = s.moved;
  const Key min_new = out.moved.keys[0];

  // insertNewData: the key lands in whichever side now encloses it.  The
  // side holding k stays locked (at level 0 it carries the bottom lock for
  // the rest of the Insert); the other side is released.
  if (k <= s.thresh) {
    const LaneVec<KV> cur = read_chunk(team, split_ref);
    execute_insert(team, split_ref, cur, k, v);
    out.locked = split_ref;
    unlock(team, s.fresh);
  } else {
    const LaneVec<KV> cur = read_chunk(team, s.fresh);
    execute_insert(team, s.fresh, cur, k, v);
    out.locked = s.fresh;
    unlock(team, split_ref);
  }
  if (s.after != NULL_CHUNK) unlock(team, s.after);

  // keyForNextLevel (§4.2.2): at level 0 raise max(k, minK) — raising minK
  // directly would need a fresh traversal; above level 0 only the key that
  // caused the split may be raised, since the bottom lock protects only it.
  out.raised_key = (level == 0) ? std::max(k, min_new) : k;

  // Repair level+1 down-pointers for the moved keys (Algorithm 4.10).
  update_down_ptrs(team, level, out.moved);
  return out;
}

void Gfsl::execute_remove_merge(Team& team, const LaneVec<KV>& enc_kv,
                                ChunkRef enc_ref, ChunkRef next_ref, Key k) {
  // Figure 4.5c: move every key but k from the underfull chunk into its
  // successor.  Both chunks are locked and adjacent, so every key in enc is
  // smaller than every key in next; the merged array is just the
  // concatenation.  On the device the new per-lane values come from a series
  // of shfls; writes land right-to-left so a concurrent traversal (which
  // gives precedence to higher tIds) never loses a key.
  team.record(simt::TraceEvent::kMerge, enc_ref, next_ref);
  const LaneVec<KV> nkv = read_chunk(team, next_ref);
  const int dsz = team.dsize();

  LaneVec<KV> merged(KV_EMPTY);
  int m = 0;
  for (int i = 0; i < dsz; ++i) {
    if (!kv_is_empty(enc_kv[i]) && kv_key(enc_kv[i]) != k) {
      merged[m++] = enc_kv[i];
    }
  }
  const int moved_in = m;
  for (int i = 0; i < dsz; ++i) {
    if (!kv_is_empty(nkv[i])) merged[m++] = nkv[i];
  }
  // Model the shfl cascade that distributes merged values to lanes.
  team.counters().shfls += static_cast<std::uint64_t>(moved_in);
  team.counters().instructions += static_cast<std::uint64_t>(moved_in);

  for (int i = m - 1; i >= 0; --i) {
    if (nkv[i] != merged[i]) {
      atomic_entry_write(team, next_ref, i, merged[i]);
    } else {
      team.step();
    }
  }
  // next's max field is unchanged: it only gained smaller keys.
}

}  // namespace gfsl::core
