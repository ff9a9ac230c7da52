// Delete (Algorithms 4.11, 4.12; Figures 4.5, 4.6): top-down removal under
// the bottom-level lock, with merge of underfull chunks.
#include "core/gfsl.h"

#include <stdexcept>

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

namespace {

// Value of `k` inside a chunk image (pre-removal), used as the value hint for
// legacy erase records (core/snapshot.h, mark_erased).
Value value_of(const LaneVec<KV>& kv, int dsz, Key k) {
  for (int i = 0; i < dsz; ++i) {
    if (!kv_is_empty(kv[i]) && kv_key(kv[i]) == k) return kv_value(kv[i]);
  }
  return 0;
}

}  // namespace

bool Gfsl::erase(Team& team, Key k) { return erase_impl(team, k, nullptr); }

bool Gfsl::erase_impl(Team& team, Key k, BatchCursor* cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kEraseOp, k);
  // Unchecked commit-half reads: as in insert_impl, a cursor outlives no pin.
  if (cur != nullptr && epochs_ != nullptr && !epochs_->pinned(team.id())) {
    cur->invalidate();
  }
  EpochScope epoch(*this, team);
  const SlowSearchResult sr = search_slow(team, k, cur);
  const bool ok = sr.found && erase_committed(team, k, sr);
  epoch.exit();
  scope.set_result(ok);
  return ok;
}

bool Gfsl::erase_committed(Team& team, Key k, const SlowSearchResult& sr) {
  // One revision for the whole op (no-op under a batch revision or without a
  // SnapshotManager).  Every remove_from_chunk below stamps under this rev.
  CommitScope commit(*this, team);
  ChunkRef bottom = team.shfl(sr.path, 0);
  bottom = find_and_lock_enclosing(team, bottom, k, 0);
  {
    const LaneVec<KV> bkv = read_chunk(team, bottom);
    if (!chunk_contains(team, bkv, k)) {
      // Concurrently deleted between search and lock.
      unlock(team, bottom);
      return false;
    }
  }

  // Re-read the height so levels added after the search are not missed
  // (Algorithm 4.11 line 12); their path lanes were initialised to the head
  // chunks by search_slow.  Holding the bottom lock, no other team can add
  // or remove k anywhere, so containment per level is stable.
  const int height = height_coop(team);
  for (int i = height; i > 0; --i) {
    const ChunkRef start = team.shfl(sr.path, i);
    // Probe before locking: checking containment first "significantly
    // reduces contention on the higher and less populated levels" (§4.2.3).
    const auto [found, ch] = find_lateral(team, k, start, i);
    if (!found) continue;
    const ChunkRef enc = find_and_lock_enclosing(team, ch, k, i);
    // A false return (merge-split OOM) leaves the stale key in the upper
    // level; that is legal under strict=false validation and the key stays
    // unreachable once removed from the bottom.
    remove_from_chunk(team, k, enc, i);  // unlocks (or zombifies) enc
  }

  // Only after k is gone from every upper level is it removed from the
  // bottom, and the bottom lock released (Algorithm 4.11 line 22).  The
  // bottom removal cannot fail: on merge-split OOM remove_from_chunk falls
  // back to a plain (merge-free) removal, so an erase that reaches this
  // point always completes instead of surfacing a partial mutation.
  remove_from_chunk(team, k, bottom, 0);
  return true;
}

bool Gfsl::remove_from_chunk(Team& team, Key k, ChunkRef enc_ref, int level) {
  const LaneVec<KV> kv = read_chunk(team, enc_ref);
  const int count = num_nonempty(team, kv);
  const int threshold = team.dsize() / 3;

  if (count > threshold) {  // plain removal, no merge
    const bool is_last = max_of(team, kv) == KEY_INF;
    publish_intent(team, IntentKind::kEraseShift, k, enc_ref);
    // Erase record BEFORE the shift, inside the intent span: a snapshot
    // older than this op keeps seeing <k, v> through the record even while
    // (or after) the entry vanishes; a crash replays the stamp idempotently.
    stamp_erase(team, enc_ref, k, value_of(kv, team.dsize(), k));
    execute_remove_no_merge(team, kv, enc_ref, k, is_last);
    clear_intent(team);
    maybe_prune_records(team, enc_ref);
    unlock(team, enc_ref);
    return true;
  }

  // Merge path: push the survivors into the next chunk.
  const ChunkRef next_ref = lock_next_chunk(team, enc_ref);
  if (next_ref == NULL_CHUNK) {
    // Never merge the last chunk in a level (§4.2.3 "Deleting From Last
    // Chunk in Level"): just remove, even if the chunk empties completely.
    remove_from_last_chunk(team, k, enc_ref, level);
    return true;
  }

  const LaneVec<KV> nkv = read_chunk(team, next_ref);
  MovedKeys split_moved;
  bool did_split = false;
  if (num_nonempty(team, nkv) + count - 1 > team.dsize()) {
    // The receiver is too full: split it first (no key inserted).
    split_moved = split_remove(team, next_ref, level);
    if (!split_moved.ok) {
      // Split allocation failed; nothing changed yet.
      unlock(team, next_ref);
      if (level == 0) {
        // The bottom removal must complete — erase_impl already removed k
        // from every upper level, so failing here would leave the structure
        // partially mutated while reporting total failure.  Skip the merge
        // and remove k plainly, tolerating the underfull chunk; a later
        // erase's merge, or compact(), re-coalesces it.  A survivor always
        // remains (a sole-key chunk never needs the receiver split), and
        // next_ref exists, so every validate() invariant still holds.
        publish_intent(team, IntentKind::kEraseShift, k, enc_ref);
        stamp_erase(team, enc_ref, k, value_of(kv, team.dsize(), k));
        execute_remove_no_merge(team, kv, enc_ref, k, /*is_last_chunk=*/false);
        clear_intent(team);
        maybe_prune_records(team, enc_ref);
        unlock(team, enc_ref);
        return true;
      }
      // Upper levels: report the merge as impossible — the stale key is
      // legal under strict=false validation and stays unreachable once
      // removed from the bottom.
      unlock(team, enc_ref);
      return false;
    }
    bump_level(level, +1);
    did_split = true;
  }

  // The merge span covers the copy *and* the zombify: recovery rolls it
  // forward from any midpoint (the union of the two chunks' survivors is
  // the intended merged array at every partial state).
  publish_intent(team, IntentKind::kMerge, k, enc_ref, next_ref);
  // Version bookkeeping inside the merge's intent span, BEFORE any entry
  // moves: first stamp k's erase on the donor, then copy the donor's whole
  // record chain to the receiver — after the merge, searches for the donor's
  // keys (k included) land in next_ref, so that is where their history must
  // live.  Both steps replay idempotently from any crash midpoint.
  stamp_erase(team, enc_ref, k, value_of(kv, team.dsize(), k));
  copy_version_records(team, enc_ref, next_ref, KEY_NEG_INF,
                       max_of(team, kv), level);
  execute_remove_merge(team, kv, enc_ref, next_ref, k);
  mark_zombie(team, enc_ref);  // terminal; the zombie is never unlocked
  // Hints naming the zombified donor now fail the non-zombie validation and
  // fall back; mark the erosion so the table republishes.
  if (foresight_ != nullptr && level == 0) foresight_->mark_dirty();
  clear_intent(team);
  bump_level(level, -1);
  maybe_prune_records(team, next_ref);
  unlock(team, next_ref);

  // Down-pointer repair after the locks are gone (Algorithm 4.12 line 27):
  // keys that migrated out of the zombie, plus any moved by the split.
  MovedKeys merged_moved;
  merged_moved.moved_to = next_ref;
  for (int i = 0; i < team.dsize(); ++i) {
    if (!kv_is_empty(kv[i]) && kv_key(kv[i]) != k) {
      merged_moved.keys[merged_moved.count++] = kv_key(kv[i]);
    }
  }
  update_down_ptrs(team, level, merged_moved);
  if (did_split) update_down_ptrs(team, level, split_moved);
  return true;
}

void Gfsl::execute_remove_no_merge(Team& team, const LaneVec<KV>& kv,
                                   ChunkRef ref, Key k, bool is_last_chunk) {
  // Figure 4.6: shift everything right of k one entry to the left, writing
  // from k's index upward so no key momentarily disappears.
  const int dsz = team.dsize();
  const std::uint32_t kb = team.ballot_fn(
      [&](int i) { return i < dsz && kv_key(kv[i]) == k; });
  const int idx = Team::lowest_lane(kb);
  const std::uint32_t nb = team.ballot_fn(
      [&](int i) { return i < dsz && !kv_is_empty(kv[i]); });
  const int last = Team::highest_lane(nb);

  if (!is_last_chunk && idx == last && last > 0 && snaps_ == nullptr) {
    // k is this chunk's max: lower the max field *before* removing it so a
    // concurrent search never sees a max that is absent from the data
    // (§4.2.3 "Delete With No Merge").  On the ordinary path the chunk is
    // above the merge threshold, so a predecessor key exists (last > 0);
    // only the merge-OOM fallback can remove a chunk's sole key, and then
    // the old max is kept — a max no key matches merely routes searches for
    // it into this chunk, where they correctly find nothing.
    //
    // With versioning attached the max stays sticky (the fallback's benign
    // routing argument): lowering it would maroon k's version record beyond
    // the chunk's range, where scan_at's cmax harvest cap, prune_chain's
    // out-of-range rule, and searches for k (now routed to the successor,
    // whose chain never had the record) all lose it.  The next split or
    // merge re-tightens the field and re-homes the record.
    const Key new_max = kv_key(team.shfl(kv, last - 1));
    const ChunkRef nxt = next_of(team, kv);
    atomic_entry_write(team, ref, arena_.next_slot(),
                       make_next_entry(new_max, nxt));
  }

  for (int i = idx + 1; i <= last; ++i) {
    atomic_entry_write(team, ref, i - 1, kv[i]);
  }
  // The vacated last slot now duplicates its old content (or still holds k
  // when k was the last key); clear it.
  atomic_entry_write(team, ref, last, KV_EMPTY);
}

void Gfsl::remove_from_last_chunk(Team& team, Key k, ChunkRef ref,
                                  int level) {
  const LaneVec<KV> kv = read_chunk(team, ref);
  publish_intent(team, IntentKind::kEraseShift, k, ref);
  stamp_erase(team, ref, k, value_of(kv, team.dsize(), k));
  execute_remove_no_merge(team, kv, ref, k, /*is_last_chunk=*/true);
  clear_intent(team);
  maybe_prune_records(team, ref);

  // If the whole level is now just the -inf key in this (first == last)
  // chunk, mark the level empty so traversals skip it (§4.2.3).
  if (level > 0) {
    const LaneVec<KV> after = read_chunk(team, ref);
    const std::uint32_t users = team.ballot_fn([&](int i) {
      return i < team.dsize() && !kv_is_empty(after[i]) &&
             kv_key(after[i]) != KEY_NEG_INF;
    });
    if (users == 0 &&
        head_[static_cast<std::size_t>(level)].load(
            std::memory_order_acquire) == ref) {
      auto& ctr = level_chunks_[static_cast<std::size_t>(level)];
      std::int64_t cur = ctr.load(std::memory_order_acquire);
      while (cur > 0 && !ctr.compare_exchange_weak(cur, cur - 1,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
      }
    }
  }
  unlock(team, ref);
}

}  // namespace gfsl::core
