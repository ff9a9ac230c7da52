// Insert (Algorithms 4.5, 4.7): bottom-up insertion with per-chunk locking.
// The bottom-level enclosing chunk stays locked for the whole operation;
// upper levels are lock-insert-unlock (§4.2.2, Figure 4.2b).
#include "core/gfsl.h"

#include <stdexcept>

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

bool Gfsl::insert(Team& team, Key k, Value v) {
  return insert_impl(team, k, v, nullptr);
}

bool Gfsl::insert_impl(Team& team, Key k, Value v, BatchCursor* cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kInsertOp, k);
  // The commit half walks the recorded path with unchecked reads, which is
  // only sound while nothing recorded into the cursor can be recycled.  An
  // enclosing pin (execute_shard) guarantees that; without one, each op's
  // own pin is the protection boundary, so warm reuse must be forfeited.
  if (cur != nullptr && epochs_ != nullptr && !epochs_->pinned(team.id())) {
    cur->invalidate();
  }
  EpochScope epoch(*this, team);
  const SlowSearchResult sr = search_slow(team, k, cur);
  const bool ok = !sr.found && insert_committed(team, k, v, sr);
  epoch.exit();
  scope.set_result(ok);
  return ok;
}

bool Gfsl::insert_committed(Team& team, Key k, Value v,
                            const SlowSearchResult& sr) {
  // One revision for the whole op (no-op when a batch revision is already
  // installed for this team, or when no SnapshotManager is attached).
  CommitScope commit(*this, team);
  bool raise = false;
  ChunkRef bottom = team.shfl(sr.path, 0);
  const InsertStatus st = insert_to_level(team, /*level=*/0, bottom, k, v,
                                          raise);
  if (st != InsertStatus::kInserted) {
    // kDuplicate: another team inserted k between our search and the lock.
    // kNoMemory: the pool is exhausted even after emergency reclaims; the
    // structure is untouched, so unwind and surface it (the caller's epoch
    // scope dtor unpins silently during the throw).
    unlock(team, bottom);
    if (st == InsertStatus::kNoMemory) throw std::bad_alloc();
    return false;
  }

  // Raise through the levels while split coin-flips say so.  The value
  // stored at level i+1 is the chunk in level i that received the key —
  // either directly k's chunk or one from which it is laterally reachable
  // (§4.2.2 "Updating Down Pointers").
  Value up_value = static_cast<Value>(bottom);
  int level = 1;
  while (raise && level < max_levels()) {
    ChunkRef enc = team.shfl(sr.path, level);
    if (insert_to_level(team, level, enc, k, up_value, raise) ==
        InsertStatus::kNoMemory) {
      // Raising is an optimization: the key is already durably in the
      // bottom level, so an exhausted pool just stops the raise.
      unlock(team, enc);
      break;
    }
    up_value = static_cast<Value>(enc);
    unlock(team, enc);
    ++level;
  }

  unlock(team, bottom);
  return true;
}

Gfsl::InsertStatus Gfsl::insert_to_level(Team& team, int level, ChunkRef& enc,
                                         Key& k, Value v, bool& raise) {
  enc = find_and_lock_enclosing(team, enc, k, level);
  const LaneVec<KV> kv = read_chunk(team, enc);
  raise = false;
  if (chunk_contains(team, kv, k)) return InsertStatus::kDuplicate;

  if (num_nonempty(team, kv) < team.dsize()) {
    execute_insert(team, enc, kv, k, v);
    if (level > 0 &&
        level_chunks_[static_cast<std::size_t>(level)].load(
            std::memory_order_acquire) == 0) {
      // First key in this level: the level becomes visible to getHeight.
      bump_level(level, +1);
    }
  } else {
    const SplitOutcome out = split_insert(team, enc, k, v, level);
    if (out.fresh == NULL_CHUNK) {
      // Split allocation failed; `out.locked` is the untouched input chunk,
      // still locked, so the caller can unwind cleanly.
      enc = out.locked;
      return InsertStatus::kNoMemory;
    }
    enc = out.locked;
    k = out.raised_key;
    bump_level(level, +1);
    raise = team.bernoulli(cfg_.p_chunk);  // on-device coin flip (§4.2.2)
  }
  return InsertStatus::kInserted;
}

void Gfsl::execute_insert(Team& team, ChunkRef ref, const LaneVec<KV>& kv,
                          Key k, Value v) {
  // Algorithm 4.7 / Figure 4.3.  Each lane takes the entry to its left; the
  // insertion-index lane takes <k, v> instead; lanes at or right of the
  // index then write serially from the highest index down so no existing key
  // is ever overwritten before its copy lands one slot to the right.
  LaneVec<KV> insert_kv = team.shfl_up(kv, 1);
  const std::uint32_t lt = team.ballot_fn(
      [&](int i) { return i < team.dsize() && kv_key(kv[i]) < k; });
  const int idx = Team::popc(lt);
  insert_kv[idx] = make_kv(k, v);

  // Crash tolerance: a death anywhere inside the shift leaves exactly one
  // adjacent duplicated entry (or the landed key), which the intent's
  // recovery rolls back (or declares complete).
  publish_intent(team, IntentKind::kInsertShift, k, ref);
  // Version record BEFORE the entry mutation, inside the intent span: a
  // reader that misses the mid-shift entry still resolves k through the
  // record, and a crash between stamp and shift repairs forward (the live
  // record turns the insert-shift repair into a roll-forward).
  stamp_insert(team, ref, k, v);
  for (int i = team.dsize() - 1; i >= idx; --i) {
    if (!kv_is_empty(insert_kv[i])) {
      atomic_entry_write(team, ref, i, insert_kv[i]);
    } else {
      team.step();  // disabled lanes still take the lockstep iteration
    }
  }
  clear_intent(team);
  maybe_prune_records(team, ref);
  // The max field never changes: a key is only inserted into its enclosing
  // chunk, whose max is >= k by definition (§4.3).
}

}  // namespace gfsl::core
