// Traversal: Contains (Algorithms 4.1-4.4) and the path-recording searchSlow
// used by Insert and Delete (Algorithm 4.6).
#include "core/gfsl.h"

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

int Gfsl::tid_for_next_step(Team& team, Key k, const LaneVec<KV>& kv) {
  // Algorithm 4.3.  DATA lanes vote "my key <= k" (EMPTY keys are inf, so
  // they vote false); the NEXT lane votes "max < k" (lateral step); the LOCK
  // lane always votes false.  The highest voting lane wins — precedence to
  // higher tIds is what makes concurrent shifts/splits safe for readers
  // (§4.2.2).
  const int dsz = team.dsize();
  const int nxt = team.next_lane();
  const std::uint32_t bal = team.ballot_fn([&](int i) {
    if (i < dsz) return kv_key(kv[i]) <= k;
    if (i == nxt) return next_entry_max(kv[i]) < k;
    return false;
  });
  if (bal == 0) return kNone;
  return Team::highest_lane(bal);
}

int Gfsl::tid_with_equal_key(Team& team, Key k, const LaneVec<KV>& kv) {
  // Bottom-level variant: DATA lanes vote equality instead of <= (§4.2.1).
  const int dsz = team.dsize();
  const int nxt = team.next_lane();
  const std::uint32_t bal = team.ballot_fn([&](int i) {
    if (i < dsz) return kv_key(kv[i]) == k;
    if (i == nxt) return next_entry_max(kv[i]) < k;
    return false;
  });
  if (bal == 0) return kNone;
  return Team::highest_lane(bal);
}

Gfsl::Guarded Gfsl::search_down(Team& team, Key k) {
  // Algorithm 4.2: lock-free descent through the upper levels.  Returns the
  // level-0 chunk reached by the last down step, with the generation stamp
  // sampled when that ref was extracted (the caller keeps validating).
  std::uint64_t reads = 0;
  for (;;) {  // restart loop (the §4.2.1 lock-freedom edge case)
    LaneVec<KV> prev_kv;
    bool have_prev = false;
    int height = height_coop(team);
    Guarded cur = guard_ref(head_of(team, height));
    bool restart = false;

    while (height > 0) {
      bool stale = false;
      const LaneVec<KV> kv = read_chunk_checked(team, cur, &stale);
      ++reads;
      if (stale) {  // chunk recycled under us — the path is garbage
        restart = true;
        break;
      }
      if (is_zombie(team, kv)) {
        // Zombies are skipped laterally; their contents moved right (§4.2.1).
        note_zombie(team, cur.ref);
        cur = guard_ref(next_of(team, kv));
        continue;
      }
      const int step = tid_for_next_step(team, k, kv);
      if (step == team.next_lane()) {  // lateral step
        prev_kv = kv;
        have_prev = true;
        cur = guard_ref(next_of(team, kv));
      } else if (step != kNone) {  // down step
        --height;
        have_prev = false;
        cur = guard_ref(ptr_from_tid(team, step, kv));
      } else {  // backtrack
        if (!have_prev) {
          ++team.counters().restarts;
          team.record(simt::TraceEvent::kRestart, cur.ref, k);
          restart = true;
          break;
        }
        // All keys here are > k; step down through the previous chunk, whose
        // max (its last key) is < k because we stepped laterally past it.
        const std::uint32_t bal = team.ballot_fn([&](int i) {
          return i < team.dsize() && kv_key(prev_kv[i]) <= k;
        });
        --height;
        cur = guard_ref(ptr_from_tid(team, Team::highest_lane(bal), prev_kv));
        have_prev = false;
      }
    }
    if (!restart) {
      traversal_chunk_reads_.fetch_add(reads, std::memory_order_relaxed);
      traversals_.fetch_add(1, std::memory_order_relaxed);
      return cur;
    }
  }
}

bool Gfsl::search_lateral(Team& team, Key k, Guarded start, Value* out_value,
                          bool* stale) {
  // Algorithm 4.4: bottom-level lateral walk to k's enclosing chunk.
  Guarded cur = start;
  std::uint64_t reads = 0;
  for (;;) {
    bool st = false;
    const LaneVec<KV> kv = read_chunk_checked(team, cur, &st);
    ++reads;
    if (st) {  // recycled under us; the caller restarts from the top
      traversal_chunk_reads_.fetch_add(reads, std::memory_order_relaxed);
      *stale = true;
      return false;
    }
    const int found = tid_with_equal_key(team, k, kv);
    if (found == team.next_lane()) {
      cur = guard_ref(next_of(team, kv));
      continue;
    }
    if (is_zombie(team, kv)) {
      note_zombie(team, cur.ref);
      cur = guard_ref(next_of(team, kv));
      continue;
    }
    traversal_chunk_reads_.fetch_add(reads, std::memory_order_relaxed);
    if (found == kNone) return false;
    if (out_value != nullptr) *out_value = kv_value(team.shfl(kv, found));
    return true;
  }
}

bool Gfsl::contains(Team& team, Key k) {
  return contains_impl(team, k, nullptr);
}

std::optional<Value> Gfsl::find(Team& team, Key k) {
  Value v{};
  if (contains_impl(team, k, &v)) return v;
  return std::nullopt;
}

bool Gfsl::contains_impl(Team& team, Key k, Value* out_value) {
  simt::OpScope scope(team, obs::kContainsOp, k);
  EpochScope epoch(*this, team);
  bool r = false;
  for (;;) {  // generation-stamp staleness restarts the whole traversal
    bool stale = false;
    // A validated foresight hint replaces the whole upper descent with one
    // jump to an at-or-left bottom chunk; any miss takes the classic path.
    // A hinted jump is still one traversal — count it here, where the
    // classic path has search_down do it.
    Guarded start;
    if (foresight_start(team, k, &start)) {
      traversals_.fetch_add(1, std::memory_order_relaxed);
    } else {
      start = search_down(team, k);
    }
    r = search_lateral(team, k, start, out_value, &stale);
    if (!stale) break;
  }
  epoch.exit();
  scope.set_result(r);
  return r;
}

void Gfsl::redirect_to_remove_zombie(Team& team, ChunkRef prev) {
  // Lazy unlinking (§4.2.2): try-lock the predecessor; on failure just move
  // on.  Under the lock, re-resolve the first non-zombie successor — the
  // previously computed one may be stale if prev was split meanwhile.
  // A zombie's lock field is the zombie mark itself, so try_lock can only
  // succeed on a live chunk — once locked, prev cannot be merged away.
  if (!try_lock(team, prev)) return;
  const LaneVec<KV> pkv = read_chunk(team, prev);
  ChunkRef target = next_of(team, pkv);
  bool changed = false;
  std::vector<ChunkRef> chain;  // zombies this swing unlinks
  while (target != NULL_CHUNK) {
    const LaneVec<KV> tkv = read_chunk(team, target);
    if (!is_zombie(team, tkv)) break;
    chain.push_back(target);
    target = next_of(team, tkv);
    changed = true;
  }
  if (changed) {
    atomic_entry_write(team, prev, arena_.next_slot(),
                       make_next_entry(max_of(team, pkv), target));
    // prev's held lock makes this the unique unlink of `chain`: any other
    // unlinker of these zombies must also lock prev, and after our swing
    // they are no longer reachable from it.
    for (const ChunkRef z : chain) retire_chunk(team, z);
  }
  unlock(team, prev);
}

Gfsl::Guarded Gfsl::skip_zombies(Team& team, int level, ChunkRef zombie,
                                 ChunkRef prev, const LaneVec<KV>& kv) {
  note_zombie(team, zombie);
  // A zombie leading its level has no predecessor to unlink through, so the
  // head itself swings past it.  On the bottom level only with an
  // EpochManager: detached, leaked zombies are harmless and the seed's exact
  // step sequence is kept; under reclamation, erasing small keys merges the
  // head chunk over and over and the zombie chain would pin the pool.
  const bool at_head =
      prev == NULL_CHUNK && (level > 0 || epochs_ != nullptr) &&
      head_[static_cast<std::size_t>(level)].load(std::memory_order_acquire) ==
          zombie;
  std::vector<ChunkRef> chain;  // the zombies a won head swing unlinks
  if (at_head) chain.push_back(zombie);
  // Follow next pointers to the first non-zombie; the last chunk in a level
  // is never a zombie (§4.2.3), so this terminates.  Zombies are frozen
  // (terminal lock state; nobody writes their entries again), so `chain` is
  // exactly what the swing below removes.  The walk is generation-checked:
  // the chain may hold already-unlinked zombies a concurrent reclaim pass
  // could recycle.
  Guarded nz = guard_ref(next_of(team, kv));
  for (;;) {
    bool stale = false;
    const LaneVec<KV> nkv = read_chunk_checked(team, nz, &stale);
    if (stale) return {};
    if (!is_zombie(team, nkv)) break;
    note_zombie(team, nz.ref);
    if (at_head) chain.push_back(nz.ref);
    nz = guard_ref(next_of(team, nkv));
  }
  if (prev != NULL_CHUNK) {
    redirect_to_remove_zombie(team, prev);
  } else if (at_head) {
    // Zombie next pointers are frozen, so a won CAS from `zombie` unlinks
    // exactly `chain` — the unique retire point for it.
    ChunkRef expected = zombie;
    mem_->atomic_rmw(head_device_base_ + 256 +
                     static_cast<std::uint64_t>(level) * 4u);
    if (head_[static_cast<std::size_t>(level)].compare_exchange_strong(
            expected, nz.ref, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      for (const ChunkRef z : chain) retire_chunk(team, z);
    }
    team.step();
  }
  return guard_ref(nz.ref);
}

Gfsl::SlowSearchResult Gfsl::search_slow(Team& team, Key k, BatchCursor* cur) {
  // Algorithm 4.6: the Contains traversal plus (a) the per-lane path
  // "artificial array" — lane l records the chunk in level l through which
  // the down step was taken — and (b) lazy zombie unlinking.
  //
  // With a cursor (the batch engine, DESIGN.md §10) the descent starts warm
  // and refreshes the cursor on the way down; BatchCursor (batch.h) argues
  // why a stale entry is still safe.  Any restart goes cold, and so does an
  // out-of-order key, which could start right of its enclosing chunk.
  if (cur != nullptr && cur->warm() && k < cur->last_key) cur->invalidate();
  std::uint64_t reads = 0;
  bool counted = false;  // the reuse/full tally counts the first attempt
  for (;;) {
    SlowSearchResult r;
    for (int l = 0; l < simt::kWarpSize; ++l) {
      r.path[l] = (l < max_levels())
                      ? head_[static_cast<std::size_t>(l)].load(
                            std::memory_order_acquire)
                      : NULL_CHUNK;
    }
    team.step();  // the headPtrAtHeight lockstep read

    // Warm start: the lowest cached level whose max still covers k.  Levels
    // above it keep their cursor chunks as path entries — each was on a
    // previous descent's path for a key <= k, which is exactly the "k is
    // laterally reachable from here" invariant the commit halves need.
    int height = -1;
    if (cur != nullptr && cur->warm()) {
      for (int l = 0; l <= cur->height && height < 0; ++l) {
        const BatchCursor::Entry& e = cur->levels[static_cast<std::size_t>(l)];
        if (e.ref != NULL_CHUNK && k <= e.max) height = l;
      }
    }
    int top;
    Guarded g;
    if (height >= 0) {
      for (int l = height + 1; l <= cur->height; ++l) {
        const ChunkRef c = cur->levels[static_cast<std::size_t>(l)].ref;
        if (c != NULL_CHUNK) r.path[l] = c;
      }
      top = cur->height;
      const BatchCursor::Entry& e =
          cur->levels[static_cast<std::size_t>(height)];
      g = Guarded{e.ref, e.gen};
      if (!counted) {
        ++cur->reuses;
        team.metric(obs::kBatchDescentReuses);
      }
    } else {
      // Cold: the classic head descent, never a foresight hint: the commit
      // halves (erase's per-level peel, insert's raise loop) start each
      // upper level from the chunk recorded here.  A hinted start would
      // leave those lanes at the level heads and turn every upper-level step
      // into a lateral walk over half the level (DESIGN.md §14).
      height = height_coop(team);
      top = height;
      g = guard_ref(head_of(team, height));
      if (cur != nullptr && !counted) {
        ++cur->fulls;
        team.metric(obs::kBatchFullDescents);
      }
    }
    counted = true;

    // Record the chunk through which the descent leaves `level`; with a
    // cursor, also cache it with its max for the next key.
    const auto record = [&](int level, Guarded c, const LaneVec<KV>& ckv) {
      r.path[level] = c.ref;
      if (cur != nullptr) {
        cur->levels[static_cast<std::size_t>(level)] = {c.ref, c.gen,
                                                        max_of(team, ckv)};
      }
    };

    LaneVec<KV> prev_kv;
    Guarded prev;  // lateral predecessor on this level, if any
    bool done = false;
    for (;;) {
      bool stale = false;
      const LaneVec<KV> kv = read_chunk_checked(team, g, &stale);
      ++reads;
      if (stale) break;  // chunk recycled under us — the path is garbage
      if (is_zombie(team, kv)) {
        g = skip_zombies(team, height, g.ref, prev.ref, kv);
        if (g.ref == NULL_CHUNK) break;
        continue;
      }
      const int step = height > 0 ? tid_for_next_step(team, k, kv)
                                  : tid_with_equal_key(team, k, kv);
      if (step == team.next_lane()) {  // lateral
        prev_kv = kv;
        prev = g;
        g = guard_ref(next_of(team, kv));
        continue;
      }
      if (height == 0) {  // k's enclosing bottom chunk
        record(0, g, kv);
        r.found = (step != kNone);
        done = true;
        break;
      }
      ChunkRef down;
      if (step != kNone) {  // down
        record(height, g, kv);
        down = ptr_from_tid(team, step, kv);
      } else {  // backtrack
        if (prev.ref == NULL_CHUNK) {
          // All keys here are > k and there is no predecessor to step down
          // through (under a warm start: the cursor chunk's contents
          // migrated past k).  Restart cold.
          ++team.counters().restarts;
          team.record(simt::TraceEvent::kRestart, g.ref, k);
          break;
        }
        // Step down through the previous chunk, whose max (its last key) is
        // < k because we stepped laterally past it.
        record(height, prev, prev_kv);
        const std::uint32_t bal = team.ballot_fn([&](int i) {
          return i < team.dsize() && kv_key(prev_kv[i]) <= k;
        });
        down = ptr_from_tid(team, Team::highest_lane(bal), prev_kv);
      }
      --height;
      prev = {};
      g = guard_ref(down);
    }
    if (!done) {
      if (cur != nullptr) cur->invalidate();
      continue;
    }
    if (cur != nullptr) {
      cur->height = top;
      cur->last_key = k;
    }
    traversal_chunk_reads_.fetch_add(reads, std::memory_order_relaxed);
    traversals_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
}

std::size_t Gfsl::scan(Team& team, Key lo, Key hi,
                       std::vector<std::pair<Key, Value>>& out,
                       std::size_t limit) {
  if (lo < MIN_USER_KEY) lo = MIN_USER_KEY;
  if (hi > MAX_USER_KEY) hi = MAX_USER_KEY;
  if (lo > hi || limit == 0) return 0;

  simt::OpScope scope(team, obs::kScanOp, lo);
  EpochScope epoch(*this, team);
  const std::size_t start_size = out.size();
  bool done = false;
  while (!done) {  // stale chunk read restarts the whole scan
    out.resize(start_size);
    Guarded cur = search_down(team, lo);
    for (;;) {
      // One pass over the range: each chunk loads evict-first, so the scan
      // does not flush the chunks other operations re-read from the L2.
      bool stale = false;
      const LaneVec<KV> kv =
          read_chunk_checked(team, cur, &stale, device::CacheOp::kEvictFirst);
      if (stale) break;
      if (is_zombie(team, kv)) {
        // Zombie contents moved right; skip without collecting.
        note_zombie(team, cur.ref);
        cur = guard_ref(next_of(team, kv));
        continue;
      }
      // Cooperative in-range vote; entries are sorted within the chunk, so
      // gathering in slot order keeps the output ordered.  A concurrent
      // writer can show one key twice — mid-shift, mid-merge, or in a split
      // chunk whose moved tail is not yet cleared — so an entry is appended
      // only when its key is above the last one this attempt appended.
      const std::uint32_t in_range = team.ballot_fn([&](int i) {
        if (i >= team.dsize()) return false;
        const Key k = kv_key(kv[i]);
        return k >= lo && k <= hi && k != KEY_NEG_INF && !kv_is_empty(kv[i]);
      });
      bool full = false;
      for (int i = 0; i < team.dsize() && !full; ++i) {
        if ((in_range & (1u << i)) == 0) continue;
        if (out.size() - start_size >= limit) {
          full = true;
          break;
        }
        const Key k = kv_key(kv[i]);
        if (out.size() > start_size && k <= out.back().first) continue;
        out.emplace_back(k, kv_value(kv[i]));
      }
      const Key max = max_of(team, kv);
      const ChunkRef nxt = next_of(team, kv);
      if (full || max >= hi || nxt == NULL_CHUNK) {
        done = true;
        break;
      }
      cur = guard_ref(nxt);
    }
  }
  epoch.exit();
  scope.set_value(out.size() - start_size);
  return out.size() - start_size;
}

std::pair<bool, ChunkRef> Gfsl::find_lateral(Team& team, Key k,
                                             ChunkRef start, int level) {
  // Exact-key lateral search usable at any level (Delete's per-level
  // containment probe, updateDownPtrs' upper-level search).
  ChunkRef cur = start;
  for (;;) {
    const LaneVec<KV> kv = read_chunk(team, cur);
    const int found = tid_with_equal_key(team, k, kv);
    if (found == team.next_lane()) {
      note_lateral(team, level);
      cur = next_of(team, kv);
      continue;
    }
    if (is_zombie(team, kv)) {
      note_zombie(team, cur);
      note_lateral(team, level);
      cur = next_of(team, kv);
      continue;
    }
    return {found != kNone, cur};
  }
}

ChunkRef Gfsl::search_down_to_level(Team& team, int target_level, Key k) {
  // Algorithm 4.10's helper: "identical to searchDown except that it
  // searches until level i and not level 0".
  for (;;) {
    LaneVec<KV> prev_kv;
    bool have_prev = false;
    int height = height_coop(team);
    if (height <= target_level) return head_of(team, target_level);
    ChunkRef cur = head_of(team, height);
    bool restart = false;

    while (height > target_level) {
      const LaneVec<KV> kv = read_chunk(team, cur);
      if (is_zombie(team, kv)) {
        note_zombie(team, cur);
        cur = next_of(team, kv);
        continue;
      }
      const int step = tid_for_next_step(team, k, kv);
      if (step == team.next_lane()) {
        prev_kv = kv;
        have_prev = true;
        cur = next_of(team, kv);
      } else if (step != kNone) {
        --height;
        have_prev = false;
        cur = ptr_from_tid(team, step, kv);
      } else {
        if (!have_prev) {
          ++team.counters().restarts;
          team.record(simt::TraceEvent::kRestart, cur, k);
          restart = true;
          break;
        }
        const std::uint32_t bal = team.ballot_fn([&](int i) {
          return i < team.dsize() && kv_key(prev_kv[i]) <= k;
        });
        --height;
        cur = ptr_from_tid(team, Team::highest_lane(bal), prev_kv);
        have_prev = false;
      }
    }
    if (!restart) return cur;
  }
}

}  // namespace gfsl::core
