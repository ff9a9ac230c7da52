// Online integrity scrub: detect, repair or quarantine damaged chunks
// (DESIGN.md §15).
//
// The pipeline mirrors reclaim_pass: a maintenance entry point walks the
// arena under an epoch pin and resolves each finding under try_lock, where
// the "an unlocked live chunk always matches its seal" invariant is exact.
// Resolution is strictly conservative:
//
//   * upper-level chunks are index-only — rebuild them from the level below
//     (keep keys that still exist there, point each at the chunk holding it,
//     drop the rest).  A dropped genuine key degrades search to the level
//     below; no user data is at stake.  The rebuild is the same one
//     recover() runs over every upper chunk (persist_recovery.cpp).
//   * bottom chunks hold the user's keys — reconstruct the canonical slot
//     image from the chunk's version-record chain (§13 sidecar) and accept
//     it IFF it re-hashes to the stored seal.  The seal certifies the
//     repair: a wrong reconstruction (incomplete chain, bulk-loaded keys
//     with no records) can never be silently installed.
//   * anything else is quarantined: zombify + unseal, the lazy-unlink /
//     retire machinery removes it, and the exact lost key range
//     (pred_max, my_max] is reported — never a silent wrong answer.  A
//     chunk that fails its seal again after a successful repair (a stuck-at
//     cell re-asserting) escalates straight to quarantine.
//
// -inf lives in the chunk that leads its level (leads_level): the head, or
// the first live chunk behind zombie heads no search has swung past yet —
// merging a head chunk moves -inf into its successor before any search
// swings the head.  Every rebuild here puts -inf there and nowhere else.
// A leading chunk can never be zombified (its level would lose -inf), and
// neither can a level TAIL: every zombie-skip in the traversal assumes a
// zombie has a live successor to follow, but the last chunk's next ref is
// NULL_CHUNK.  Both are evacuated in place instead — data slots reset (a
// leading chunk keeps -inf), blast radius = everything they held.
#include "core/gfsl.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

void Gfsl::reseal_all() {
  if (integrity_ == nullptr) return;
  const std::uint32_t hw = arena_.high_water();
  for (ChunkRef ref = 0; ref < hw; ++ref) {
    if ((arena_.generation(ref, std::memory_order_acquire) & 1u) != 0) {
      integrity_->unseal(ref);  // on the free-list
      continue;
    }
    const KV lock_kv =
        arena_.entry(ref, arena_.lock_slot()).load(std::memory_order_acquire);
    if (lock_entry_state(lock_kv) == kUnlocked) {
      integrity_->stamp(ref, arena_.generation(ref, std::memory_order_relaxed),
                        arena_.entries(ref), arena_.dsize());
    } else {
      // Zombies are frozen and skipped by every traversal; locked chunks
      // (impossible quiescently except as crash leftovers) get their seal at
      // the release that recovery performs.
      integrity_->unseal(ref);
    }
  }
}

ScrubReport Gfsl::scrub_pass(Team& team, std::uint32_t max_chunks) {
  ScrubReport rep;
  if (integrity_ == nullptr) return rep;
  EpochScope scope(*this, team);
  const std::uint32_t hw = arena_.high_water();
  std::uint32_t budget = (max_chunks == 0 || max_chunks > hw) ? hw : max_chunks;
  for (ChunkRef ref = 0; ref < hw && budget > 0; ++ref) {
    const std::uint32_t gen = arena_.generation(ref, std::memory_order_acquire);
    if ((gen & 1u) != 0) continue;  // free / mid-recycle
    if (!integrity_->sealed(ref, gen) && !integrity_->suspect(ref)) continue;
    --budget;
    ++rep.chunks_scanned;
    team.metric(obs::kScrubChunksScanned);
    if (!scrub_chunk(team, ref, &rep)) ++rep.skipped_busy;
  }
  team.metric(obs::kScrubPasses);
  scope.exit();
  return rep;
}

bool Gfsl::scrub_chunk(Team& team, ChunkRef ref, ScrubReport* rep) {
  if (integrity_ == nullptr) return true;
  {
    const std::uint32_t gen = arena_.generation(ref, std::memory_order_acquire);
    if ((gen & 1u) != 0 || !integrity_->sealed(ref, gen)) {
      integrity_->clear_suspect(ref);  // recycled or never sealed: moot
      return true;
    }
    const KV lock_kv =
        arena_.entry(ref, arena_.lock_slot()).load(std::memory_order_acquire);
    if (lock_entry_state(lock_kv) == kZombie) {
      // Frozen and unreachable-by-content: its seal no longer guards
      // anything a traversal consumes.
      integrity_->unseal(ref);
      return true;
    }
  }
  if (!try_lock(team, ref)) return false;  // busy: suspect stays for later


  // Under the lock the invariant is exact: a mismatch here is memory damage,
  // not a racing writer.
  const std::uint32_t gen = arena_.generation(ref, std::memory_order_relaxed);
  bool mismatch = false;
  if ((gen & 1u) == 0 && integrity_->sealed(ref, gen)) {
    team.metric(obs::kCorruptionSealsVerified);
    mismatch =
        !integrity_->verify_exact(ref, gen, arena_.entries(ref), arena_.dsize());
  }
  if (!mismatch) {
    integrity_->clear_suspect(ref);  // suspicion retracted (racy read-path flag)
    unlock(team, ref);
    return true;
  }

  team.metric(obs::kCorruptionSealMismatches);
  if (rep != nullptr) ++rep->mismatches;
  const int level = chunk_level_ != nullptr ? chunk_level_[ref] : 0;
  // Escalation: the first mismatch of a lifetime earns a repair attempt; a
  // second one means the cell re-asserted damage after we restamped — the
  // memory itself is bad, quarantine instead of repairing forever.
  const bool first_offense = integrity_->note_repair(ref) <= 1;
  bool fixed = false;
  bool emptied = false;
  if (first_offense && level == 0) {
    fixed = repair_bottom_chunk(team, ref);
  } else if (first_offense) {
    ChunkRef below =
        head_[static_cast<std::size_t>(level - 1)].load(std::memory_order_acquire);
    emptied = repair_upper_chunk(team, ref, level, &below).emptied;
    fixed = true;
  }
  if (!fixed) {
    quarantine_chunk(team, ref, level, rep);
    return true;
  }
  team.metric(obs::kCorruptionChunksRepaired);
  if (rep != nullptr) ++rep->repaired;
  integrity_->clear_suspect(ref);
  if (emptied) {
    zombify(team, ref, level);  // an index chunk: nothing of the user's lost
  } else {
    unlock(team, ref);  // restamps the seal over the repaired slots
  }
  return true;
}

bool Gfsl::leads_level(ChunkRef ref, int level) const {
  ChunkRef cur =
      head_[static_cast<std::size_t>(level)].load(std::memory_order_acquire);
  for (std::uint32_t steps = 0; cur != ref && steps < arena_.capacity();
       ++steps) {
    if (cur == NULL_CHUNK) return false;
    const std::atomic<KV>* e = arena_.entries(cur);
    if (lock_entry_state(e[arena_.lock_slot()].load(
            std::memory_order_acquire)) != kZombie) {
      return false;
    }
    cur = next_entry_ref(e[arena_.next_slot()].load(std::memory_order_acquire));
  }
  return cur == ref;
}

void Gfsl::zombify(Team& team, ChunkRef ref, int level) {
  // Terminal zombify under the held lock; the lazy-unlink machinery
  // (lock_next_chunk / redirect_to_remove_zombie) removes and retires it.
  if (integrity_ != nullptr) integrity_->unseal(ref);
  mark_zombie(team, ref);
  bump_level(level, -1);
  if (foresight_ != nullptr && level == 0) foresight_->mark_dirty();
}

Gfsl::UpperRepair Gfsl::repair_upper_chunk(Team& team, ChunkRef ref,
                                           int level, ChunkRef* below) {
  UpperRepair out;
  const KV next_kv =
      arena_.entry(ref, arena_.next_slot()).load(std::memory_order_acquire);
  const Key hi = next_entry_max(next_kv);

  // Damaged slots can be out of order: sort and dedup the keys first, so
  // the lateral cursor below only ever moves right.
  std::vector<Key> keys;
  for (int s = 0; s < arena_.dsize(); ++s) {
    const KV e = arena_.entry(ref, s).load(std::memory_order_acquire);
    if (!kv_is_empty(e) && kv_key(e) != KEY_NEG_INF) keys.push_back(kv_key(e));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Rewrite the slots in place, ascending, storing only what changed.
  int slot = 0;
  auto put = [&](KV kv) {
    if (arena_.entry(ref, slot).load(std::memory_order_acquire) != kv) {
      write_entry(team, ref, slot, kv);
    }
    ++slot;
  };
  if (leads_level(ref, level)) {
    put(make_kv(KEY_NEG_INF,
                static_cast<Value>(head_[static_cast<std::size_t>(level - 1)]
                                       .load(std::memory_order_acquire))));
  }
  // Keep every key the level below still holds, pointing at the chunk that
  // holds it — the key's enclosing chunk, the most precise down target §4.3
  // allows.  Everything else — garbage, keys beyond the max, keys whose home
  // below vanished — is dropped; a dropped genuine key is the legal
  // stale-upper-key state inverted and only costs searches a lateral step.
  Key top = KEY_NEG_INF;
  for (const Key k : keys) {
    if (k >= MIN_USER_KEY && k <= MAX_USER_KEY && k <= hi &&
        slot < arena_.dsize()) {
      const auto [found, home] = find_lateral(team, k, *below, level - 1);
      *below = home;
      if (found) {
        put(make_kv(k, static_cast<Value>(home)));
        top = k;
        continue;
      }
    }
    ++out.dropped;
  }
  const bool empty = slot == 0;
  while (slot < arena_.dsize()) put(KV_EMPTY);

  // The last chunk keeps max inf, empty or not.  Any other chunk's max must
  // be its largest key: lower it, or report an empty chunk (one that holds
  // neither keys nor -inf) for the caller to zombify.
  const ChunkRef next = next_entry_ref(next_kv);
  if (next == NULL_CHUNK) return out;
  if (empty) {
    out.emptied = true;
  } else if (top != hi) {
    atomic_entry_write(team, ref, arena_.next_slot(),
                       make_next_entry(top, next));
  }
  return out;
}

bool Gfsl::repair_bottom_chunk(Team& team, ChunkRef ref) {
  if (snaps_ == nullptr) return false;  // no version chain to restore from
  const std::uint32_t gen = arena_.generation(ref, std::memory_order_relaxed);
  const Key hi = next_entry_max(
      arena_.entry(ref, arena_.next_slot()).load(std::memory_order_acquire));

  // The chunk's canonical content per the version sidecar: one live record
  // per resident key (push-front chains — the first record seen for a key is
  // the newest; superseded split/merge copies are filtered by the key range).
  std::vector<std::pair<Key, Value>> live;
  std::unordered_set<Key> seen;
  RecIdx i = snaps_->chain_head(ref);
  std::uint32_t cap = snaps_->walk_cap();
  while (i != SnapshotManager::kNullRec && cap-- > 0) {
    const VersionRec& r = snaps_->rec(i);
    if (r.key >= MIN_USER_KEY && r.key <= hi && seen.insert(r.key).second &&
        r.erase_rev.load(std::memory_order_acquire) ==
            SnapshotManager::kRevLive) {
      live.emplace_back(r.key, r.value);
    }
    i = r.next.load(std::memory_order_acquire);
  }
  std::sort(live.begin(), live.end());

  std::vector<KV> cand(static_cast<std::size_t>(arena_.dsize()), KV_EMPTY);
  std::size_t slot = 0;
  if (leads_level(ref, 0)) cand[slot++] = make_kv(KEY_NEG_INF, Value{0});
  if (live.size() > cand.size() - slot) return false;
  for (const auto& [k, v] : live) cand[slot++] = make_kv(k, v);

  // Certification: install the reconstruction IFF it re-hashes to the seal
  // stamped at the last lock release.  An incomplete chain (bulk-loaded /
  // recovered keys have no records) or any drift fails here and falls
  // through to quarantine — a wrong image is never silently served.
  if (!integrity_->verify_snapshot(ref, gen, cand.data(), arena_.dsize())) {
    return false;
  }
  for (int s = 0; s < arena_.dsize(); ++s) {
    write_entry(team, ref, s, cand[static_cast<std::size_t>(s)]);
  }
  return true;
}

void Gfsl::quarantine_chunk(Team& team, ChunkRef ref, int level,
                            ScrubReport* rep) {
  const KV next_kv =
      arena_.entry(ref, arena_.next_slot()).load(std::memory_order_acquire);
  const Key hi = next_entry_max(next_kv);
  const bool leads = leads_level(ref, level);

  // Blast radius: keys in (pred_max, my_max] resident here are gone.  Only
  // the bottom level loses user data — an upper chunk is index-only, its
  // keys all still live below.
  Key lo = KEY_NEG_INF;
  if (!leads) {
    // Walk to the victim tracking the max of the last LIVE chunk before it:
    // a zombie predecessor's keys were already merged rightward (possibly
    // into this very victim), so its max does not bound the victim's
    // envelope — e.g. [A max=6] -> [Z max=15] -> [victim {12,18,24}] holds
    // (6, 24], not (15, 24].  If the walk never reaches the victim (the
    // chain itself is damaged) lo stays at -inf: over-report, never under.
    ChunkRef cur =
        head_[static_cast<std::size_t>(level)].load(std::memory_order_acquire);
    Key last_live = KEY_NEG_INF;
    std::uint32_t steps = 0;
    while (cur != NULL_CHUNK && steps++ < arena_.capacity()) {
      const KV nk =
          arena_.entry(cur, arena_.next_slot()).load(std::memory_order_acquire);
      const KV lk =
          arena_.entry(cur, arena_.lock_slot()).load(std::memory_order_acquire);
      if (lock_entry_state(lk) != kZombie) last_live = next_entry_max(nk);
      if (next_entry_ref(nk) == ref) {
        lo = last_live;
        break;
      }
      cur = next_entry_ref(nk);
    }
  }
  if (level == 0) {
    if (rep != nullptr) rep->lost.push_back({ref, lo, hi});
    team.metric(obs::kCorruptionChunksLost);
  }
  team.metric(obs::kCorruptionChunksQuarantined);
  if (rep != nullptr) ++rep->quarantined;

  if (leads || next_entry_ref(next_kv) == NULL_CHUNK) {
    // A leading chunk cannot be zombified (its level would lose -inf), and
    // neither can a level tail: zombie-skip follows the zombie's next ref,
    // which for the last chunk is NULL_CHUNK.  Evacuate in place instead;
    // an empty last chunk (max inf) is the structure's normal drained state.
    integrity_->unseal(ref);
    int s = 0;
    if (leads) {
      const Value down =
          level == 0 ? Value{0}
                     : static_cast<Value>(
                           head_[static_cast<std::size_t>(level - 1)].load(
                               std::memory_order_acquire));
      write_entry(team, ref, s++, make_kv(KEY_NEG_INF, down));
    }
    for (; s < arena_.dsize(); ++s) write_entry(team, ref, s, KV_EMPTY);
    // A leading chunk that is not last now holds -inf alone.  Without
    // version records its max must equal that top key; with them it stays
    // at `hi`, covering the chain records older snapshots still read.
    if (snaps_ == nullptr && next_entry_ref(next_kv) != NULL_CHUNK) {
      atomic_entry_write(
          team, ref, arena_.next_slot(),
          make_next_entry(KEY_NEG_INF, next_entry_ref(next_kv)));
    }
    if (level == 0 && snaps_ != nullptr) {
      // The chunk stays live, so its version chain stays reachable: stamp
      // the evacuated keys' live records erased at the quarantine revision.
      // Snapshots older than now keep serving the genuine pre-damage
      // values; the present tense loses the keys exactly as reported.  The
      // chain, not the (untrusted, corrupt) slots, names what was lost.
      CommitScope cscope(*this, team);
      const Rev qr = commit_rev(team);
      std::vector<std::pair<Key, Value>> live;
      std::unordered_set<Key> seen;
      RecIdx i = snaps_->chain_head(ref);
      std::uint32_t cap = snaps_->walk_cap();
      while (i != SnapshotManager::kNullRec && cap-- > 0) {
        const VersionRec& r = snaps_->rec(i);
        if (seen.insert(r.key).second &&
            r.erase_rev.load(std::memory_order_acquire) ==
                SnapshotManager::kRevLive) {
          live.emplace_back(r.key, r.value);
        }
        i = r.next.load(std::memory_order_acquire);
      }
      if (qr != 0) {
        for (const auto& [k, v] : live) snaps_->mark_erased(ref, k, v, qr);
      }
    }
    integrity_->reset_repairs(ref);
    integrity_->clear_suspect(ref);
    unlock(team, ref);  // restamps over the evacuated slots
    return;
  }
  zombify(team, ref, level);
}

}  // namespace gfsl::core
