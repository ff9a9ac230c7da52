// Epoch-based chunk reclamation (DESIGN.md §9).
//
// The paper's merges only *mark* chunks as zombies; nothing is ever freed,
// so sustained churn exhausts the pool.  With an EpochManager attached the
// pipeline becomes:
//
//   mark_zombie  ->  unlink (lock_next_chunk / redirect / head-swing)
//                ->  retire_chunk (stamped into the unlinker's limbo list)
//                ->  grace period (two epoch advances past every pin that
//                    could have seen the chunk linked)
//                ->  reclaim_pass: reference-scan the upper levels for stale
//                    down pointers into the candidates; repair + requeue the
//                    referenced ones — and, transitively, every candidate
//                    their frozen next pointers reach — recycle the rest
//                    onto the free-list
//                ->  alloc_locked pops the recycled index, generation stamp
//                    flips to a new lifetime
//
// Why the reference scan: a raising insert writes (k, enc) into level l+1
// *after* unlocking enc, and merge/split repair down pointers only lazily —
// a down pointer is a persistent structural reference that no epoch pin
// protects.  The grace period guarantees the set of such references is
// frozen (any writer that could still create one held a pin from before the
// unlink, which blocks draining), so one left-to-right scan sees them all:
// splits and merges only move entries rightward, and a merge's copy
// completes before the zombify release-store, so an entry can never slip
// left past the scan cursor.
//
// Parked readers — teams that already hold the chunk ref in a register —
// are the one thing neither pins nor the scan can rule out once the index
// is reused.  They detect it through the generation stamps: a traversal
// samples the stamp when it *acquires* a ref (guard_ref, in the same
// lockstep step as the validated read of the source chunk, so no yield can
// fall in between) and every checked read validates against that sample
// (read_chunk_checked).  A recycle — or a full recycle+reuse, which leaves
// a consistent even stamp a pre/post-only check would accept — anywhere
// between acquisition and read flips the stamp past the sample and the
// traversal restarts.  The epoch pins remain the primary guarantee for
// free-running teams; the stamps cover resumption after a pin was
// force-quiesced and scheduler parks between lockstep steps.
//
// Everything here is gated on `epochs_ != nullptr`: detached, no stamp is
// ever read, no extra yield point fires, and the structure is bit-identical
// to the seed (zombies leak until compact()).
#include "core/gfsl.h"

#include <unordered_set>

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

LaneVec<KV> Gfsl::read_chunk_checked(Team& team, Guarded g, bool* stale,
                                     device::CacheOp op) {
  if (epochs_ == nullptr && integrity_ == nullptr) {
    *stale = false;
    return read_chunk(team, g.ref, op);
  }
  bool restart = false;
  LaneVec<KV> kv;
  if (epochs_ != nullptr) {
    // Seqlock read validated against the acquisition-time sample: the stamp
    // must equal g.gen both before and after the contents read.  Comparing
    // only pre vs. post would miss a *completed* recycle+reuse (the new
    // lifetime's stamp is even and internally consistent); comparing against
    // the sample taken when the ref was acquired catches it.  The stamp loads
    // piggyback on the chunk's cache line and add no lockstep instruction of
    // their own.
    const auto g1 = arena_.generation(g.ref, std::memory_order_acquire);
    kv = read_chunk(team, g.ref, op);
    std::atomic_thread_fence(std::memory_order_acquire);
    const auto g2 = arena_.generation(g.ref, std::memory_order_relaxed);
    restart = g1 != g.gen || g2 != g.gen || (g.gen & 1u) != 0;
  } else {
    kv = read_chunk(team, g.ref, op);
  }
  if (!restart && integrity_ != nullptr &&
      lock_entry_state(team.shfl(kv, team.lock_lane())) == kUnlocked) {
    // Seal check over the snapshot this team already holds — only meaningful
    // when the snapshot shows the chunk unlocked (an in-flight writer
    // legitimately diverges from the last stamp).  Detached epochs the stamp
    // never leaves 0, matching g.gen's default.  The check is sampled
    // (sidecar verify period): drive-by detection at a bounded hot-path
    // cost, with exhaustive coverage owned by scrub_pass.
    if (integrity_->sealed(g.ref, g.gen) &&
        integrity_->should_verify_read()) {
      team.metric(obs::kCorruptionSealsVerified);
      KV data[simt::kWarpSize];
      for (int i = 0; i < team.dsize(); ++i) data[i] = kv[i];
      if (!integrity_->verify_snapshot(g.ref, g.gen, data, team.dsize())) {
        // Suspicion only: a racing lock/modify/unlock between the lane loads
        // can fake a mismatch.  The first flagger resolves inline under
        // try_lock (busy leaves the flag for scrub_pass) and restarts once;
        // later observers proceed on the already-flagged chunk, so a real
        // mismatch can never livelock the read path.
        team.metric(obs::kCorruptionSealMismatches);
        if (integrity_->flag_suspect(g.ref)) {
          scrub_chunk(team, g.ref, nullptr);
          restart = true;
        }
      }
    }
  }
  *stale = restart;
  if (restart) {
    team.metric(obs::kStaleChunkReads);
    ++team.counters().restarts;
    team.record(simt::TraceEvent::kRestart, g.ref);
  }
  return kv;
}

void Gfsl::retire_chunk(Team& team, ChunkRef ref) {
  if (epochs_ == nullptr) return;  // seed semantics: the zombie just leaks
  epochs_->retire(team.id(), ref);
  persist_point();
  team.metric(obs::kChunkRetires);
  team.record(simt::TraceEvent::kChunkRetired, ref, epochs_->global());
}

void Gfsl::epoch_exit(Team& team) {
  // The epoch announcement is a yield point: crash-sweep and deterministic
  // schedules get to interleave (and kill) right at the reclamation edge.
  sync_point(team);
  if (epochs_->limbo_depth(team.id()) >= kReclaimBatch) {
    reclaim_pass(team);
  }
  if (snaps_ != nullptr) {
    // Version-record indices parked by maybe_prune_records ride the same
    // grace machinery as chunks (ticket limbo); once safe they return to
    // the record arena.  Then apply the lagging-snapshot policy so a
    // forgotten snapshot cannot pin the GC watermark forever.
    std::vector<RecIdx> freed;
    if (epochs_->drain_safe_tickets(team.id(), &freed) != 0) {
      snaps_->free_records(freed);
    }
    const Rev max_age = snaps_->max_snapshot_age();
    if (max_age != 0) snaps_->expire_lagging(max_age);
  }
  epochs_->unpin(team.id());
  if (epochs_->try_advance()) {
    team.metric(obs::kEpochAdvances);
    team.record(simt::TraceEvent::kEpochAdvance, epochs_->global());
  }
}

std::size_t Gfsl::reclaim_pass(Team& team) {
  if (epochs_ == nullptr) return 0;
  std::vector<ChunkRef> cand;
  epochs_->drain_safe(team.id(), &cand);
  if (cand.empty()) return 0;

  std::unordered_set<ChunkRef> cset(cand.begin(), cand.end());

  // Reference scan: walk every live upper-level chunk left to right and
  // collect data entries whose value half names a candidate.  Level-0
  // values are user payloads and head chunks are reached via head_, so only
  // levels >= 1 can hold a structural reference.  Zombie chunks are skipped:
  // their entries are never down-stepped by any traversal.
  struct StaleRef {
    ChunkRef holder;
    int lane;
    Key key;
    ChunkRef target;
    int level;
  };
  std::vector<StaleRef> refs;
  std::unordered_set<ChunkRef> referenced;
  for (int l = 1; l < max_levels(); ++l) {
    ChunkRef cur =
        head_[static_cast<std::size_t>(l)].load(std::memory_order_acquire);
    std::unordered_set<ChunkRef> seen;
    while (cur != NULL_CHUNK && seen.insert(cur).second) {
      const LaneVec<KV> kv = read_chunk(team, cur);
      if (!is_zombie(team, kv)) {
        for (int i = 0; i < team.dsize(); ++i) {
          if (kv_is_empty(kv[i])) continue;
          const auto target = static_cast<ChunkRef>(kv_value(kv[i]));
          if (cset.count(target) != 0) {
            referenced.insert(target);
            refs.push_back({cur, i, kv_key(kv[i]), target, l});
          }
        }
      }
      cur = next_of(team, kv);
    }
  }

  // Transitive closure over frozen next pointers: a referenced candidate is
  // still *named* (by a stale down pointer), and its next pointer — frozen
  // at zombification — may lead into sibling candidates.  A traversal that
  // enters through the stale pointer walks that chain with plain reads, so
  // everything reachable from a referenced candidate through candidates must
  // survive this pass too; requeuing only the entry point while recycling
  // its chain would hand the traversal a recycled index one hop later.
  {
    std::vector<ChunkRef> work(referenced.begin(), referenced.end());
    while (!work.empty()) {
      const ChunkRef z = work.back();
      work.pop_back();
      const LaneVec<KV> zkv = read_chunk(team, z);
      const ChunkRef nxt = next_of(team, zkv);
      if (nxt != NULL_CHUNK && cset.count(nxt) != 0 &&
          referenced.insert(nxt).second) {
        work.push_back(nxt);
      }
    }
  }

  // Scrub the stale references: swing each to the head of the level below,
  // from which the key's enclosing chunk is always laterally reachable
  // (§4.3 "Order Between Down Pointers" holds trivially from the head).
  // try_lock only — on contention the candidate is requeued and a later
  // pass retries.
  for (const StaleRef& sr : refs) {
    if (!try_lock(team, sr.holder)) continue;
    const LaneVec<KV> kv = read_chunk(team, sr.holder);
    const KV want = make_kv(sr.key, static_cast<Value>(sr.target));
    if (team.shfl(kv, sr.lane) == want) {
      const ChunkRef below =
          head_[static_cast<std::size_t>(sr.level - 1)].load(
              std::memory_order_acquire);
      atomic_entry_write(team, sr.holder, sr.lane,
                         make_kv(sr.key, static_cast<Value>(below)));
      team.metric(obs::kDownPtrScrubs);
    }
    unlock(team, sr.holder);
  }

  // Recycle what nothing references; requeue the rest (their scrub — or a
  // competing down-pointer repair — must itself age out before reuse).
  std::size_t freed = 0;
  for (const ChunkRef ref : cand) {
    if (referenced.count(ref) != 0) {
      epochs_->requeue(team.id(), ref);
      team.metric(obs::kChunkRequeues);
      team.record(simt::TraceEvent::kChunkReclaimed, ref, 0);
    } else {
      // The chunk's version chain dies with it: the grace period that freed
      // the chunk also covers its chain (no walker can still acquire the
      // head; a parked one fails the generation re-check), so the record
      // indices return to the arena immediately.
      purge_version_records(ref);
      if (integrity_ != nullptr) integrity_->unseal(ref);
      arena_.recycle(ref);
      persist_point();  // the generation flip + free-list push just hit disk
      // Belt-and-braces erosion mark: a hint naming this index already fails
      // its generation check, but the recycle means the table is aging.
      if (foresight_ != nullptr) foresight_->mark_dirty();
      chunks_reclaimed_.fetch_add(1, std::memory_order_relaxed);
      ++freed;
      team.metric(obs::kChunkReclaims);
      team.record(simt::TraceEvent::kChunkReclaimed, ref, 1);
    }
  }
  return freed;
}

ChunkRef Gfsl::alloc_chunk(Team& team) {
  ChunkRef ref = arena_.alloc_locked(lease_word(team));
  if (ref != NULL_CHUNK) persist_point();
  if (ref != NULL_CHUNK || epochs_ == nullptr) return ref;
  // Exhausted: help the epoch along and drain our own limbo.  Our own pin
  // (taken at operation entry) only blocks candidates retired during this
  // very operation; everything older can still drain.
  for (int round = 0; round < 4 && ref == NULL_CHUNK; ++round) {
    team.metric(obs::kEmergencyReclaims);
    epochs_->try_advance();
    reclaim_pass(team);
    ref = arena_.alloc_locked(lease_word(team));
  }
  if (ref != NULL_CHUNK) persist_point();
  return ref;
}

}  // namespace gfsl::core
