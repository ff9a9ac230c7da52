// Whole-process crash recovery over a persisted region (DESIGN.md §12).
//
// The process-crash model: every durable word (chunk slots, generation
// stamps, free-list linkage, level heads, intent descriptors, lease slots)
// lives in an mmap'd MAP_SHARED file, so a SIGKILL at any persist point
// leaves exactly the prefix of stores issued before that point.  recover()
// turns such an image back into a serviceable structure:
//
//   1. Death certificates: every persisted lease generation is marked
//      crashed — no team of the dead process can still be running — and the
//      recovery medic id is revived so its own repairs are attributable.
//   2. Intent replay: the §8 medic sweep (recover_all_expired) claims every
//      published intent against the now-expired leases, rolls each half-done
//      mutation forward or back with the chunk-state-only repairs, releases
//      every dead-owned lock, and force-quiesces stale epoch pins.
//   3. Reachability: one walk per level (zombies included) refuses a cycle,
//      marks every chunk the structure still links and rebuilds the volatile
//      per-level gauges and chunk levels.
//   4. Upper-level rebuild: for l = 1, 2, ..., every live chunk of level l
//      goes through the online scrub's repair_upper_chunk (scrub.cpp) under
//      the medic's lock, with one lateral cursor carried along level l-1.
//      A key whose bottom-level home vanished mid-crash (the raise published
//      before the bottom insert, or an erase peeled the bottom copy and died
//      before the upper one) is dropped; every kept key's down pointer is
//      set to the chunk holding it below.  A chunk the rebuild empties is
//      zombified and left linked, as a zombie any search may meet.
//   5. Arena normalization: the reachability marks classify each index the
//      bump pointer ever handed out — odd generation or unreachable means
//      free — and the tagged free-list is rebuilt deterministically
//      (ascending pops, tag 0).  A torn allocation (killed inside
//      alloc_locked's init window) is odd by construction and therefore
//      always classified free, never live.
//   6. Canonicalization: lease slots reset to epoch 0, superblock marked
//      recovered.  This — plus repairs that only ever touch chunk state and
//      generation bumps that only go even -> odd — is what makes recover()
//      idempotent: a second run, or a re-run after a recoverer was itself
//      killed mid-repair, converges to the bit-identical image.
//   7. A strict validate() gates the result; serving a structure recover()
//      did not pass is a caller bug.
#include <string>
#include <vector>

#include "core/gfsl.h"
#include "core/inspect.h"

namespace gfsl::core {

using simt::Team;

RecoveryReport Gfsl::recover() {
  RecoveryReport rep;
  auto fail = [&rep](const std::string& msg) {
    if (rep.ok) {
      rep.ok = false;
      rep.error = msg;
    }
  };
  if (region_ == nullptr) {
    fail("recover() requires a persist region");
    return rep;
  }
  // 0. Distrust the adopted image's superblock before dereferencing any
  // geometry derived from it: attach() validated the file once, but the
  // mapping is live memory — damage after attach (or a fault-plane
  // injection) would otherwise steer every section pointer below.  A typed
  // failure here beats undefined behavior three steps later.
  {
    std::string sb_err;
    if (!region_->verify_superblock(&sb_err)) {
      fail("superblock rejected: " + sb_err);
      return rep;
    }
  }
  // The constructor enforces region => leases, so leases_ is non-null here.
  // The hint table is process-local and describes the pre-crash image;
  // unpublish it before any repair so no post-recovery op trusts it.
  if (foresight_ != nullptr) foresight_->invalidate_all();

  // 1. Death certificates for every persisted lease generation, then a live
  // lease for the medic so its claims and repair locks are attributable
  // (and themselves recoverable if a test kills recovery mid-repair).
  leases_->mark_all_crashed();
  leases_->revive(kRecoveryMedicId);

  for (int id = 0; id < sched::LeaseTable::kMaxTeams; ++id) {
    if (intents_[id].word.load(std::memory_order_acquire) != 0) {
      ++rep.intents_repaired;
    }
  }

  // 2. Intent replay + dead-lock release + stale-pin quiesce: the same §8
  // medic sweep the in-process crash harness runs, now against an image
  // where *every* lease is expired.
  Team medic(cfg_.team_size, kRecoveryMedicId, /*seed=*/7);
  rep.locks_released = recover_all_expired(medic);

  const std::uint32_t hw = arena_.high_water();
  for (std::uint32_t i = 0; i < hw; ++i) {
    const KV lk = arena_.entries(static_cast<ChunkRef>(i))[arena_.lock_slot()]
                      .load(std::memory_order_acquire);
    if (lock_entry_state(lk) == kLocked) {
      fail("chunk " + std::to_string(i) + " still locked after the medic "
           "sweep (owner word " + std::to_string(lock_entry_owner(lk)) + ")");
      return rep;
    }
  }
  for (int id = 0; id < sched::LeaseTable::kMaxTeams; ++id) {
    const std::uint32_t iw =
        intents_[id].word.load(std::memory_order_acquire);
    if (iw == 0) continue;
    // The expiry-gated sweep above skips a word whose encoded team/epoch
    // decodes to nothing expirable — but every lease except the medic's was
    // just marked crashed, so no live publisher can exist: a surviving
    // claim is a corrupted word, not an open intent.  Force-claim it; the
    // payload triage inside recover_intent replays a genuine record and
    // rolls garbage back.
    if (!recover_intent(medic, intents_[id], iw) ||
        intents_[id].word.load(std::memory_order_acquire) != 0) {
      fail("intent slot " + std::to_string(id) +
           " still claimed after the medic sweep");
      return rep;
    }
  }

  // 3. One reachability walk per level, zombies included.  It refuses a
  // cyclic level before the rebuild below walks it, marks every chunk the
  // structure still links, and rebuilds the volatile state only a walk
  // knows: the per-level gauge (non-zombie chunks beyond the first;
  // construction stores 0 with one chunk in the level) and the chunk-level
  // byte array that gates version stamping and picks the scrub's repair.
  std::vector<bool> reachable(arena_.capacity());
  for (int l = 0; l < max_levels(); ++l) {
    std::int64_t chunks = 0;
    std::int64_t live = 0;
    const bool cycle = walk_chain(
        arena_, head_[static_cast<std::size_t>(l)].load(std::memory_order_acquire),
        [&](ChunkRef ref) {
          ++chunks;
          reachable[ref] = true;
          set_chunk_level(ref, l);
          const KV lk = arena_.entry(ref, arena_.lock_slot())
                            .load(std::memory_order_acquire);
          if (lock_entry_state(lk) != kZombie) ++live;
        });
    if (cycle) {
      fail("cycle in level " + std::to_string(l) + " survived recovery");
      return rep;
    }
    if (chunks == 0) {
      fail("level " + std::to_string(l) + " lost its head chunk");
      return rep;
    }
    level_chunks_[static_cast<std::size_t>(l)].store(
        live - 1, std::memory_order_relaxed);
  }
  for (int l = max_levels(); l < kMaxLevels; ++l) {
    level_chunks_[static_cast<std::size_t>(l)].store(
        0, std::memory_order_relaxed);
  }

  // 4. Rebuild every live upper chunk from the level below, bottom-up, so
  // level l is rebuilt against the already rebuilt level l-1.  The one
  // lateral cursor on level l-1 only moves right along level l's ascending
  // keys, so a level costs O(chunks).  Every lock was released above, so
  // try_lock fails only on a zombie.  An emptied chunk stays linked as a
  // zombie (validate() accepts linked zombies; post-restart searches unlink
  // and retire it), and zombify() keeps the level gauge exact.
  for (int l = 1; l < max_levels(); ++l) {
    ChunkRef below =
        head_[static_cast<std::size_t>(l - 1)].load(std::memory_order_acquire);
    ChunkRef cur =
        head_[static_cast<std::size_t>(l)].load(std::memory_order_acquire);
    while (cur != NULL_CHUNK) {
      const ChunkRef next = next_entry_ref(
          arena_.entry(cur, arena_.next_slot()).load(std::memory_order_acquire));
      if (try_lock(medic, cur)) {
        const UpperRepair r = repair_upper_chunk(medic, cur, l, &below);
        rep.stale_keys_scrubbed += r.dropped;
        if (r.emptied) {
          zombify(medic, cur, l);
          ++rep.chunks_zombified;
        } else {
          unlock(medic, cur);
        }
      }
      cur = next;
    }
  }

  // 4b. Generation triage: a *reachable* chunk with an odd stamp cannot
  // arise from any legal crash interleaving — alloc_locked flips the stamp
  // even before the link that makes the chunk reachable is published, and
  // recycle only runs after the unlink.  It is memory damage in the stamp
  // word itself; left alone, step 5 would push a still-linked chunk onto
  // the free-list and hand its index out for reuse.  Normalize it back to
  // even (the chunk's contents were already vetted by the rebuild above).
  for (ChunkRef ref = 0; ref < reachable.size(); ++ref) {
    if (reachable[ref] && (arena_.generation(ref) & 1u) != 0) {
      arena_.force_even_generation(ref);
      persist_point();
      ++rep.generations_repaired;
    }
  }

  // 5. Rebuild the free-list from the classification: an index is free iff
  // its generation is odd (a completed recycle, or an allocation killed
  // inside its init window — the stamp goes even only after the last init
  // store) or nothing reaches it (unlinked zombies whose retire never
  // drained, allocations killed before their link was published, limbo
  // carried by the dead process).  Descending collection => ascending pops,
  // and rebuild_free resets the tag: the rebuilt list is a pure function of
  // the repaired image.
  std::vector<ChunkRef> free_refs;
  for (std::uint32_t i = hw; i > 0; --i) {
    const auto ref = static_cast<ChunkRef>(i - 1);
    if ((arena_.generation(ref) & 1u) != 0 || !reachable[ref]) {
      free_refs.push_back(ref);
    }
  }
  arena_.rebuild_free(free_refs);
  rep.chunks_freed = free_refs.size();
  persist_point();

  // 6. Canonicalize: no lock or intent references a minted lease word any
  // more, so the table resets to epoch 0 across the board — a recovered
  // image is a function of the crash state alone, not of how many recovery
  // attempts it took.  Then stamp the superblock.
  leases_->reset_all();
  region_->mark_recovered();

  // 7. Collapse version history: no snapshot survives a process death, so
  // every surviving key acts as insert_rev 0 (visible to all future
  // snapshots) and the chains drop wholesale.  The durable revision word
  // (CAS-max'd at every begin_commit) restores the clock so post-restart
  // revisions never collide with pre-crash ones a lagging replica (or a
  // re-attached image) might have observed.
  if (snaps_ != nullptr) {
    snaps_->reset();
    snaps_->restore_rev(
        static_cast<std::atomic<std::uint64_t>*>(region_->durable_rev())
            ->load(std::memory_order_relaxed));
  }

  // Fresh seals over the repaired image: every surviving chunk was rewritten
  // or vetted above, so the recovered state is the new integrity baseline.
  reseal_all();

  rep.validation = validate(/*strict=*/true);
  if (!rep.validation.ok) {
    fail("post-recovery validation failed: " + rep.validation.error);
  }
  return rep;
}

}  // namespace gfsl::core
