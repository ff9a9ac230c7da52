// MVCC snapshots for GFSL (DESIGN.md §13).
//
// The chunk array stays exactly the paper's 8-byte-entry format; versioning
// lives in a host-resident *sidecar* (the way Jiffy keeps its revision
// metadata out of the hot line): a global monotonically-advancing revision
// (the SnapshotEpoch), an in-flight commit table, a snapshot registry, and a
// per-chunk chain of fixed-size version records.
//
// Protocol sketch:
//
//  * Every mutating op (or whole batch) allocates one revision `r` via
//    begin_commit(): slot <- PENDING, r = ++rev, slot <- r, and releases the
//    slot with end_commit() once the mutation is fully published.  The
//    PENDING/registered window has no scheduler yield points, so the
//    lockstep harness never parks a team mid-protocol.
//  * snapshot() never blocks: it returns s = min(rev, min over in-flight
//    slots - 1).  Any op whose revision is <= s has fully deregistered
//    (none-or-all visibility for in-flight ops and whole batches), and any
//    later begin_commit returns > s.  `s` is monotone across calls.
//  * Writers stamp version records *before* the chunk mutation, under the
//    bottom chunk's lock: an insert pushes a live record {k, v, r, LIVE}, an
//    erase stamps the live record's erase_rev (creating a {k, v, 0, r}
//    record for pre-manager "legacy" keys).  Readers read the chunk array
//    first and the sidecar chain second; with the writer ordered the other
//    way, a key visible at `s` can never be missed by both.
//  * Key movement (split / merge) *copies* records along: splits copy the
//    moved key range into the fresh chunk before the NEXT publish, merges
//    copy the donor's records (filtered to key <= donor max, which kills
//    stale out-of-range copies) into the receiver before the zombify.
//    Copies are idempotent on (key, insert_rev) so crash repairs can replay
//    them.
//  * Resolution of key k in chunk c at snapshot s:
//      1. a record with insert_rev <= s < erase_rev  -> visible (rec value);
//      2. else a live chunk entry and *no* record for k -> visible (chunk
//         value; covers bulk-loaded / recovered keys, which act as
//         insert_rev 0);
//      3. else invisible.
//  * GC: a departed record is droppable once erase_rev <= watermark() =
//    min(stable revision, oldest active snapshot); a record whose key is
//    outside its chunk's current range is a superseded copy and always
//    droppable.  Freed records take the same epoch-grace detour as chunk
//    indices (EpochManager ticket limbo) because readers walk chains
//    lock-free under an epoch pin.
//
// Record-arena exhaustion degrades instead of blocking: the manager bumps
// the store generation (expiring every active snapshot) and poisons
// revisions below the current one, so scan_at() reports kSnapshotExpired
// rather than returning a torn result; the structure itself is never
// blocked.  Everything here is optional — a Gfsl constructed without a
// SnapshotManager runs bit-identical to the seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "device/zeroed.h"

namespace gfsl::core {

/// The global revision type (the SnapshotEpoch).  Revision 0 is "before any
/// recorded mutation": a record with insert_rev 0 is visible at every
/// snapshot, which is exactly the semantics bulk-loaded and crash-recovered
/// keys need.
using Rev = std::uint64_t;
using RecIdx = std::uint32_t;

/// One entry of a per-chunk version chain.  `insert_rev` is immutable after
/// publication; `erase_rev` is stamped once (kRevLive -> r) by the erasing
/// team under the chunk lock; `next` only changes under the chunk lock
/// (push-front / unlink), and readers walk it with acquire loads.  All-zero
/// bytes are a value-initialized record, so the arena is a zero-filled
/// mapping (device/zeroed.h).
struct VersionRec {
  Key key = 0;
  Value value = 0;
  Rev insert_rev = 0;
  std::atomic<Rev> erase_rev{0};
  std::atomic<RecIdx> next{0};
};

/// A reader's handle: resolve everything as-of `rev`.  Validity is revoked
/// by release, by the lagging-snapshot expiry policy, and by store
/// generation bumps (compact / bulk_load / record-arena overflow).
struct Snapshot {
  int slot = -1;
  Rev rev = 0;
  std::uint64_t gen = 0;
  bool open() const { return slot >= 0; }
};

class SnapshotManager {
 public:
  static constexpr Rev kRevLive = ~Rev{0};
  static constexpr Rev kRevPending = ~Rev{0};
  static constexpr RecIdx kNullRec = ~RecIdx{0};
  /// Commit slots: one per team id (out-of-range ids share the overflow
  /// slot, mirroring device::EpochManager::slot_of) plus a few claimable
  /// slots for whole-batch commits.
  static constexpr int kTeamSlots = 256;
  static constexpr int kBatchSlots = 15;
  static constexpr int kCommitSlots = kTeamSlots + 1 + kBatchSlots;
  static constexpr int kMaxSnapshots = 128;

  /// `record_capacity` 0 sizes the arena from the chunk pool.
  explicit SnapshotManager(std::uint32_t pool_chunks,
                           std::uint32_t record_capacity = 0);

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // --- Revision clock / commit protocol ------------------------------------

  static int commit_slot(int team_id) {
    return (team_id >= 0 && team_id < kTeamSlots) ? team_id : kTeamSlots;
  }

  /// Allocate the next revision and register it in-flight on `slot`.
  Rev begin_commit(int slot);
  /// Deregister `slot` — the mutation committed under its revision is fully
  /// published (or rolled forward deterministically by crash repair).
  void end_commit(int slot);

  /// Claim a commit slot for a whole-batch revision; -1 when all are taken
  /// (the caller falls back to per-op revisions).
  int acquire_batch_slot();
  void release_batch_slot(int slot);

  Rev current_rev() const { return rev_.load(std::memory_order_seq_cst); }
  /// The newest revision every mutation at-or-below which has fully
  /// deregistered: min(rev, min in-flight - 1).  Monotone, non-blocking
  /// (bounded spin only over the yield-free PENDING window).
  Rev stable_rev() const;

  // --- Snapshots ------------------------------------------------------------

  /// Register a snapshot at stable_rev().  Never blocks.  The returned
  /// handle may already be invalid (slot exhaustion, poisoned revisions) —
  /// check valid().
  Snapshot acquire();
  void release(const Snapshot& s);
  bool valid(const Snapshot& s) const;

  /// Oldest registered snapshot revision; kRevLive when none.
  Rev min_snapshot_rev() const;
  /// GC horizon: min(stable_rev, oldest snapshot).  A departed record with
  /// erase_rev <= watermark can never be resolved by any current or future
  /// snapshot.  Reads the stable revision *before* scanning the registry —
  /// the order the registration handshake (store 1, then refine) relies on.
  Rev watermark() const;

  std::size_t active_snapshots() const;
  /// current_rev - oldest snapshot rev; 0 when none are registered.
  Rev oldest_snapshot_age() const;

  /// Lagging-snapshot pruning policy: expire every snapshot older than
  /// `max_age` revisions (0 disables).  Returns how many were expired.
  std::size_t expire_lagging(Rev max_age);
  /// Configured policy knob, applied by the structure's maintenance points.
  void set_max_snapshot_age(Rev max_age) {
    max_snapshot_age_.store(max_age, std::memory_order_relaxed);
  }
  Rev max_snapshot_age() const {
    return max_snapshot_age_.load(std::memory_order_relaxed);
  }

  std::uint64_t store_generation() const {
    return gen_.load(std::memory_order_acquire);
  }

  // --- Version chains -------------------------------------------------------
  // Chain mutations require the owning chunk's lock (single writer per
  // chain); reads are lock-free acquire walks, bounded by walk_cap().

  RecIdx chain_head(ChunkRef c) const {
    return load_head(c, std::memory_order_acquire);
  }
  const VersionRec& rec(RecIdx i) const { return recs_[i]; }
  /// Bound for lock-free chain walks: a reader racing a store reset cannot
  /// loop longer than the arena has records.
  std::uint32_t walk_cap() const { return capacity_; }

  /// Push a live record {k, v, r}.  False on arena exhaustion (the manager
  /// has already degraded; the caller proceeds unversioned).
  bool record_insert(ChunkRef c, Key k, Value v, Rev r);
  /// Stamp k's live record with erase revision r; creates a {k, v_hint, 0,
  /// r} record when k has none (legacy key).  False on exhaustion.
  bool mark_erased(ChunkRef c, Key k, Value v_hint, Rev r);
  /// Roll back a half-done insert: make k's live record cover nothing.
  void annul_live_record(ChunkRef c, Key k);
  bool has_live_record(ChunkRef c, Key k, Value* v = nullptr) const;

  /// Copy every record with key in (lo_excl, hi_incl] from `from`'s chain
  /// into `to`'s chain.  Idempotent on (key, insert_rev): a replayed copy
  /// only propagates a missing erase stamp.  Both chunks must be locked by
  /// the caller.  Returns records copied, or -1 on arena exhaustion (the
  /// manager degraded; surviving state is still consistent for every
  /// snapshot that remains valid).
  int copy_records(ChunkRef from, ChunkRef to, Key lo_excl, Key hi_incl);

  /// Drop from c's chain (under its lock): departed records with erase_rev
  /// <= wm (annulled ones included, no sooner) and records outside
  /// (0, chunk_max] (superseded copies).  Freed indices land in `freed` —
  /// the caller must route them through an epoch grace period before
  /// free_records().
  std::size_t prune_chain(ChunkRef c, Rev wm, Key chunk_max,
                          std::vector<RecIdx>* freed);
  /// Detach c's whole chain (chunk being recycled); same grace contract.
  std::size_t purge_chunk(ChunkRef c, std::vector<RecIdx>* freed);
  /// Return grace-elapsed indices to the arena.
  void free_records(const std::vector<RecIdx>& idxs);

  std::size_t chain_length(ChunkRef c) const;

  // --- Lifecycle ------------------------------------------------------------

  /// Quiescent (compact / bulk_load / recover): drop every chain and every
  /// snapshot, empty the record free-list and rewind the bump counter (no
  /// record is written), bump the store generation.  The revision clock is
  /// preserved.  The chain heads are written only when a record was handed
  /// out since construction or the last reset; otherwise they are all empty
  /// already.
  void reset();
  /// Crash recovery: adopt the durable revision counter.  Chains are
  /// volatile — every surviving key collapses to insert_rev 0.
  void restore_rev(Rev r);
  /// Mirror every allocated revision into `word` (CAS-max, so concurrent
  /// allocations cannot regress it) — the persist layer's durable revision.
  void attach_durable(std::atomic<std::uint64_t>* word) { durable_ = word; }

  /// Record-arena exhaustion fallback, also available to the structure when
  /// a mutation cannot be versioned at all: expire every snapshot and poison
  /// every revision at-or-below the current one, so no snapshot can observe
  /// the unversioned window.
  void degrade();

  // --- Introspection --------------------------------------------------------

  std::uint32_t pool_chunks() const { return pool_chunks_; }
  std::uint32_t record_capacity() const { return capacity_; }
  std::uint64_t records_created() const {
    return created_.load(std::memory_order_relaxed);
  }
  std::uint64_t records_pruned() const {
    return pruned_.load(std::memory_order_relaxed);
  }
  std::uint64_t records_live() const {
    return live_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflows() const {
    return overflows_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_expired() const {
    return expired_.load(std::memory_order_relaxed);
  }
  /// The chain-head array, for white-box tests that check which of its
  /// pages were ever touched.
  const void* chain_heads() const { return heads_.get(); }

 private:
  RecIdx alloc_record();
  void free_record(RecIdx i);

  // A chain head holds its record index xor kNullRec, so all-zero bytes are
  // "no chain" and the heads are a zero-filled mapping that construction
  // never writes.  Every load, store and exchange of a head goes through
  // these three.
  RecIdx load_head(ChunkRef c, std::memory_order mo) const {
    return heads_[c].load(mo) ^ kNullRec;
  }
  void store_head(ChunkRef c, RecIdx i, std::memory_order mo) {
    heads_[c].store(i ^ kNullRec, mo);
  }
  RecIdx exchange_head(ChunkRef c, RecIdx i, std::memory_order mo) {
    return heads_[c].exchange(i ^ kNullRec, mo) ^ kNullRec;
  }

  std::uint32_t pool_chunks_;
  std::uint32_t capacity_;
  // The record arena.  A freed record goes onto a tagged Treiber free-list;
  // alloc_record() pops it first, then hands out the never-used records
  // [fresh_, capacity_) in ascending order: the order a list threaded
  // through the whole arena would give, yet neither construction nor
  // reset() writes a record, so a record's page is first touched when the
  // record is handed out.
  device::ZeroedArray<VersionRec> recs_;
  device::ZeroedArray<std::atomic<RecIdx>> heads_;  // encoded: load_head
  std::atomic<std::uint64_t> free_head_;  // tagged Treiber head: tag<<32|idx
  std::atomic<std::uint32_t> fresh_{0};   // next never-used record

  std::atomic<Rev> rev_{0};
  std::atomic<Rev> inflight_[kCommitSlots];
  std::atomic<std::uint32_t> batch_slot_busy_[kBatchSlots];

  std::atomic<Rev> snap_slots_[kMaxSnapshots];  // 0 = free, else rev+1
  std::atomic<std::uint64_t> gen_{1};
  std::atomic<Rev> poison_rev_{0};
  std::atomic<Rev> max_snapshot_age_{0};

  std::atomic<std::uint64_t>* durable_ = nullptr;

  std::atomic<std::uint64_t> created_{0};
  std::uint64_t created_at_reset_ = 0;  // created_ when reset() last ran
  std::atomic<std::uint64_t> pruned_{0};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> expired_{0};
};

/// Outcome of Gfsl::scan_at.
enum class ScanAtStatus {
  kOk = 0,
  kSnapshotExpired,  // released, expired by policy, or store-generation bump
  kNoManager,        // the structure was built without a SnapshotManager
};

}  // namespace gfsl::core
