// SnapshotManager + the Gfsl-side MVCC glue (DESIGN.md §13).
//
// Everything in this file is host-resident sidecar state: version-record
// walks and registry operations issue no modeled device traffic and cross no
// scheduler yield points.  The only cooperative (yielding, modeled) pieces
// of scan_at are the ones it shares with the legacy scan — search_down and
// the checked chunk reads.
#include "core/snapshot.h"

#include <map>

#include "core/gfsl.h"

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

namespace {

void atomic_max(std::atomic<Rev>& a, Rev v) {
  Rev cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_max_u64(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- SnapshotManager: construction ------------------------------------------

SnapshotManager::SnapshotManager(std::uint32_t pool_chunks,
                                 std::uint32_t record_capacity)
    : pool_chunks_(pool_chunks),
      capacity_(record_capacity != 0
                    ? record_capacity
                    : std::max(4096u, std::min(pool_chunks * 4u, 1u << 20))),
      recs_(device::map_zeroed<VersionRec>(capacity_)),
      heads_(device::map_zeroed<std::atomic<RecIdx>>(pool_chunks_)) {
  free_head_.store(kNullRec, std::memory_order_relaxed);  // tag 0, empty
  for (auto& f : inflight_) f.store(0, std::memory_order_relaxed);
  for (auto& b : batch_slot_busy_) b.store(0, std::memory_order_relaxed);
  for (auto& s : snap_slots_) s.store(0, std::memory_order_relaxed);
}

// --- Record arena (tagged Treiber free-list, then a bump counter) -----------

RecIdx SnapshotManager::alloc_record() {
  std::uint64_t head = free_head_.load(std::memory_order_acquire);
  RecIdx idx = static_cast<RecIdx>(head);
  while (idx != kNullRec) {
    const RecIdx nxt = recs_[idx].next.load(std::memory_order_relaxed);
    const std::uint64_t want =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(head >> 32) + 1)
         << 32) |
        nxt;
    if (free_head_.compare_exchange_weak(head, want, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      break;
    }
    idx = static_cast<RecIdx>(head);
  }
  if (idx == kNullRec) {
    idx = fresh_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= capacity_) {
      fresh_.fetch_sub(1, std::memory_order_relaxed);
      return kNullRec;  // exhausted: the caller degrades
    }
  }
  created_.fetch_add(1, std::memory_order_relaxed);
  live_.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

void SnapshotManager::free_record(RecIdx i) {
  std::uint64_t head = free_head_.load(std::memory_order_acquire);
  for (;;) {
    recs_[i].next.store(static_cast<RecIdx>(head), std::memory_order_relaxed);
    const std::uint64_t want =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(head >> 32) + 1)
         << 32) |
        i;
    if (free_head_.compare_exchange_weak(head, want, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return;
    }
  }
}

void SnapshotManager::free_records(const std::vector<RecIdx>& idxs) {
  for (const RecIdx i : idxs) free_record(i);
}

// --- Revision clock / commit protocol ---------------------------------------

Rev SnapshotManager::begin_commit(int slot) {
  auto& sl = inflight_[slot];
  // PENDING -> allocate -> publish: the whole window is yield-free, so a
  // stable_rev() spin on PENDING is bounded by plain instruction progress.
  sl.store(kRevPending, std::memory_order_seq_cst);
  const Rev r = rev_.fetch_add(1, std::memory_order_seq_cst) + 1;
  sl.store(r, std::memory_order_seq_cst);
  if (durable_ != nullptr) atomic_max_u64(*durable_, r);
  return r;
}

void SnapshotManager::end_commit(int slot) {
  inflight_[slot].store(0, std::memory_order_seq_cst);
}

int SnapshotManager::acquire_batch_slot() {
  for (int i = 0; i < kBatchSlots; ++i) {
    std::uint32_t expected = 0;
    if (batch_slot_busy_[i].compare_exchange_strong(
            expected, 1, std::memory_order_acq_rel)) {
      return kTeamSlots + 1 + i;
    }
  }
  return -1;
}

void SnapshotManager::release_batch_slot(int slot) {
  const int i = slot - kTeamSlots - 1;
  if (i >= 0 && i < kBatchSlots) {
    batch_slot_busy_[i].store(0, std::memory_order_release);
  }
}

Rev SnapshotManager::stable_rev() const {
  // Read the clock FIRST: a commit that allocates after this load publishes
  // a revision strictly greater than `cur`, so missing its slot value below
  // can only make the result smaller (still correct, still monotone because
  // a slot holding r keeps every later stable_rev <= r-1 until end_commit).
  const Rev cur = rev_.load(std::memory_order_seq_cst);
  Rev s = cur;
  for (int i = 0; i < kCommitSlots; ++i) {
    Rev v = inflight_[i].load(std::memory_order_seq_cst);
    while (v == kRevPending) {  // yield-free window, bounded spin
      v = inflight_[i].load(std::memory_order_seq_cst);
    }
    if (v != 0 && v - 1 < s) s = v - 1;
  }
  return s;
}

// --- Snapshot registry ------------------------------------------------------

Snapshot SnapshotManager::acquire() {
  for (int i = 0; i < kMaxSnapshots; ++i) {
    Rev expected = 0;
    if (!snap_slots_[i].compare_exchange_strong(expected, 1,
                                                std::memory_order_seq_cst)) {
      continue;
    }
    // The slot now reads as rev 0 (maximally conservative) to every
    // watermark scan.  Because watermark() samples the stable revision
    // *before* scanning the registry, a pruner either sees this claim, or
    // its stable sample predates our stable_rev() call — either way its
    // horizon is <= s0 and cannot free a record s0 still needs.
    const Rev s0 = stable_rev();
    Rev claimed = 1;
    if (!snap_slots_[i].compare_exchange_strong(claimed, s0 + 1,
                                                std::memory_order_seq_cst)) {
      // Expired mid-registration (degrade raced us).  The slot is free
      // again; hand back a closed snapshot.
      return {};
    }
    return {i, s0, gen_.load(std::memory_order_seq_cst)};
  }
  return {};
}

void SnapshotManager::release(const Snapshot& s) {
  if (s.slot < 0 || s.slot >= kMaxSnapshots) return;
  Rev expected = s.rev + 1;
  snap_slots_[s.slot].compare_exchange_strong(expected, 0,
                                              std::memory_order_seq_cst);
}

bool SnapshotManager::valid(const Snapshot& s) const {
  if (!s.open() || s.slot >= kMaxSnapshots) return false;
  if (snap_slots_[s.slot].load(std::memory_order_seq_cst) != s.rev + 1) {
    return false;
  }
  if (gen_.load(std::memory_order_seq_cst) != s.gen) return false;
  return s.rev >= poison_rev_.load(std::memory_order_seq_cst);
}

Rev SnapshotManager::min_snapshot_rev() const {
  Rev m = kRevLive;
  for (const auto& sl : snap_slots_) {
    const Rev v = sl.load(std::memory_order_seq_cst);
    if (v == 0) continue;
    const Rev r = v - 1;  // v == 1: mid-registration, conservative rev 0
    if (r < m) m = r;
  }
  return m;
}

Rev SnapshotManager::watermark() const {
  // Stable revision FIRST, registry SECOND — the acquire() handshake's
  // correctness argument depends on this order (see acquire()).
  const Rev st = stable_rev();
  const Rev ms = min_snapshot_rev();
  return ms < st ? ms : st;
}

std::size_t SnapshotManager::active_snapshots() const {
  std::size_t n = 0;
  for (const auto& sl : snap_slots_) {
    if (sl.load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

Rev SnapshotManager::oldest_snapshot_age() const {
  const Rev ms = min_snapshot_rev();
  if (ms == kRevLive) return 0;
  const Rev cur = current_rev();
  return cur > ms ? cur - ms : 0;
}

std::size_t SnapshotManager::expire_lagging(Rev max_age) {
  if (max_age == 0) return 0;
  const Rev cur = current_rev();
  std::size_t n = 0;
  for (auto& sl : snap_slots_) {
    Rev v = sl.load(std::memory_order_seq_cst);
    // v == 1 is a registration in flight: its revision is being sampled
    // *now*, so it cannot be lagging.
    if (v <= 1) continue;
    const Rev r = v - 1;
    if (cur - r <= max_age) continue;
    if (sl.compare_exchange_strong(v, 0, std::memory_order_seq_cst)) {
      ++n;
      expired_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return n;
}

void SnapshotManager::degrade() {
  overflows_.fetch_add(1, std::memory_order_relaxed);
  atomic_max(poison_rev_, rev_.load(std::memory_order_seq_cst));
  gen_.fetch_add(1, std::memory_order_seq_cst);
  for (auto& sl : snap_slots_) {
    if (sl.exchange(0, std::memory_order_seq_cst) != 0) {
      expired_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// --- Version chains ---------------------------------------------------------

bool SnapshotManager::record_insert(ChunkRef c, Key k, Value v, Rev r) {
  const RecIdx ni = alloc_record();
  if (ni == kNullRec) {
    degrade();
    return false;
  }
  VersionRec& n = recs_[ni];
  n.key = k;
  n.value = v;
  n.insert_rev = r;
  n.erase_rev.store(kRevLive, std::memory_order_relaxed);
  n.next.store(load_head(c, std::memory_order_relaxed),
               std::memory_order_relaxed);
  store_head(c, ni, std::memory_order_release);
  return true;
}

bool SnapshotManager::mark_erased(ChunkRef c, Key k, Value v_hint, Rev r) {
  bool found_any = false;
  RecIdx cur = load_head(c, std::memory_order_acquire);
  for (std::uint32_t steps = 0; cur != kNullRec && steps < capacity_; ++steps) {
    VersionRec& rec = recs_[cur];
    if (rec.key == k) {
      found_any = true;
      if (rec.erase_rev.load(std::memory_order_acquire) == kRevLive) {
        rec.erase_rev.store(r, std::memory_order_release);
        return true;
      }
    }
    cur = rec.next.load(std::memory_order_acquire);
  }
  if (found_any) {
    // Departed-only history: the chunk entry this erase is removing was
    // superseded by those records already; a fresh {0, r} record would
    // fabricate an interval overlapping them with a possibly different
    // value.
    return true;
  }
  const RecIdx ni = alloc_record();
  if (ni == kNullRec) {
    degrade();
    return false;
  }
  VersionRec& n = recs_[ni];
  n.key = k;
  n.value = v_hint;
  n.insert_rev = 0;  // legacy key: visible since before any snapshot
  n.erase_rev.store(r, std::memory_order_relaxed);
  n.next.store(load_head(c, std::memory_order_relaxed),
               std::memory_order_relaxed);
  store_head(c, ni, std::memory_order_release);
  return true;
}

void SnapshotManager::annul_live_record(ChunkRef c, Key k) {
  RecIdx cur = load_head(c, std::memory_order_acquire);
  for (std::uint32_t steps = 0; cur != kNullRec && steps < capacity_; ++steps) {
    VersionRec& rec = recs_[cur];
    if (rec.key == k &&
        rec.erase_rev.load(std::memory_order_acquire) == kRevLive) {
      // [r, r) covers nothing: the record is dead at every snapshot and a
      // prune drops it once the watermark reaches r.
      rec.erase_rev.store(rec.insert_rev, std::memory_order_release);
      return;
    }
    cur = rec.next.load(std::memory_order_acquire);
  }
}

bool SnapshotManager::has_live_record(ChunkRef c, Key k, Value* v) const {
  RecIdx cur = load_head(c, std::memory_order_acquire);
  for (std::uint32_t steps = 0; cur != kNullRec && steps < capacity_; ++steps) {
    const VersionRec& rec = recs_[cur];
    if (rec.key == k &&
        rec.erase_rev.load(std::memory_order_acquire) == kRevLive) {
      if (v != nullptr) *v = rec.value;
      return true;
    }
    cur = rec.next.load(std::memory_order_acquire);
  }
  return false;
}

int SnapshotManager::copy_records(ChunkRef from, ChunkRef to, Key lo_excl,
                                  Key hi_incl) {
  int copied = 0;
  RecIdx src = load_head(from, std::memory_order_acquire);
  for (std::uint32_t steps = 0; src != kNullRec && steps < capacity_; ++steps) {
    const VersionRec& r = recs_[src];
    const RecIdx src_next = r.next.load(std::memory_order_acquire);
    if (r.key > lo_excl && r.key <= hi_incl) {
      const Rev er = r.erase_rev.load(std::memory_order_acquire);
      // Idempotence probe: a replayed copy (crash repair) finds its earlier
      // incarnation by (key, insert_rev) and only propagates a missing
      // erase stamp.
      RecIdx dst = load_head(to, std::memory_order_relaxed);
      RecIdx found = kNullRec;
      for (std::uint32_t s2 = 0; dst != kNullRec && s2 < capacity_; ++s2) {
        const VersionRec& d = recs_[dst];
        if (d.key == r.key && d.insert_rev == r.insert_rev) {
          found = dst;
          break;
        }
        dst = d.next.load(std::memory_order_relaxed);
      }
      if (found != kNullRec) {
        if (er != kRevLive &&
            recs_[found].erase_rev.load(std::memory_order_acquire) ==
                kRevLive) {
          recs_[found].erase_rev.store(er, std::memory_order_release);
        }
      } else {
        const RecIdx ni = alloc_record();
        if (ni == kNullRec) {
          degrade();
          return -1;
        }
        VersionRec& n = recs_[ni];
        n.key = r.key;
        n.value = r.value;
        n.insert_rev = r.insert_rev;
        n.erase_rev.store(er, std::memory_order_relaxed);
        n.next.store(load_head(to, std::memory_order_relaxed),
                     std::memory_order_relaxed);
        store_head(to, ni, std::memory_order_release);
        ++copied;
      }
    }
    src = src_next;
  }
  return copied;
}

std::size_t SnapshotManager::prune_chain(ChunkRef c, Rev wm, Key chunk_max,
                                         std::vector<RecIdx>* freed) {
  std::size_t dropped = 0;
  RecIdx prev = kNullRec;
  RecIdx cur = load_head(c, std::memory_order_acquire);
  for (std::uint32_t steps = 0; cur != kNullRec && steps < capacity_; ++steps) {
    VersionRec& r = recs_[cur];
    const RecIdx nxt = r.next.load(std::memory_order_acquire);
    const Rev er = r.erase_rev.load(std::memory_order_acquire);
    const bool departed = er != kRevLive;
    // An annulled record (erase_rev <= insert_rev: inserted and erased under
    // one batch revision, or a rolled-back insert) is visible at no snapshot
    // but still waits for the watermark: a scan_at whose snapshot predates
    // it may hold a chunk image taken between the two writes, and only this
    // record stops rule 2 from showing that transient entry.
    const bool drop = (departed && er <= wm) || r.key > chunk_max;
    if (drop) {
      // Unlink; a racing lock-free walker already on `cur` still follows
      // its (unchanged) next, which is why the index must survive an epoch
      // grace period before free_records().
      if (prev == kNullRec) {
        store_head(c, nxt, std::memory_order_release);
      } else {
        recs_[prev].next.store(nxt, std::memory_order_release);
      }
      if (freed != nullptr) freed->push_back(cur);
      ++dropped;
    } else {
      prev = cur;
    }
    cur = nxt;
  }
  if (dropped != 0) {
    pruned_.fetch_add(dropped, std::memory_order_relaxed);
    live_.fetch_sub(dropped, std::memory_order_relaxed);
  }
  return dropped;
}

std::size_t SnapshotManager::purge_chunk(ChunkRef c,
                                         std::vector<RecIdx>* freed) {
  RecIdx cur = exchange_head(c, kNullRec, std::memory_order_acq_rel);
  std::size_t n = 0;
  for (std::uint32_t steps = 0; cur != kNullRec && steps < capacity_; ++steps) {
    const RecIdx nxt = recs_[cur].next.load(std::memory_order_acquire);
    if (freed != nullptr) freed->push_back(cur);
    ++n;
    cur = nxt;
  }
  if (n != 0) {
    pruned_.fetch_add(n, std::memory_order_relaxed);
    live_.fetch_sub(n, std::memory_order_relaxed);
  }
  return n;
}

std::size_t SnapshotManager::chain_length(ChunkRef c) const {
  std::size_t n = 0;
  RecIdx cur = load_head(c, std::memory_order_acquire);
  for (std::uint32_t steps = 0; cur != kNullRec && steps < capacity_; ++steps) {
    ++n;
    cur = recs_[cur].next.load(std::memory_order_acquire);
  }
  return n;
}

// --- Lifecycle --------------------------------------------------------------

void SnapshotManager::reset() {
  gen_.fetch_add(1, std::memory_order_seq_cst);
  for (auto& sl : snap_slots_) {
    if (sl.exchange(0, std::memory_order_seq_cst) != 0) {
      expired_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Only a handed-out record can head a chain: with none handed out since
  // the last reset (which emptied every head), construction's all-zero
  // heads are still all "no chain" and no page of them is written.
  const std::uint64_t created = created_.load(std::memory_order_relaxed);
  if (created != created_at_reset_) {
    for (std::uint32_t i = 0; i < pool_chunks_; ++i) {
      store_head(i, kNullRec, std::memory_order_relaxed);
    }
    created_at_reset_ = created;
  }
  fresh_.store(0, std::memory_order_relaxed);
  free_head_.store(kNullRec, std::memory_order_release);
  live_.store(0, std::memory_order_relaxed);
  // With every chain gone, every surviving key resolves by rule 2 (acts as
  // insert_rev 0) at every *future* snapshot — old ones died with the
  // generation bump — so earlier poisoning is moot.
  poison_rev_.store(0, std::memory_order_seq_cst);
}

void SnapshotManager::restore_rev(Rev r) {
  atomic_max(rev_, r);
  if (durable_ != nullptr) atomic_max_u64(*durable_, r);
}

// --- Gfsl glue --------------------------------------------------------------

Snapshot Gfsl::snapshot() {
  if (snaps_ == nullptr) return {};
  return snaps_->acquire();
}

void Gfsl::release_snapshot(Snapshot& s) {
  if (snaps_ != nullptr && s.open()) snaps_->release(s);
  s = {};
}

void Gfsl::stamp_insert(Team& team, ChunkRef ref, Key k, Value v) {
  if (snaps_ == nullptr || !is_bottom(ref)) return;
  const Rev r = commit_rev(team);
  if (r == 0) {
    // A mutating path without a CommitScope cannot be versioned; poison the
    // store rather than let rule 2 show the key to pre-insert snapshots.
    snaps_->degrade();
    return;
  }
  // Idempotent under crash-repair replay: the original record (and its
  // original revision) wins.
  if (snaps_->has_live_record(ref, k)) return;
  if (snaps_->record_insert(ref, k, v, r)) {
    team.metric(obs::kVersionRecordsCreated);
  }
}

void Gfsl::stamp_erase(Team& team, ChunkRef ref, Key k, Value v_hint) {
  if (snaps_ == nullptr || !is_bottom(ref)) return;
  const Rev r = commit_rev(team);
  if (r == 0) {
    snaps_->degrade();
    return;
  }
  if (snaps_->mark_erased(ref, k, v_hint, r)) {
    team.metric(obs::kVersionRecordsCreated);
  }
}

void Gfsl::copy_version_records(Team& team, ChunkRef from, ChunkRef to,
                                Key lo_excl, Key hi_incl, int level) {
  if (snaps_ == nullptr || level != 0) return;
  const int n = snaps_->copy_records(from, to, lo_excl, hi_incl);
  if (n > 0) {
    team.metric(obs::kVersionRecordCopies, static_cast<std::uint64_t>(n));
  }
}

void Gfsl::maybe_prune_records(Team& team, ChunkRef ref) {
  // Requires `ref`'s chunk lock (single chain mutator).  Without an
  // EpochManager there is no grace period for lock-free chain walkers, so
  // records are never pruned (they leak until compact, seed-style — the
  // same deal unlinked zombies get).
  if (snaps_ == nullptr || epochs_ == nullptr || !is_bottom(ref)) return;
  const std::size_t len = snaps_->chain_length(ref);
  if (len <= kRecordPruneLen) return;
  if (team.metrics() != nullptr) {
    team.metrics()->record(obs::kVersionChainLen, len);
  }
  const Key mx = next_entry_max(
      arena_.entry(ref, arena_.next_slot()).load(std::memory_order_acquire));
  std::vector<RecIdx> freed;
  const std::size_t n =
      snaps_->prune_chain(ref, snaps_->watermark(), mx, &freed);
  if (n != 0) {
    team.metric(obs::kVersionRecordsPruned, n);
    for (const RecIdx i : freed) epochs_->retire_ticket(team.id(), i);
  }
}

void Gfsl::purge_version_records(ChunkRef ref) {
  // Called where the chunk itself is reclaimed (post-grace) or rebuilt
  // quiescently: no walker can still acquire the chain head, and any parked
  // walker is rejected by the chunk generation re-check, so the indices can
  // return to the arena immediately.
  if (snaps_ == nullptr) return;
  std::vector<RecIdx> freed;
  if (snaps_->purge_chunk(ref, &freed) != 0) snaps_->free_records(freed);
}

ScanAtStatus Gfsl::scan_at(Team& team, const Snapshot& s, Key lo, Key hi,
                           std::vector<std::pair<Key, Value>>& out,
                           std::size_t limit) {
  if (snaps_ == nullptr) return ScanAtStatus::kNoManager;
  if (lo < MIN_USER_KEY) lo = MIN_USER_KEY;
  if (hi > MAX_USER_KEY) hi = MAX_USER_KEY;
  if (!snaps_->valid(s)) {
    team.metric(obs::kScanAtExpired);
    return ScanAtStatus::kSnapshotExpired;
  }
  if (lo > hi || limit == 0) return ScanAtStatus::kOk;

  simt::OpScope scope(team, obs::kScanAtOp, lo);
  // Same manual pin pattern as execute_shard: EpochScope's exit() is
  // one-shot, but the mid-scan refresh needs pin cycles.
  const bool own_pin = epochs_ != nullptr && !epochs_->pinned(team.id());
  if (own_pin) epochs_->pin(team.id());

  std::vector<std::pair<Key, Value>> got;
  ScanAtStatus status = ScanAtStatus::kOk;
  try {
    // Monotone key watermark: chunks only ever move keys *forward* (splits
    // move the top half into a fresh successor, merges move survivors into
    // the successor), so a scan position `next_lo` never needs to restart
    // from `lo` — any concurrent reshuffle of keys >= next_lo lands at or
    // beyond the position where a re-descend resumes.
    Key next_lo = lo;
    std::uint32_t chunks_since_pin = 0;
    bool done = false;
    while (!done) {
      if (!snaps_->valid(s)) {
        status = ScanAtStatus::kSnapshotExpired;
        break;
      }
      Guarded cur = search_down(team, next_lo);
      bool redescend = false;
      while (!done && !redescend) {
        if (own_pin && chunks_since_pin >= kScanPinRefresh) {
          // Long scans must not stall reclamation (kBatchPinRefresh's
          // rationale); drop the pin, run epoch maintenance, re-pin and
          // re-descend to the watermark.
          chunks_since_pin = 0;
          epoch_exit(team);
          epochs_->pin(team.id());
          team.metric(obs::kScanAtRedescents);
          redescend = true;
          break;
        }
        // The lateral walk reads each bottom chunk once per pass: it loads
        // evict-first so it does not flush the writers' chunks from the L2.
        bool stale = false;
        const LaneVec<KV> kv =
            read_chunk_checked(team, cur, &stale, device::CacheOp::kEvictFirst);
        if (stale) {
          team.metric(obs::kScanAtRedescents);
          redescend = true;
          break;
        }
        if (is_zombie(team, kv)) {
          // Frozen contents moved forward already; the successor covers
          // this key range.
          note_zombie(team, cur.ref);
          cur = guard_ref(next_of(team, kv));
          continue;
        }
        const Key cmax = max_of(team, kv);
        const ChunkRef nxt = next_of(team, kv);
        // Only chunks at or past the watermark spend the refresh budget: a
        // re-descent through a down pointer that reclaim_pass swung to the
        // head of the level below lands arbitrarily far behind it, and a
        // walk back that counted would refresh before reaching the
        // watermark, forever.
        if (cmax >= next_lo) ++chunks_since_pin;
        // Harvest bound: cap at the chunk's own range.  Keys beyond cmax
        // belong to (and are harvested from) successors — entries beyond it
        // are an in-flight split's uncleared tail, chain records beyond it
        // are superseded copies.
        const Key hi_here = cmax < hi ? cmax : hi;

        // Resolution state per key: the chunk entries were read above
        // (writers stamp records *before* mutating entries, so reading the
        // entries first and the sidecar second can't miss a key both ways);
        // the sidecar walk below is host-side and yield-free.
        struct KeyState {
          bool entry = false;
          Value entry_v = 0;
          bool any_rec = false;
          bool vis = false;
          Value vis_v = 0;
        };
        std::map<Key, KeyState> keys;
        for (int i = 0; i < team.dsize(); ++i) {
          const Key k = kv_key(kv[i]);
          if (k == KEY_NEG_INF || kv_is_empty(kv[i])) continue;
          if (k < next_lo || k > hi_here) continue;
          KeyState& st = keys[k];
          st.entry = true;
          st.entry_v = kv_value(kv[i]);
        }
        RecIdx it = snaps_->chain_head(cur.ref);
        for (std::uint32_t steps = 0;
             it != SnapshotManager::kNullRec && steps < snaps_->walk_cap();
             ++steps) {
          const VersionRec& r = snaps_->rec(it);
          const RecIdx nxt_rec = r.next.load(std::memory_order_acquire);
          if (r.key >= next_lo && r.key <= hi_here) {
            const Rev er = r.erase_rev.load(std::memory_order_acquire);
            KeyState& st = keys[r.key];
            st.any_rec = true;
            if (r.insert_rev <= s.rev && s.rev < er) {
              st.vis = true;
              st.vis_v = r.value;
            }
          }
          it = nxt_rec;
        }
        // The chain was walked after the checked entry read: a chunk
        // recycle in between would have handed us another lifetime's chain,
        // so re-verify the generation before trusting the harvest.
        if (epochs_ != nullptr &&
            arena_.generation(cur.ref, std::memory_order_acquire) !=
                cur.gen) {
          team.metric(obs::kScanAtRedescents);
          redescend = true;
          break;
        }
        // A split between the entry read and the chain walk re-homes the
        // upper half's records into the fresh sibling, and the splitter's
        // next prune drops the originals (key > new max) from this chain —
        // the stale wide image would then resolve those keys by rule 2 at
        // every snapshot.  The split rewrites the NEXT slot (max falls to
        // the threshold), and nothing else lowers a live chunk's max with
        // versioning attached (erase keeps it sticky), so an unchanged
        // NEXT slot certifies the chain walked above still held every
        // record this image's range depends on.  (The unlink is ordered
        // after the split's publish, so observing the old slot here proves
        // the walk preceded any such prune.)
        if (arena_.entry(cur.ref, arena_.next_slot())
                .load(std::memory_order_acquire) !=
            kv[arena_.next_slot()]) {
          team.metric(obs::kScanAtRedescents);
          redescend = true;
          break;
        }
        // A record-arena degrade during the walk can have recycled records
        // under us — but it also expired this snapshot, so the harvest dies
        // with it instead of leaking torn values.
        if (!snaps_->valid(s)) {
          status = ScanAtStatus::kSnapshotExpired;
          done = true;
          break;
        }
        for (const auto& [k, st] : keys) {
          // Rule 1: a version interval covering s.  Rule 2: a live entry
          // with no recorded history (bulk-loaded / recovered keys act as
          // insert_rev 0).  Otherwise invisible at s.
          const bool visible = st.vis || (st.entry && !st.any_rec);
          if (!visible) continue;
          if (got.size() >= limit) {
            done = true;
            break;
          }
          got.emplace_back(k, st.vis ? st.vis_v : st.entry_v);
        }
        if (done || cmax >= hi || nxt == NULL_CHUNK) {
          done = true;
          break;
        }
        // Monotone watermark: a hop or re-descend can land BEHIND the scan
        // position (a stale down pointer resolving to a chunk recycled into
        // a lower range) — such a chunk harvests nothing (the filters above
        // are bounded by next_lo) and the walk converges forward, but its
        // cmax must never drag the watermark backwards or the keys below it
        // would be harvested twice.
        if (cmax >= next_lo) next_lo = cmax + 1;
        cur = guard_ref(nxt);
      }
    }
  } catch (...) {
    // TeamKilled unwind: silent unpin only (epoch_exit would yield).
    if (own_pin) epochs_->unpin(team.id());
    throw;
  }
  if (own_pin) epoch_exit(team);
  if (status != ScanAtStatus::kOk) {
    team.metric(obs::kScanAtExpired);
    return status;
  }
  out.insert(out.end(), got.begin(), got.end());
  scope.set_value(got.size());
  return ScanAtStatus::kOk;
}

}  // namespace gfsl::core
