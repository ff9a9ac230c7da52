// Construction and the cooperative building blocks shared by all operations.
#include "core/gfsl.h"

#include <stdexcept>

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

namespace {
// The region reserves fixed strides for the sections core places into it;
// a drift in either constant would silently corrupt a restart image.
static_assert(sizeof(IntentSlot) <= device::PersistRegion::kIntentSlotBytes);
static_assert(Gfsl::kMaxLevels == device::PersistRegion::kMaxLevels);
static_assert(sched::LeaseTable::kMaxTeams ==
              static_cast<int>(device::PersistRegion::kMaxTeams));
static_assert(std::atomic<ChunkRef>::is_always_lock_free);
static_assert(sizeof(std::atomic<ChunkRef>) == sizeof(ChunkRef));
}  // namespace

Gfsl::Gfsl(const GfslConfig& cfg, device::DeviceMemory* mem,
           sched::StepScheduler* scheduler, sched::LeaseTable* leases,
           device::EpochManager* epochs, device::PersistRegion* region,
           SnapshotManager* snaps, ForesightIndex* foresight,
           IntegritySidecar* integrity)
    : cfg_(cfg),
      mem_(mem),
      sched_(scheduler),
      leases_(leases),
      epochs_(epochs),
      region_(region),
      snaps_(snaps),
      foresight_(foresight),
      integrity_(integrity),
      // The per-chunk level byte gates version stamping (snapshots) and
      // tells the integrity scrub which repair strategy applies.
      chunk_level_((snaps == nullptr && integrity == nullptr)
                       ? device::ZeroedArray<std::uint8_t>()
                       : device::map_zeroed<std::uint8_t>(cfg.pool_chunks)),
      commit_ctx_(snaps == nullptr
                      ? nullptr
                      : new CommitCtx[SnapshotManager::kCommitSlots]()),
      intents_own_((leases == nullptr || region != nullptr)
                       ? nullptr
                       : new IntentSlot[sched::LeaseTable::kMaxTeams]),
      intents_(nullptr),
      arena_(cfg.team_size, cfg.pool_chunks, region) {
  if (mem_ == nullptr) throw std::invalid_argument("DeviceMemory required");
  if (cfg_.team_size < 8 || cfg_.team_size > 32 ||
      (cfg_.team_size & (cfg_.team_size - 1)) != 0) {
    throw std::invalid_argument("team size must be 8, 16 or 32");
  }
  if (cfg_.p_chunk < 0.0 || cfg_.p_chunk > 1.0) {
    throw std::invalid_argument("p_chunk must be in [0, 1]");
  }
  if (region_ != nullptr && leases_ == nullptr) {
    // Without leases a crash image would hold unattributable locks that no
    // recovery pass may ever steal.
    throw std::invalid_argument("a persist region requires a LeaseTable");
  }
  if (integrity_ != nullptr) integrity_->bind(arena_.capacity());
  if (snaps_ != nullptr) {
    if (snaps_->pool_chunks() < cfg_.pool_chunks) {
      // The per-chunk chain-head array must cover every ChunkRef.
      throw std::invalid_argument("SnapshotManager sized for a smaller pool");
    }
    if (region_ != nullptr) {
      snaps_->attach_durable(static_cast<std::atomic<std::uint64_t>*>(
          region_->durable_rev()));
    }
  }
  if (region_ != nullptr) {
    head_ = static_cast<std::atomic<ChunkRef>*>(region_->level_heads());
    auto* islots = static_cast<char*>(region_->intent_slots());
    if (region_->fresh()) {
      for (int id = 0; id < sched::LeaseTable::kMaxTeams; ++id) {
        new (islots + static_cast<std::size_t>(id) * sizeof(IntentSlot))
            IntentSlot();
      }
    }
    intents_ = reinterpret_cast<IntentSlot*>(islots);
  } else {
    head_ = head_own_.data();
    intents_ = intents_own_.get();
  }
  // The head array lives after the chunk pool in the synthetic device
  // address space so it maps to its own cache lines.
  head_device_base_ =
      arena_.device_address(arena_.capacity());

  if (region_ != nullptr && !region_->fresh()) {
    // Attach: the mapped image IS the structure.  Heads, chunks, intents and
    // leases are adopted as stored; the volatile per-level gauges are
    // rebuilt by recover(), which the caller must run before serving.
    for (int level = 0; level < kMaxLevels; ++level) {
      level_chunks_[static_cast<std::size_t>(level)].store(
          0, std::memory_order_relaxed);
    }
    return;
  }
  if (!arena_.can_alloc(static_cast<std::uint32_t>(max_levels()))) {
    throw std::invalid_argument("pool too small for initial head chunks");
  }

  // §4.1: "The structure initially consists of a single unlocked chunk in
  // each level, containing the -inf key and a pointer to the chunk in the
  // level below."  Build bottom-up so each level links to the one below.
  ChunkRef below = NULL_CHUNK;
  for (int level = 0; level < max_levels(); ++level) {
    const ChunkRef ch = arena_.alloc_locked();
    set_chunk_level(ch, level);
    const Value down = (level == 0) ? Value{0} : static_cast<Value>(below);
    arena_.entry(ch, 0).store(make_kv(KEY_NEG_INF, down),
                              std::memory_order_relaxed);
    arena_.entry(ch, arena_.lock_slot())
        .store(make_lock_entry(kUnlocked), std::memory_order_release);
    head_[static_cast<std::size_t>(level)].store(ch, std::memory_order_relaxed);
    level_chunks_[static_cast<std::size_t>(level)].store(
        0, std::memory_order_relaxed);
    below = ch;
  }
  for (int level = max_levels(); level < kMaxLevels; ++level) {
    head_[static_cast<std::size_t>(level)].store(NULL_CHUNK,
                                                 std::memory_order_relaxed);
    level_chunks_[static_cast<std::size_t>(level)].store(
        0, std::memory_order_relaxed);
  }
  // The head chunks above were published unlocked by direct stores, not
  // through unlock() — give them their initial seals.
  reseal_all();
}

void Gfsl::sync_point(Team& team) {
  if (sched_ != nullptr) sched_->yield(team.id());
  team.sync();
}

LaneVec<KV> Gfsl::read_chunk(Team& team, ChunkRef ref, device::CacheOp op) {
  // One lockstep instruction: every lane loads its own entry.  The whole
  // chunk is contiguous, so the access coalesces into chunk_bytes/128
  // transactions (1 for N=16, 2 for N=32 — §5.2 "Chunk Size").
  sync_point(team);
  LaneVec<KV> kv;
  const std::atomic<KV>* e = arena_.entries(ref);
  for (int i = 0; i < team.size(); ++i) {
    kv[i] = e[i].load(std::memory_order_acquire);
  }
  mem_->warp_read(arena_.device_address(ref), arena_.chunk_bytes(), op);
  team.step();
  return kv;
}

bool Gfsl::is_zombie(Team& team, const LaneVec<KV>& kv) {
  const KV lock_kv = team.shfl(kv, team.lock_lane());
  return lock_entry_state(lock_kv) == kZombie;
}

bool Gfsl::is_locked_or_zombie(Team& team, const LaneVec<KV>& kv) {
  const KV lock_kv = team.shfl(kv, team.lock_lane());
  return lock_entry_state(lock_kv) != kUnlocked;
}

ChunkRef Gfsl::ptr_from_tid(Team& team, int lane, const LaneVec<KV>& kv) {
  return static_cast<ChunkRef>(kv_value(team.shfl(kv, lane)));
}

Key Gfsl::max_of(Team& team, const LaneVec<KV>& kv) {
  return next_entry_max(team.shfl(kv, team.next_lane()));
}

ChunkRef Gfsl::next_of(Team& team, const LaneVec<KV>& kv) {
  return next_entry_ref(team.shfl(kv, team.next_lane()));
}

int Gfsl::num_nonempty(Team& team, const LaneVec<KV>& kv) {
  const std::uint32_t bal = team.ballot_fn(
      [&](int i) { return i < team.dsize() && !kv_is_empty(kv[i]); });
  return Team::popc(bal);
}

bool Gfsl::chunk_contains(Team& team, const LaneVec<KV>& kv, Key k) {
  const std::uint32_t bal = team.ballot_fn(
      [&](int i) { return i < team.dsize() && kv_key(kv[i]) == k; });
  return bal != 0;
}

bool Gfsl::chunk_not_enclosing(Team& team, const LaneVec<KV>& kv, Key k) {
  // An enclosing chunk is "the first non-zombie chunk in the level with a
  // max field greater or equal to k" (§4.1).
  return is_zombie(team, kv) || max_of(team, kv) < k;
}

int Gfsl::height_coop(Team& team) {
  // Cooperative getHeight: lane l checks whether level l is in use, then a
  // ballot picks the highest such level (§4.2.1).
  sync_point(team);
  const int levels = max_levels();
  const std::uint32_t bal = team.ballot_fn([&](int i) {
    return i > 0 && i < levels &&
           level_chunks_[static_cast<std::size_t>(i)].load(
               std::memory_order_acquire) > 0;
  });
  mem_->warp_read(head_device_base_, static_cast<std::uint32_t>(levels) * 4u);
  const int h = Team::highest_lane(bal);
  return h < 0 ? 0 : h;
}

ChunkRef Gfsl::head_of(Team& team, int level) {
  sync_point(team);
  mem_->warp_read(head_device_base_ + 256 + static_cast<std::uint64_t>(level) * 4u,
                  4u);
  team.step();
  return head_[static_cast<std::size_t>(level)].load(std::memory_order_acquire);
}

bool Gfsl::try_lock(Team& team, ChunkRef ref) {
  // The LOCK lane CASes the lock entry; the whole team observes the result.
  // With a LeaseTable attached the acquisition stamps this team's lease word
  // into the entry's value half — on the uncontended path that is the whole
  // cost of crash tolerance: one extra (relaxed) load to fetch the word.
  sync_point(team);
  mem_->atomic_rmw(arena_.entry_address(ref, arena_.lock_slot()));
  KV expected = make_lock_entry(kUnlocked);
  const bool ok =
      arena_.entry(ref, arena_.lock_slot())
          .compare_exchange_strong(
              expected, make_lock_entry(kLocked, lease_word(team)),
              std::memory_order_acq_rel, std::memory_order_acquire);
  team.step();
  if (ok) {
    persist_point();
    ++team.counters().lock_acquires;
    team.note_lock_acquired(ref);
    team.record(simt::TraceEvent::kLockAcquired, ref);
  } else {
    ++team.counters().lock_spins;
    team.record(simt::TraceEvent::kLockFailed, ref);
  }
  return ok;
}

void Gfsl::unlock(Team& team, ChunkRef ref) {
  team.note_lock_released(ref);
  team.record(simt::TraceEvent::kUnlock, ref);
  sync_point(team);
  // Seal before the releasing store: every data-slot mutation happens under
  // this lock, so "unlocked" must imply "seal matches contents".
  stamp_seal(team, ref);
  mem_->lane_write(arena_.entry_address(ref, arena_.lock_slot()), 8);
  arena_.entry(ref, arena_.lock_slot())
      .store(make_lock_entry(kUnlocked), std::memory_order_release);
  persist_point();
  team.step();
}

void Gfsl::note_zombie(Team& team, ChunkRef ref) {
  team.metric(obs::kZombieEncounters);
  team.record(simt::TraceEvent::kZombieSkipped, ref);
}

void Gfsl::mark_zombie(Team& team, ChunkRef ref) {
  team.note_lock_released(ref);  // zombies stay marked; the hold ends here
  team.record(simt::TraceEvent::kZombieMarked, ref);
  // Terminal state: "the contents of a chunk are never changed after it
  // becomes a zombie" (§4.3); zombies are never unlocked.
  sync_point(team);
  mem_->lane_write(arena_.entry_address(ref, arena_.lock_slot()), 8);
  arena_.entry(ref, arena_.lock_slot())
      .store(make_lock_entry(kZombie), std::memory_order_release);
  persist_point();
  team.step();
}

void Gfsl::write_entry(Team& team, ChunkRef ref, int slot, KV v) {
  sync_point(team);
  mem_->lane_write(arena_.entry_address(ref, slot), 8);
  arena_.entry(ref, slot).store(v, std::memory_order_release);
  // Every mutating span publish (shifts, NEXT rewrites, down swings, frozen
  // copies) flows through this store — the persist point right after it is
  // the single hook that makes each one individually crash-atomic.
  persist_point();
  team.step();
}

void Gfsl::atomic_entry_write(Team& team, ChunkRef ref, int slot, KV v) {
  // 64-bit entry stores are naturally atomic on the device; modeled as a
  // single-lane write plus one instruction.
  write_entry(team, ref, slot, v);
}

ChunkRef Gfsl::find_and_lock_enclosing(Team& team, ChunkRef start, Key k,
                                       int level) {
  // Algorithm 4.8: lateral spin-search until the enclosing chunk is locked.
  // The spin on a held lock is bounded: each failed round probes the
  // holder's lease (an expired holder is repaired and its lock stolen) and
  // backs off exponentially; after kSpinFallback rounds the team abandons
  // the position and re-walks laterally from `start`, so a slow holder can
  // delay it but never pin it to one chunk.  `start` stays walkable because
  // the caller's epoch pin (or, without an EpochManager, the absence of any
  // reclamation) keeps every chunk it reached from being recycled.
  ChunkRef ch = start;
  int spins = 0;
  for (;;) {
    LaneVec<KV> kv = read_chunk(team, ch);
    if (chunk_not_enclosing(team, kv, k)) {
      note_lateral(team, level);
      ch = next_of(team, kv);
      continue;
    }
    if (is_locked_or_zombie(team, kv)) {
      if (maybe_recover(team, ch, team.shfl(kv, team.lock_lane()))) continue;
      if (++spins >= kSpinFallback) {
        spins = 0;
        ch = start;
        team.metric(obs::kLockRetraversals);
        continue;
      }
      backoff(team, spins);
      continue;
    }
    if (!try_lock(team, ch)) continue;
    spins = 0;
    kv = read_chunk(team, ch);
    if (chunk_not_enclosing(team, kv, k)) {
      // Lost a race (split/merge moved k's range right); release and chase.
      unlock(team, ch);
      note_lateral(team, level);
      ch = next_of(team, kv);
      continue;
    }
    return ch;
  }
}

ChunkRef Gfsl::lock_next_chunk(Team& team, ChunkRef locked) {
  // Lock the next non-zombie chunk after `locked` (whose lock this team
  // holds).  Zombies found on the way are unlinked — legal because only the
  // holder of `locked`'s lock may rewrite its next pointer.
  int spins = 0;
  for (;;) {
    const KV next_kv = arena_.entry(locked, arena_.next_slot())
                           .load(std::memory_order_acquire);
    const ChunkRef nxt = next_entry_ref(next_kv);
    if (nxt == NULL_CHUNK) return NULL_CHUNK;
    const LaneVec<KV> kv = read_chunk(team, nxt);
    if (is_zombie(team, kv)) {
      note_zombie(team, nxt);
      const ChunkRef after = next_of(team, kv);
      atomic_entry_write(team, locked, arena_.next_slot(),
                         make_next_entry(next_entry_max(next_kv), after));
      // The write above was nxt's unique unlink (performed under `locked`'s
      // held lock): retire it.
      retire_chunk(team, nxt);
      continue;
    }
    if (is_locked_or_zombie(team, kv)) {
      // Spin on a locked neighbor — bounded: probe the holder's lease and
      // back off (saturating; there is no other chunk to fall back to, the
      // successor is dictated by the list).
      if (maybe_recover(team, nxt, team.shfl(kv, team.lock_lane()))) continue;
      backoff(team, ++spins);
      continue;
    }
    if (try_lock(team, nxt)) return nxt;
  }
}

void Gfsl::bump_level(int level, std::int64_t delta) {
  level_chunks_[static_cast<std::size_t>(level)].fetch_add(
      delta, std::memory_order_acq_rel);
}

int Gfsl::current_height() const {
  for (int l = max_levels() - 1; l > 0; --l) {
    if (level_chunks_[static_cast<std::size_t>(l)].load(
            std::memory_order_acquire) > 0) {
      return l;
    }
  }
  return 0;
}

double Gfsl::avg_chunks_per_traversal() const {
  const auto t = traversals_.load(std::memory_order_relaxed);
  if (t == 0) return 0.0;
  return static_cast<double>(
             traversal_chunk_reads_.load(std::memory_order_relaxed)) /
         static_cast<double>(t);
}

}  // namespace gfsl::core
