// Batch execution engine (DESIGN.md §10): cursor-carrying operation variants
// plus the per-shard driver.  A team executing a key-sorted shard descends
// from its previous search's path instead of from the head (amortized
// descent), and pins its epoch once per shard instead of once per op.
//
// batch_search is search_slow (Algorithm 4.6) with a warm start.  The reuse
// argument: a chunk's key coverage only ever extends leftward (merges grow a
// successor's range toward smaller keys; removing a chunk's max shrinks it
// from the right) and keys only migrate rightward (insert shifts, splits,
// merges), so a chunk that once enclosed key k' stays at-or-left of the
// chunk enclosing any k >= k' for as long as it lives.  A cached max can
// therefore only be an over-estimate, which the ordinary lateral walk
// corrects — never a wrong skip.  Recycling voids the argument, so every
// cursor entry carries its acquisition-time generation stamp and the cursor
// never outlives the epoch pin it was built under (execute_shard invalidates
// it at every pin refresh; any stale read goes cold).
#include "core/batch.h"

#include <stdexcept>

#include "core/gfsl.h"
#include "sched/batch_dispatch.h"

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

Gfsl::SlowSearchResult Gfsl::batch_search(Team& team, Key k,
                                          BatchCursor& cur) {
  // The cursor contract is ascending keys; an out-of-order key would start
  // at a chunk possibly *right* of its enclosing chunk, so go cold instead.
  if (cur.warm() && k < cur.last_key) cur.invalidate();

  std::uint64_t reads = 0;
  bool use_cursor = cur.warm();
  bool counted = false;
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
    int start_level = -1;
    if (use_cursor) {
      for (int l = 0; l <= cur.height; ++l) {
        const BatchCursor::Entry& e = cur.levels[static_cast<std::size_t>(l)];
        if (e.ref != NULL_CHUNK && k <= e.max) {
          start_level = l;
          break;
        }
      }
    }

    LaneVec<KV> prev_kv;
    Guarded prev_g;
    bool have_prev = false;
    int height;
    int descent_top;
    Guarded cur_g;
    if (start_level >= 0) {
      for (int l = start_level + 1; l <= cur.height; ++l) {
        const ChunkRef c = cur.levels[static_cast<std::size_t>(l)].ref;
        if (c != NULL_CHUNK) r.path[l] = c;
      }
      height = start_level;
      descent_top = cur.height;
      const BatchCursor::Entry& e =
          cur.levels[static_cast<std::size_t>(start_level)];
      cur_g = Guarded{e.ref, e.gen};
      if (!counted) {
        counted = true;
        ++cur.reuses;
        team.metric(obs::kBatchDescentReuses);
      }
    } else {
      // Cold: the classic head descent, which records every upper path lane
      // for the commit halves (no foresight hint, as in search_slow).
      height = height_coop(team);
      descent_top = height;
      cur_g = guard_ref(head_of(team, height));
      if (!counted) {
        counted = true;
        ++cur.fulls;
        team.metric(obs::kBatchFullDescents);
      }
    }

    bool restart = false;
    while (height > 0) {
      bool stale = false;
      LaneVec<KV> kv = read_chunk_checked(team, cur_g, &stale);
      ++reads;
      if (stale) {  // chunk recycled under us — the path is garbage
        restart = true;
        break;
      }
      if (is_zombie(team, kv)) {
        note_zombie(team, cur_g.ref);
        const bool at_head =
            !have_prev && head_[static_cast<std::size_t>(height)].load(
                              std::memory_order_acquire) == cur_g.ref;
        std::vector<ChunkRef> chain;
        if (at_head) chain.push_back(cur_g.ref);
        bool chain_stale = false;
        const ChunkRef fnz = first_non_zombie(
            team, kv, at_head ? &chain : nullptr, &chain_stale);
        if (chain_stale) {
          restart = true;
          break;
        }
        if (have_prev) {
          redirect_to_remove_zombie(team, prev_g.ref, fnz);
        } else if (at_head) {
          ChunkRef expected = cur_g.ref;
          mem_->atomic_rmw(head_device_base_ + 256 +
                           static_cast<std::uint64_t>(height) * 4u);
          if (head_[static_cast<std::size_t>(height)].compare_exchange_strong(
                  expected, fnz, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            for (const ChunkRef z : chain) retire_chunk(team, z);
          }
          team.step();
        }
        cur_g = guard_ref(fnz);
        continue;
      }
      const int step = tid_for_next_step(team, k, kv);
      if (step == team.next_lane()) {  // lateral
        prev_kv = kv;
        prev_g = cur_g;
        have_prev = true;
        cur_g = guard_ref(next_of(team, kv));
      } else if (step != kNone) {  // down
        r.path[height] = cur_g.ref;
        cur.levels[static_cast<std::size_t>(height)] = {cur_g.ref, cur_g.gen,
                                                        max_of(team, kv)};
        --height;
        have_prev = false;
        cur_g = guard_ref(ptr_from_tid(team, step, kv));
      } else {  // backtrack
        if (!have_prev) {
          // All keys here are > k and there is no predecessor to step down
          // through — under a warm start this means the cursor chunk's
          // contents migrated past k.  Go cold.
          ++team.counters().restarts;
          team.record(simt::TraceEvent::kRestart, cur_g.ref, k);
          restart = true;
          break;
        }
        r.path[height] = prev_g.ref;
        cur.levels[static_cast<std::size_t>(height)] = {
            prev_g.ref, prev_g.gen, max_of(team, prev_kv)};
        const std::uint32_t bal = team.ballot_fn([&](int i) {
          return i < team.dsize() && kv_key(prev_kv[i]) <= k;
        });
        --height;
        cur_g = guard_ref(ptr_from_tid(team, Team::highest_lane(bal), prev_kv));
        have_prev = false;
      }
    }
    if (restart) {
      use_cursor = false;
      cur.invalidate();
      continue;
    }

    // Bottom level: lateral walk with zombie unlinking; the enclosing chunk
    // becomes path[0] and the cursor's level-0 entry.
    ChunkRef bprev = NULL_CHUNK;
    for (;;) {
      bool stale = false;
      const LaneVec<KV> kv = read_chunk_checked(team, cur_g, &stale);
      ++reads;
      if (stale) {
        restart = true;
        break;
      }
      if (is_zombie(team, kv)) {
        note_zombie(team, cur_g.ref);
        const bool at_head =
            epochs_ != nullptr && bprev == NULL_CHUNK &&
            head_[0].load(std::memory_order_acquire) == cur_g.ref;
        std::vector<ChunkRef> chain;
        if (at_head) chain.push_back(cur_g.ref);
        bool chain_stale = false;
        const ChunkRef fnz = first_non_zombie(
            team, kv, at_head ? &chain : nullptr, &chain_stale);
        if (chain_stale) {
          restart = true;
          break;
        }
        if (bprev != NULL_CHUNK) {
          redirect_to_remove_zombie(team, bprev, fnz);
        } else if (at_head) {
          ChunkRef expected = cur_g.ref;
          mem_->atomic_rmw(head_device_base_ + 256);
          if (head_[0].compare_exchange_strong(expected, fnz,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
            for (const ChunkRef z : chain) retire_chunk(team, z);
          }
          team.step();
        }
        cur_g = guard_ref(fnz);
        continue;
      }
      const int found = tid_with_equal_key(team, k, kv);
      if (found == team.next_lane()) {
        bprev = cur_g.ref;
        cur_g = guard_ref(next_of(team, kv));
        continue;
      }
      r.path[0] = cur_g.ref;
      cur.levels[0] = {cur_g.ref, cur_g.gen, max_of(team, kv)};
      r.found = (found != kNone);
      break;
    }
    if (restart) {
      use_cursor = false;
      cur.invalidate();
      continue;
    }
    cur.height = descent_top;
    cur.last_key = k;
    traversal_chunk_reads_.fetch_add(reads, std::memory_order_relaxed);
    traversals_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
}

bool Gfsl::contains_batch(Team& team, Key k, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kContainsOp, k);
  EpochScope epoch(*this, team);
  const SlowSearchResult sr = batch_search(team, k, cur);
  epoch.exit();
  scope.set_result(sr.found);
  return sr.found;
}

bool Gfsl::insert_batch(Team& team, Key k, Value v, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kInsertOp, k);
  // The commit half walks the recorded path with unchecked reads, which is
  // only sound while nothing recorded into the cursor can be recycled.  An
  // enclosing pin (execute_shard) guarantees that; without one, each op's
  // own pin is the protection boundary, so warm reuse must be forfeited.
  if (epochs_ != nullptr && !epochs_->pinned(team.id())) cur.invalidate();
  EpochScope epoch(*this, team);
  bool ok;
  {
    SlowSearchResult sr = batch_search(team, k, cur);
    if (sr.found) {
      ok = false;
    } else {
      ok = insert_committed(team, k, v, sr);
    }
  }
  epoch.exit();
  scope.set_result(ok);
  return ok;
}

bool Gfsl::erase_batch(Team& team, Key k, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kEraseOp, k);
  if (epochs_ != nullptr && !epochs_->pinned(team.id())) cur.invalidate();
  EpochScope epoch(*this, team);
  bool ok;
  {
    SlowSearchResult sr = batch_search(team, k, cur);
    if (!sr.found) {
      ok = false;
    } else {
      ok = erase_committed(team, k, sr);
    }
  }
  epoch.exit();
  scope.set_result(ok);
  return ok;
}

ShardExecStats Gfsl::execute_shard(Team& team, const Op* ops,
                                   const std::uint32_t* order,
                                   std::uint32_t begin, std::uint32_t end,
                                   std::uint8_t* outcomes,
                                   BatchOpObserver* observer, Rev batch_rev) {
  ShardExecStats ex;
  BatchCursor cur;
  // Install the whole-batch revision for this team's ops: the per-op
  // CommitScopes see a non-zero context and stamp `batch_rev` instead of
  // allocating their own.  The caller keeps the batch's commit slot
  // registered across every shard, so no snapshot can land between two
  // shards of one batch.  Restored even on a kill (the repair stamps under
  // its own scope).
  struct BatchRevGuard {
    Gfsl& g;
    int slot;
    bool set = false;
    ~BatchRevGuard() {
      if (set) g.commit_ctx_[static_cast<std::size_t>(slot)] = {};
    }
  } rev_guard{*this, 0};
  if (snaps_ != nullptr && batch_rev != 0) {
    rev_guard.slot = SnapshotManager::commit_slot(team.id());
    CommitCtx& ctx = commit_ctx_[static_cast<std::size_t>(rev_guard.slot)];
    if (ctx.rev == 0) {
      ctx = {batch_rev, false};
      rev_guard.set = true;
    }
  }
  // Pin once per shard, not once per op (the batch engine's reclamation
  // contract).  The per-op EpochScopes inside the *_batch calls see the slot
  // already pinned and become no-ops.
  const bool own_pin = epochs_ != nullptr && !epochs_->pinned(team.id());
  if (own_pin) {
    epochs_->pin(team.id());
    ++ex.pins;
    team.metric(obs::kBatchEpochPins);
  }
  std::uint32_t since_refresh = 0;
  try {
    for (std::uint32_t i = begin; i < end; ++i) {
      if (own_pin && since_refresh++ >= kBatchPinRefresh) {
        // Refresh the pin so a long shard cannot hold the global epoch
        // back.  The cursor must not outlive the pin interval it was built
        // under, so it goes cold with it.
        since_refresh = 0;
        epoch_exit(team);
        cur.invalidate();
        epochs_->pin(team.id());
        ++ex.pins;
        team.metric(obs::kBatchEpochPins);
      }
      const std::uint32_t idx = order[i];
      const Op& op = ops[idx];
      if (observer != nullptr) observer->on_begin(idx, op);
      bool executed = true;
      bool r = false;
      try {
        switch (op.kind) {
          case OpKind::Insert:
            r = insert_batch(team, op.key, op.value, cur);
            break;
          case OpKind::Delete:
            r = erase_batch(team, op.key, cur);
            break;
          case OpKind::Contains:
            r = contains_batch(team, op.key, cur);
            break;
        }
      } catch (const std::bad_alloc&) {
        // Pool exhausted even after emergency reclaims.  The structure is
        // untouched by the failed op; mark it skipped and keep draining —
        // later erases may free the memory a retry would need.
        executed = false;
        ex.out_of_memory = true;
      }
      if (executed) {
        outcomes[idx] = static_cast<std::uint8_t>(r ? BatchOpStatus::kTrue
                                                    : BatchOpStatus::kFalse);
        if (r) ++ex.applied_true;
        if (observer != nullptr) observer->on_end(idx, op, r);
      } else {
        outcomes[idx] = static_cast<std::uint8_t>(BatchOpStatus::kSkipped);
        if (observer != nullptr) observer->on_skipped(idx, op);
      }
    }
  } catch (...) {
    // TeamKilled (or any other non-op failure): silent unpin, as in
    // EpochScope's destructor — a yield here could swallow the kill.
    if (own_pin && epochs_->pinned(team.id())) epochs_->unpin(team.id());
    throw;
  }
  if (own_pin) epoch_exit(team);
  ex.reuses = cur.reuses;
  ex.fulls = cur.fulls;
  team.metric(obs::kBatchShardsExecuted);
  if (team.metrics() != nullptr) {
    team.metrics()->record(obs::kBatchShardOps, end - begin);
  }
  return ex;
}

BatchResult run_batch(Gfsl& sl, Team& team, const BatchRequest& ops,
                      std::size_t target_shard_ops) {
  BatchResult res;
  res.stats.ops = ops.size();
  res.outcomes.assign(ops.size(),
                      static_cast<std::uint8_t>(BatchOpStatus::kSkipped));
  if (ops.empty()) return res;

  const sched::ShardPlan plan = sched::plan_shards(ops, 1, target_shard_ops);
  res.stats.shards = plan.shards.size();
  res.stats.shard_sizes.reserve(plan.shards.size());

  // One revision for the whole batch (none-or-all snapshot visibility): the
  // batch commit slot stays registered until every shard has drained, so
  // stable_rev — and therefore every snapshot taken meanwhile — stays below
  // it.  Slot exhaustion degrades to per-op revisions (still consistent,
  // just not atomic as a batch).
  SnapshotManager* snaps = sl.snapshots();
  int batch_slot = -1;
  Rev batch_rev = 0;
  if (snaps != nullptr) {
    batch_slot = snaps->acquire_batch_slot();
    if (batch_slot >= 0) batch_rev = snaps->begin_commit(batch_slot);
  }
  struct BatchCommitGuard {
    SnapshotManager* snaps;
    int slot;
    ~BatchCommitGuard() {
      if (snaps != nullptr && slot >= 0) {
        snaps->end_commit(slot);
        snaps->release_batch_slot(slot);
      }
    }
  } commit_guard{snaps, batch_slot};

  for (const auto& s : plan.shards) {
    res.stats.shard_sizes.push_back(s.end - s.begin);
    const ShardExecStats ex =
        sl.execute_shard(team, ops.data(), plan.order.data(), s.begin, s.end,
                         res.outcomes.data(), nullptr, batch_rev);
    res.stats.descent_reuses += ex.reuses;
    res.stats.full_descents += ex.fulls;
    res.stats.epoch_pins += ex.pins;
    res.out_of_memory = res.out_of_memory || ex.out_of_memory;
  }
  return res;
}

}  // namespace gfsl::core
