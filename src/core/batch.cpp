// Batch execution engine (DESIGN.md §10): cursor-carrying operation variants
// plus the per-shard driver.  A team executing a key-sorted shard descends
// from its previous search's path instead of from the head (amortized
// descent: search_slow with a BatchCursor), and pins its epoch once per
// shard instead of once per op.  The cursor never outlives the epoch pin it
// was built under: execute_shard invalidates it at every pin refresh.
#include "core/batch.h"

#include <stdexcept>

#include "core/gfsl.h"
#include "sched/batch_dispatch.h"

namespace gfsl::core {

using simt::Team;

bool Gfsl::contains_batch(Team& team, Key k, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kContainsOp, k);
  EpochScope epoch(*this, team);
  const SlowSearchResult sr = search_slow(team, k, &cur);
  epoch.exit();
  scope.set_result(sr.found);
  return sr.found;
}

bool Gfsl::insert_batch(Team& team, Key k, Value v, BatchCursor& cur) {
  return insert_impl(team, k, v, &cur);
}

bool Gfsl::erase_batch(Team& team, Key k, BatchCursor& cur) {
  return erase_impl(team, k, &cur);
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
