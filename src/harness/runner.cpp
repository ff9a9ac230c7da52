#include "harness/runner.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/workload.h"
#include "sched/batch_dispatch.h"

namespace gfsl::harness {

namespace {

using Clock = std::chrono::steady_clock;

/// Instruction-issue proxy for an M&C warp: lockstep instructions per
/// serialized hop epoch (compare + address arithmetic + branch per level
/// step, executed by the warp at the pace of its slowest lane).
constexpr std::uint64_t kMcInstrPerHop = 8;

/// The prologue every runner shares; returns the memory baseline.  Every
/// worker needs its own metrics shard (shards are single-writer), its own
/// observer, and its trace ring (created before the threads spawn so
/// attachment is race-free).
device::MemStats begin_run(const RunConfig& cfg, device::DeviceMemory& mem,
                           std::size_t num_ops) {
  if (cfg.metrics != nullptr && cfg.metrics->shards() < cfg.num_workers) {
    throw std::invalid_argument(
        "metrics registry needs at least one shard per worker");
  }
  if (!cfg.observers.empty() &&
      cfg.observers.size() < static_cast<std::size_t>(cfg.num_workers)) {
    throw std::invalid_argument("observers need one entry per worker");
  }
  if (cfg.trace != nullptr) cfg.trace->ensure(cfg.num_workers);
  if (cfg.flush_cache_before) mem.flush_cache();
  if (cfg.results != nullptr) cfg.results->assign(num_ops, 0);
  return mem.snapshot();
}

/// SIMT-event totals (ballot/shfl/divergence rates, lock events) folded into
/// the worker's shard once at the end of the run — no hot-path cost.
void fold_team_counters(obs::MetricsShard* shard,
                        const simt::TeamCounters& c) {
  if (shard == nullptr) return;
  shard->add(obs::kInstructions, c.instructions);
  shard->add(obs::kBallots, c.ballots);
  shard->add(obs::kShfls, c.shfls);
  shard->add(obs::kDivergentBranches, c.divergent_branches);
  shard->add(obs::kLockAcquires, c.lock_acquires);
  shard->add(obs::kLockSpins, c.lock_spins);
  shard->add(obs::kRestarts, c.restarts);
}

const obs::OpIds& op_ids(OpKind kind) {
  switch (kind) {
    case OpKind::Insert: return obs::kInsertOp;
    case OpKind::Delete: return obs::kEraseOp;
    case OpKind::Contains: break;
  }
  return obs::kContainsOp;
}

/// Forwards one worker's op brackets to its RunConfig observer, with
/// indices into the whole op array, and remembers the op in flight so an
/// unwind can report it through on_skipped.
class InFlight final : public core::BatchOpObserver {
 public:
  explicit InFlight(core::BatchOpObserver* next) : next_(next) {}

  /// Shard indices count from `base`, the launch's offset in the op array.
  void rebase(std::size_t base) { base_ = static_cast<std::uint32_t>(base); }

  void on_begin(std::uint32_t idx, const Op& op) override {
    op_ = &op;
    idx_ = base_ + idx;
    next_->on_begin(idx_, op);
  }
  void on_end(std::uint32_t /*idx*/, const Op& op, bool result) override {
    op_ = nullptr;
    next_->on_end(idx_, op, result);
  }
  void on_skipped(std::uint32_t /*idx*/, const Op& op) override {
    op_ = nullptr;
    next_->on_skipped(idx_, op);
  }

  /// The team unwound (kill or pool exhaustion): its op in flight, if any,
  /// never responded.
  void abandon() {
    if (op_ != nullptr) on_skipped(idx_, *op_);
  }

 private:
  core::BatchOpObserver* next_;
  const Op* op_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t base_ = 0;
};

/// One team inside run_teams, as the runner's work sees it.
struct Worker {
  simt::Team& team;
  int w;
  InFlight* observer;         // null: the run has no observers
  std::uint64_t ops_true = 0;  // this team's ops that returned true
};

/// A team's seat: participant `id` of `sched` (null = free-running).
struct Seat {
  sched::StepScheduler* sched = nullptr;
  int id = 0;
};

/// What the teams of one GFSL run hand back.
struct Teams {
  std::vector<simt::TeamCounters> counters;
  std::uint64_t ops_true = 0;
  bool out_of_memory = false;
};

/// The per-team body every GFSL runner shares.  One thread per team, each
/// with its Team (seeded from cfg.seed), metrics shard and trace ring,
/// takes its seat, runs `work(worker)` and catches pool exhaustion and
/// kills, reporting the op in flight through on_skipped; then it folds the
/// team's counters into its shard and leaves its seat.  A killed team does
/// not leave: yield() already released its seat and handed the baton on,
/// and a second hand-off would set two teams running at once.
template <class SeatOf, class Work>
Teams run_teams(core::Gfsl& sl, const RunConfig& cfg, SeatOf seat_of,
                Work work) {
  const auto workers = static_cast<std::size_t>(cfg.num_workers);
  Teams out;
  out.counters.resize(workers);
  std::atomic<std::uint64_t> ops_true{0};
  std::atomic<bool> oom{false};
  {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int w = 0; w < cfg.num_workers; ++w) {
      threads.emplace_back([&, w] {
        const auto uw = static_cast<std::size_t>(w);
        simt::Team team(sl.team_size(), w, cfg.seed);
        obs::MetricsShard* shard =
            cfg.metrics != nullptr ? &cfg.metrics->shard(w) : nullptr;
        if (shard != nullptr) team.set_metrics(shard);
        if (cfg.trace != nullptr) team.set_trace(cfg.trace->team(w));
        InFlight inflight(cfg.observers.empty() ? nullptr
                                                : cfg.observers[uw]);
        Worker me{team, w, cfg.observers.empty() ? nullptr : &inflight};
        const Seat seat = seat_of(w);
        if (seat.sched != nullptr) seat.sched->enter(seat.id);
        bool killed = false;
        try {
          work(me);
        } catch (const std::bad_alloc&) {
          inflight.abandon();
          oom.store(true, std::memory_order_relaxed);
        } catch (const sched::TeamKilled&) {
          inflight.abandon();
          killed = true;
        }
        ops_true.fetch_add(me.ops_true, std::memory_order_relaxed);
        out.counters[uw] = team.counters();
        fold_team_counters(shard, team.counters());
        if (seat.sched != nullptr && !killed) seat.sched->leave(seat.id);
      });
    }
    for (auto& t : threads) t.join();
  }
  out.ops_true = ops_true.load(std::memory_order_relaxed);
  out.out_of_memory = oom.load(std::memory_order_relaxed);
  return out;
}

/// The one op dispatch of a GFSL run.
bool apply_op(core::Gfsl& sl, simt::Team& team, const Op& op) {
  switch (op.kind) {
    case OpKind::Insert: return sl.insert(team, op.key, op.value);
    case OpKind::Delete: return sl.erase(team, op.key);
    case OpKind::Contains: break;
  }
  return sl.contains(team, op.key);
}

/// A per-op team's share: ops w, w+W, w+2W, ... of W workers.
void run_share(core::Gfsl& sl, const std::vector<Op>& ops,
               const RunConfig& cfg, Worker& me) {
  for (std::size_t i = static_cast<std::size_t>(me.w); i < ops.size();
       i += static_cast<std::size_t>(cfg.num_workers)) {
    const Op& op = ops[i];
    const auto idx = static_cast<std::uint32_t>(i);
    if (me.observer != nullptr) me.observer->on_begin(idx, op);
    const bool r = apply_op(sl, me.team, op);
    if (me.observer != nullptr) me.observer->on_end(idx, op, r);
    if (r) ++me.ops_true;
    if (cfg.results != nullptr) (*cfg.results)[i] = r ? 1 : 0;
  }
}

RunResult gfsl_result(std::size_t num_ops, const Teams& teams,
                      Clock::duration wall, device::DeviceMemory& mem,
                      const device::MemStats& before) {
  RunResult res;
  res.sim_wall_seconds = std::chrono::duration<double>(wall).count();
  res.ops_true = teams.ops_true;
  res.out_of_memory = teams.out_of_memory;
  for (const auto& c : teams.counters) res.team_totals += c;
  res.kernel.ops = num_ops;
  res.kernel.mem = mem.snapshot() - before;
  // A coalesced team read is one serialized wait; so is each atomic.
  res.kernel.mem_epochs = res.kernel.mem.warp_reads + res.kernel.mem.atomics;
  res.kernel.warp_steps = res.team_totals.instructions;
  res.kernel.lock_spins = res.team_totals.lock_spins;
  return res;
}

}  // namespace

RunResult run_gfsl(core::Gfsl& sl, const std::vector<Op>& ops,
                   const RunConfig& cfg, device::DeviceMemory& mem) {
  const device::MemStats before = begin_run(cfg, mem, ops.size());
  const auto t0 = Clock::now();
  const Teams teams = run_teams(
      sl, cfg, [&](int w) { return Seat{cfg.scheduler, w}; },
      [&](Worker& me) { run_share(sl, ops, cfg, me); });
  return gfsl_result(ops.size(), teams, Clock::now() - t0, mem, before);
}

RunResult run_gfsl_batched(core::Gfsl& sl, const std::vector<Op>& ops,
                           const RunConfig& cfg, device::DeviceMemory& mem,
                           const BatchRunOptions& opts,
                           core::BatchResult* batch_out) {
  const device::MemStats before = begin_run(cfg, mem, ops.size());
  std::vector<std::uint8_t> outcomes(
      ops.size(), static_cast<std::uint8_t>(core::BatchOpStatus::kSkipped));
  const auto batches = batch_slices(ops.size(), opts.batch_size);
  const std::size_t nb = batches.size();
  const int workers = cfg.num_workers;

  std::vector<core::ShardExecStats> worker_stats(
      static_cast<std::size_t>(workers));
  std::vector<std::uint64_t> worker_steals(static_cast<std::size_t>(workers),
                                           0);
  std::atomic<bool> oom{false};

  const auto t0 = Clock::now();
  // Host-side batch prep: sort + shard every launch (this is the work a GPU
  // driver would do — or a tiny sort kernel — between launches; it is timed
  // as part of the batched run so the A/B against per-op dispatch is fair).
  std::vector<sched::ShardPlan> plans(nb);
  std::vector<std::unique_ptr<sched::ShardQueue>> queues(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    plans[b] = sched::plan_shards(ops.data() + batches[b].first,
                                  batches[b].second - batches[b].first,
                                  workers, opts.target_shard_ops);
    queues[b] = std::make_unique<sched::ShardQueue>(plans[b]);
  }

  // One thread per team for the whole run: StepScheduler::enter is not
  // re-entrant (the start barrier fires exactly once), so launches are
  // separated by a yielding spin barrier instead of join/respawn.  passed[w]
  // counts the launches team w has finished; each arrival is recorded once,
  // so a team killed while it waits at a barrier is not counted twice.
  auto passed = std::make_unique<std::atomic<std::size_t>[]>(
      static_cast<std::size_t>(workers));
  auto pause = [&](int w) {
    if (cfg.scheduler != nullptr) {
      cfg.scheduler->yield(w);  // may throw TeamKilled
    } else {
      std::this_thread::yield();
    }
  };
  // Every team has passed launch b or is dead.  Deaths come from the
  // scheduler's kill record, written under its lock at the kill step, so a
  // survivor learns of a death at the same point of every run of a seed.
  auto launch_done = [&](std::size_t b) {
    for (int v = 0; v < workers; ++v) {
      if (passed[static_cast<std::size_t>(v)].load(
              std::memory_order_acquire) <= b &&
          (cfg.scheduler == nullptr || !cfg.scheduler->killed(v))) {
        return false;
      }
    }
    return true;
  };

  // Whole-batch MVCC revision, same protocol as core::run_batch: the first
  // worker to reach batch b claims a batch commit slot and publishes one
  // revision for the whole launch; every shard stamps it, so a snapshot sees
  // none or all of the batch.  The revision stays in-flight (invisible to
  // stable_rev) until the batch barrier clears; exactly one survivor ends
  // it, and the host sweeps up after killed teams post-join.  Slot
  // exhaustion (or no SnapshotManager) degrades to per-op revisions (rev 0).
  constexpr core::Rev kRevUnset = ~core::Rev{0};
  core::SnapshotManager* snaps = sl.snapshots();
  auto brev = std::make_unique<std::atomic<core::Rev>[]>(nb);
  auto bslot = std::make_unique<std::atomic<int>[]>(nb);
  auto bclaim = std::make_unique<std::atomic<int>[]>(nb);
  auto bended = std::make_unique<std::atomic<int>[]>(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    brev[b].store(snaps != nullptr ? kRevUnset : 0);
    bslot[b].store(-1);
    bclaim[b].store(0);
    bended[b].store(0);
  }
  auto end_batch_commit = [&](std::size_t b) {
    if (snaps == nullptr) return;
    if (bended[b].exchange(1, std::memory_order_acq_rel) != 0) return;
    const int s = bslot[b].load(std::memory_order_acquire);
    if (s >= 0) {
      snaps->end_commit(s);
      snaps->release_batch_slot(s);
    }
  };
  // Publish (or wait for) launch b's whole-batch revision.
  auto batch_rev = [&](std::size_t b, int w) {
    core::Rev rev = brev[b].load(std::memory_order_acquire);
    if (rev != kRevUnset) return rev;
    int claim = 0;
    if (bclaim[b].compare_exchange_strong(claim, 1,
                                          std::memory_order_acq_rel)) {
      const int bs = snaps->acquire_batch_slot();
      core::Rev r = 0;
      if (bs >= 0) {
        bslot[b].store(bs, std::memory_order_release);
        r = snaps->begin_commit(bs);
      }
      brev[b].store(r, std::memory_order_release);
      return r;
    }
    while ((rev = brev[b].load(std::memory_order_acquire)) == kRevUnset) {
      pause(w);
    }
    return rev;
  };

  const Teams teams = run_teams(
      sl, cfg, [&](int w) { return Seat{cfg.scheduler, w}; },
      [&](Worker& me) {
        const auto uw = static_cast<std::size_t>(me.w);
        core::ShardExecStats& mine = worker_stats[uw];
        for (std::size_t b = 0; b < nb; ++b) {
          const std::size_t off = batches[b].first;
          const core::Rev rev = batch_rev(b, me.w);
          if (me.observer != nullptr) me.observer->rebase(off);
          int s;
          bool stolen = false;
          while ((s = queues[b]->pop(me.w, &stolen)) >= 0) {
            const auto& sh = plans[b].shards[static_cast<std::size_t>(s)];
            if (stolen) {
              ++worker_steals[uw];
              me.team.metric(obs::kBatchShardsStolen);
            }
            const core::ShardExecStats ex = sl.execute_shard(
                me.team, ops.data() + off, plans[b].order.data(), sh.begin,
                sh.end, outcomes.data() + off, me.observer, rev);
            mine.reuses += ex.reuses;
            mine.fulls += ex.fulls;
            mine.pins += ex.pins;
            me.ops_true += ex.applied_true;
            if (ex.out_of_memory) oom.store(true, std::memory_order_relaxed);
          }
          // Launch boundary: a launch completes before the next begins, and
          // its revision becomes stable in one step once every shard has
          // retired.  After the last launch with no revision open there is
          // nothing to wait for.
          if (b + 1 == nb && rev == 0) break;
          passed[uw].store(b + 1, std::memory_order_release);
          while (!launch_done(b)) pause(me.w);
          end_batch_commit(b);
        }
      });
  // Killed teams may have left batch commits in flight; a stuck in-flight
  // revision would pin stable_rev (and every future snapshot) forever.
  for (std::size_t b = 0; b < nb; ++b) {
    if (snaps != nullptr &&
        brev[b].load(std::memory_order_acquire) != kRevUnset) {
      end_batch_commit(b);
    }
  }
  RunResult res = gfsl_result(ops.size(), teams, Clock::now() - t0, mem,
                              before);
  res.out_of_memory = res.out_of_memory || oom.load(std::memory_order_relaxed);

  if (cfg.results != nullptr) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      (*cfg.results)[i] =
          outcomes[i] == static_cast<std::uint8_t>(core::BatchOpStatus::kTrue)
              ? 1
              : 0;
    }
  }
  if (batch_out != nullptr) {
    batch_out->outcomes = std::move(outcomes);
    batch_out->out_of_memory = res.out_of_memory;
    core::BatchStats& bs = batch_out->stats;
    bs = core::BatchStats{};
    bs.ops = ops.size();
    for (std::size_t b = 0; b < nb; ++b) {
      bs.shards += plans[b].shards.size();
      for (const auto& sh : plans[b].shards) {
        bs.shard_sizes.push_back(sh.end - sh.begin);
      }
    }
    for (const auto& st : worker_stats) {
      bs.descent_reuses += st.reuses;
      bs.full_descents += st.fulls;
      bs.epoch_pins += st.pins;
    }
    for (const std::uint64_t s : worker_steals) bs.steals += s;
  }
  return res;
}

RunResult run_gfsl_paired(core::Gfsl& sl, const std::vector<Op>& ops,
                          const RunConfig& cfg, device::DeviceMemory& mem) {
  if (cfg.num_workers < 2 || cfg.num_workers % 2 != 0) {
    throw std::invalid_argument("paired execution needs an even worker count");
  }
  const device::MemStats before = begin_run(cfg, mem, ops.size());
  // One round-robin scheduler per warp; team w is participant w % 2 of
  // warp w / 2 and yields to it at every step.
  const int pairs = cfg.num_workers / 2;
  std::vector<std::unique_ptr<sched::StepScheduler>> warp_sched;
  warp_sched.reserve(static_cast<std::size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    warp_sched.push_back(std::make_unique<sched::StepScheduler>(
        sched::StepScheduler::Mode::RoundRobin, cfg.seed, 2));
  }
  auto seat = [&](int w) {
    return Seat{warp_sched[static_cast<std::size_t>(w / 2)].get(), w % 2};
  };

  const auto t0 = Clock::now();
  const Teams teams = run_teams(sl, cfg, seat, [&](Worker& me) {
    me.team.set_yield_hook(
        [s = seat(me.w)] { s.sched->yield(s.id); });
    run_share(sl, ops, cfg, me);
  });
  return gfsl_result(ops.size(), teams, Clock::now() - t0, mem, before);
}

// M&C keeps its own thread loop (lane contexts, not Teams), with the same op
// assignment and kill rule as the GFSL runners.
RunResult run_mc(baseline::McSkiplist& sl, const std::vector<Op>& ops,
                 const RunConfig& cfg, device::DeviceMemory& mem) {
  RunResult res;
  const device::MemStats before = begin_run(cfg, mem, ops.size());
  std::atomic<std::uint64_t> ops_true{0};
  std::atomic<std::uint64_t> warp_epochs{0};
  std::atomic<bool> oom{false};

  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.num_workers));
    for (int w = 0; w < cfg.num_workers; ++w) {
      threads.emplace_back([&, w] {
        baseline::McContext ctx(w);
        obs::MetricsShard* shard =
            cfg.metrics != nullptr ? &cfg.metrics->shard(w) : nullptr;
        if (cfg.scheduler != nullptr) cfg.scheduler->enter(w);
        std::uint64_t mine_true = 0;
        bool killed = false;
        try {
          for (std::size_t i = static_cast<std::size_t>(w); i < ops.size();
               i += static_cast<std::size_t>(cfg.num_workers)) {
            const Op& op = ops[i];
            // M&C ops run per-lane (no Team), so op latency is recorded here
            // rather than by an OpScope in the structure; "steps" are the
            // context's serialized warp epochs.
            Clock::time_point op_t0;
            std::uint64_t op_e0 = 0;
            if (shard != nullptr) {
              op_t0 = Clock::now();
              op_e0 = ctx.warp_epochs();
            }
            bool r = false;
            switch (op.kind) {
              case OpKind::Insert:
                r = sl.insert(ctx, op.key, op.value, op.mc_height);
                break;
              case OpKind::Delete:
                r = sl.erase(ctx, op.key);
                break;
              case OpKind::Contains:
                r = sl.contains(ctx, op.key);
                break;
            }
            if (shard != nullptr) {
              const obs::OpIds& ids = op_ids(op.kind);
              shard->add(ids.count);
              if (r) shard->add(ids.value);
              shard->record(
                  ids.wall_ns,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - op_t0)
                          .count()));
              shard->record(ids.steps, ctx.warp_epochs() - op_e0);
            }
            if (r) ++mine_true;
            if (cfg.results != nullptr) {
              (*cfg.results)[i] = r ? 1 : 0;
            }
          }
        } catch (const std::bad_alloc&) {
          oom.store(true, std::memory_order_relaxed);
        } catch (const sched::TeamKilled&) {
          killed = true;
        }
        ops_true.fetch_add(mine_true, std::memory_order_relaxed);
        warp_epochs.fetch_add(ctx.warp_epochs(), std::memory_order_relaxed);
        if (cfg.scheduler != nullptr && !killed) cfg.scheduler->leave(w);
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto t1 = Clock::now();

  res.sim_wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.ops_true = ops_true.load(std::memory_order_relaxed);
  res.out_of_memory = oom.load(std::memory_order_relaxed);

  res.kernel.ops = ops.size();
  res.kernel.mem = mem.snapshot() - before;
  // Divergence model: a warp of 32 independent lanes advances at its slowest
  // lane; the contexts already folded per-op hop counts into warp epochs.
  // Atomics serialize on top of that (§2.2 "Synchronization").
  res.kernel.mem_epochs =
      warp_epochs.load(std::memory_order_relaxed) + res.kernel.mem.atomics;
  res.kernel.warp_steps = res.kernel.mem_epochs * kMcInstrPerHop;
  res.kernel.lock_spins = 0;  // lock-free
  return res;
}

}  // namespace gfsl::harness
