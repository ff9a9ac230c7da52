// Concurrent kernel runner: executes an operation array against GFSL (one
// host thread per team) or M&C (one host thread per lane stream), collecting
// the event counts the cost model consumes.
//
// These runners are the one place an op array meets GFSL teams: the
// experiments, the campaigns, the crash, process-crash and corrupt sweeps
// and the fuzzer all drive their teams through them.  Per-op runs
// deal the array round-robin: of W workers, worker w runs ops w, w+W,
// w+2W, ...  Under a Deterministic scheduler a run is a pure function of
// its seeds, also when kills are armed: a killed team stops where the kill
// lands, never calls leave() (yield() already handed the baton on), and
// reports its op in flight to its observer through on_skipped.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/mc_skiplist.h"
#include "common/types.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::harness {

struct RunConfig {
  int num_workers = 8;     // concurrent teams (GFSL) / op streams (M&C)
  std::uint64_t seed = 1;
  sched::StepScheduler* scheduler = nullptr;  // optional deterministic mode
  bool flush_cache_before = true;  // a fresh kernel starts with a cold L2
  /// Optional per-op result array — the kernel's output buffer (§5.1).
  /// Resized to ops.size(); entry i is the boolean result of ops[i].
  std::vector<std::uint8_t>* results = nullptr;
  /// Optional telemetry sinks.  Worker w writes metrics->shard(w) (the
  /// registry must have at least num_workers shards) and appends to
  /// trace->team(w); both must outlive the run.  Null = zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
  /// Optional per-op hooks, one per worker (empty = none): worker w brackets
  /// every op it runs, per-op or batched, with observers[w]'s on_begin and
  /// on_end, and reports an op cut short by a kill or by pool exhaustion
  /// through on_skipped.  GFSL runners only.
  std::vector<core::BatchOpObserver*> observers;
};

struct RunResult {
  model::KernelRun kernel;        // measured events for the cost model
  simt::TeamCounters team_totals; // GFSL only
  double sim_wall_seconds = 0.0;  // host time spent simulating (not modeled)
  std::uint64_t ops_true = 0;     // operations that returned true
  bool out_of_memory = false;     // pool exhausted mid-run (M&C at big ranges)
};

/// Execute `ops` against a GFSL instance with `cfg.num_workers` teams.  A
/// team that exhausts the pool abandons the rest of its share
/// (RunResult::out_of_memory).
RunResult run_gfsl(core::Gfsl& sl, const std::vector<Op>& ops,
                   const RunConfig& cfg, device::DeviceMemory& mem);

/// Batched execution mode (DESIGN.md §10).
struct BatchRunOptions {
  /// Ops per kernel launch; 0 = the whole op array as one batch.  Each batch
  /// is key-sorted, sharded and drained by all teams (with stealing) before
  /// the next one starts, mirroring back-to-back kernel launches.
  std::size_t batch_size = 1024;
  /// Shard granularity handed to sched::plan_shards; 0 = auto.
  std::size_t target_shard_ops = 0;
};

/// Execute `ops` in kernel-style batches: sort + shard each batch, teams pull
/// shards from a stealing work queue and carry a warm descent cursor across
/// each shard, pinning their epoch once per shard.  Semantics match
/// run_gfsl except for op interleaving: per-key submission order is
/// preserved (stable sort + shards never split a key), so outcomes are
/// deterministic for any scheduler.  `batch_out`, when non-null, receives
/// submission-ordered BatchOpStatus codes and the batch-level stats.
RunResult run_gfsl_batched(core::Gfsl& sl, const std::vector<Op>& ops,
                           const RunConfig& cfg, device::DeviceMemory& mem,
                           const BatchRunOptions& opts = {},
                           core::BatchResult* batch_out = nullptr);

/// Execute `ops` against the M&C baseline.
RunResult run_mc(baseline::McSkiplist& sl, const std::vector<Op>& ops,
                 const RunConfig& cfg, device::DeviceMemory& mem);

/// Sub-warp-teams extension (thesis Chapter 7): pairs of half-warp teams
/// share a warp under round-robin lockstep alternation, so one warp carries
/// two concurrent operations.  Spinning teams yield every iteration, which
/// is what makes the scheme deadlock-free (a spinner can never starve its
/// warp-mate).  `cfg.num_workers` must be even; `sl.team_size()` should be
/// 16 (two teams fill one 32-lane warp).
RunResult run_gfsl_paired(core::Gfsl& sl, const std::vector<Op>& ops,
                          const RunConfig& cfg, device::DeviceMemory& mem);

}  // namespace gfsl::harness
