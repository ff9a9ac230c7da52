// Integration tests: the concurrent runner end-to-end on both structures.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "harness/history.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "harness/workload.h"

namespace gfsl::harness {
namespace {

WorkloadConfig small_workload(Mix mix, std::uint64_t range,
                              std::uint64_t ops) {
  WorkloadConfig wl;
  wl.mix = mix;
  wl.key_range = range;
  wl.num_ops = ops;
  wl.prefill = default_prefill(mix);
  wl.seed = 7;
  return wl;
}

TEST(Runner, GfslMixedRunCollectsEvents) {
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kMix_10_10_80, 2'000, 5'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);

  RunConfig rc;
  rc.num_workers = 4;
  const RunResult r = run_gfsl(sl, ops, rc, mem);

  EXPECT_EQ(r.kernel.ops, ops.size());
  EXPECT_FALSE(r.out_of_memory);
  EXPECT_GT(r.kernel.warp_steps, ops.size());          // many instrs per op
  EXPECT_GT(r.kernel.mem.warp_reads, ops.size());      // >1 chunk read per op
  EXPECT_EQ(r.kernel.mem.lane_reads, 0u);              // always coalesced
  EXPECT_GT(r.kernel.mem_epochs, 0u);
  EXPECT_GT(r.ops_true, ops.size() / 4);               // most contains hit
  EXPECT_TRUE(sl.validate(/*strict=*/false).ok);
}

TEST(Runner, McMixedRunCollectsEvents) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 1u << 20;
  baseline::McSkiplist sl(cfg, &mem);

  const auto wl = small_workload(kMix_10_10_80, 2'000, 5'000);
  sl.bulk_load(generate_prefill(wl), 3);
  const auto ops = generate_ops(wl);

  RunConfig rc;
  rc.num_workers = 4;
  const RunResult r = run_mc(sl, ops, rc, mem);

  EXPECT_EQ(r.kernel.ops, ops.size());
  EXPECT_GT(r.kernel.mem.lane_reads, ops.size() * 5);  // uncoalesced hops
  EXPECT_EQ(r.kernel.mem.warp_reads, 0u);
  EXPECT_GT(r.kernel.mem_epochs, 0u);
  // Divergence folding: epochs are far fewer than total hops but at least
  // hops / 32.
  EXPECT_LT(r.kernel.mem_epochs, r.kernel.mem.lane_reads);
  std::string err;
  EXPECT_TRUE(sl.validate(&err)) << err;
}

TEST(Runner, GfslReadsPerOpScaleWithStructureHeight) {
  // The coalescing advantage: per-op warp reads ~ height + 1..2 (§5.2).
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 15;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kContainsOnly, 20'000, 4'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);
  RunConfig rc;
  rc.num_workers = 2;
  const RunResult r = run_gfsl(sl, ops, rc, mem);
  const double reads_per_op = static_cast<double>(r.kernel.mem.warp_reads) /
                              static_cast<double>(ops.size());
  const double h = sl.current_height();
  // Down steps read one chunk per level, the bottom walk re-reads the
  // enclosing chunk and takes 1-2 lateral steps (§5.2).
  EXPECT_GE(reads_per_op, h);
  EXPECT_LE(reads_per_op, h + 5.0);
}

TEST(Runner, OutOfMemorySurfacesInResult) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 2'048;  // tiny pool
  baseline::McSkiplist sl(cfg, &mem);

  const auto wl = small_workload(kInsertOnly, 100'000, 5'000);
  const auto ops = generate_ops(wl);
  RunConfig rc;
  rc.num_workers = 2;
  const RunResult r = run_mc(sl, ops, rc, mem);
  EXPECT_TRUE(r.out_of_memory);
}

TEST(Runner, SingleWorkerMatchesReferenceCounts) {
  // With one worker the run is sequential; ops_true is exactly predictable
  // from a reference simulation.
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kMix_20_20_60, 500, 3'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);

  std::set<Key> ref;
  for (const auto& [k, v] : generate_prefill(wl)) ref.insert(k);
  std::uint64_t expected_true = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::Insert:
        if (ref.insert(op.key).second) ++expected_true;
        break;
      case OpKind::Delete:
        if (ref.erase(op.key) > 0) ++expected_true;
        break;
      case OpKind::Contains:
        if (ref.count(op.key) > 0) ++expected_true;
        break;
    }
  }

  RunConfig rc;
  rc.num_workers = 1;
  const RunResult r = run_gfsl(sl, ops, rc, mem);
  EXPECT_EQ(r.ops_true, expected_true);
  EXPECT_EQ(sl.size(), ref.size());
}

TEST(Runner, ResultArrayMatchesReferencePerOp) {
  // The kernel's output buffer (§5.1): with one worker, every op's recorded
  // result must match a sequential reference exactly, element by element.
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kMix_20_20_60, 300, 2'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);

  std::set<Key> ref;
  for (const auto& [k, v] : generate_prefill(wl)) ref.insert(k);

  std::vector<std::uint8_t> results;
  RunConfig rc;
  rc.num_workers = 1;
  rc.results = &results;
  (void)run_gfsl(sl, ops, rc, mem);
  ASSERT_EQ(results.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    bool expect = false;
    switch (ops[i].kind) {
      case OpKind::Insert: expect = ref.insert(ops[i].key).second; break;
      case OpKind::Delete: expect = ref.erase(ops[i].key) > 0; break;
      case OpKind::Contains: expect = ref.count(ops[i].key) > 0; break;
    }
    ASSERT_EQ(results[i] != 0, expect) << "op " << i;
  }
}

TEST(Runner, ResultArrayWorksForMcAndPaired) {
  const auto wl = small_workload(kMix_10_10_80, 500, 1'000);
  const auto ops = generate_ops(wl);
  std::vector<std::uint8_t> results;

  {
    device::DeviceMemory mem;
    baseline::McSkiplist::Config cfg;
    cfg.pool_slots = 1u << 18;
    baseline::McSkiplist sl(cfg, &mem);
    sl.bulk_load(generate_prefill(wl), 1);
    RunConfig rc;
    rc.num_workers = 2;
    rc.results = &results;
    const auto r = run_mc(sl, ops, rc, mem);
    std::uint64_t trues = 0;
    for (const auto b : results) trues += b;
    EXPECT_EQ(trues, r.ops_true);
  }
  {
    device::DeviceMemory mem;
    core::GfslConfig cfg;
    cfg.team_size = 16;
    cfg.pool_chunks = 1u << 13;
    core::Gfsl sl(cfg, &mem);
    sl.bulk_load(generate_prefill(wl));
    RunConfig rc;
    rc.num_workers = 2;
    rc.results = &results;
    const auto r = run_gfsl_paired(sl, ops, rc, mem);
    std::uint64_t trues = 0;
    for (const auto b : results) trues += b;
    EXPECT_EQ(trues, r.ops_true);
  }
}

// ---------------------------------------------------------------------------
// Kills under a Deterministic scheduler: 4 leased teams run 300 ops of
// 20/20/60 on keys 1..64, and team 0 dies at a chosen step.

constexpr int kKillWorkers = 4;

struct KilledRun {
  std::uint64_t steps = 0;
  bool victim_killed = false;
  bool watchdog_fired = false;
  std::vector<std::uint8_t> results;
  std::vector<std::pair<Key, Value>> contents;
};

/// One seeded run with team 0 killed at `kill_step`; `batch_size` 0 runs
/// per-op, otherwise batched in launches of that size.  `observers`, when
/// given, must hold one entry per worker.
KilledRun run_killed(std::uint64_t kill_step, std::size_t batch_size,
                     std::vector<core::BatchOpObserver*> observers = {},
                     core::BatchResult* batch_out = nullptr) {
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 17,
                             kKillWorkers);
  sched.kill_at(0, kill_step);
  sched.kill_all_at(1'000'000);  // a livelock fails the run, not the suite
  core::GfslConfig gcfg;
  gcfg.team_size = 8;
  gcfg.pool_chunks = 1u << 12;
  StackOptions so;
  so.scheduler = &sched;
  so.leases = true;
  GfslStack stack(gcfg, so);

  WorkloadConfig wl;
  wl.mix = kMix_20_20_60;
  wl.key_range = 64;
  wl.num_ops = 300;
  wl.seed = 5;
  const auto ops = generate_ops(wl);

  KilledRun out;
  RunConfig rc;
  rc.num_workers = kKillWorkers;
  rc.scheduler = &sched;
  rc.results = &out.results;
  rc.observers = std::move(observers);
  if (batch_size == 0) {
    (void)run_gfsl(stack.gfsl(), ops, rc, stack.mem());
  } else {
    (void)run_gfsl_batched(stack.gfsl(), ops, rc, stack.mem(),
                           {.batch_size = batch_size}, batch_out);
  }
  out.steps = sched.global_steps();
  out.victim_killed = sched.killed(0);
  out.watchdog_fired = sched.watchdog_fired();
  // A medic outside the scheduled set releases what the victim held, so
  // the walk below sees a settled structure.
  simt::Team medic(gcfg.team_size, kKillWorkers, 7);
  (void)stack.gfsl().recover_all_expired(medic);
  out.contents = stack.gfsl().collect();
  return out;
}

TEST(Runner, KilledTeamKeepsTheScheduleDeterministic) {
  // A killed team must not hand the baton on a second time (leave()), and
  // the launch barrier must learn of its death at the kill step, not when
  // its thread has unwound.  Either slip lets the host's thread timing into
  // the schedule, and reruns of one seed drift apart.
  for (const std::size_t batch_size : {std::size_t{0}, std::size_t{100}}) {
    for (std::uint64_t step = 100; step <= 1600; step += 100) {
      const KilledRun first = run_killed(step, batch_size);
      ASSERT_TRUE(first.victim_killed) << "step " << step;
      ASSERT_FALSE(first.watchdog_fired) << "step " << step;
      for (int rerun = 0; rerun < 2; ++rerun) {
        const KilledRun again = run_killed(step, batch_size);
        ASSERT_EQ(again.steps, first.steps)
            << "batch " << batch_size << ", kill step " << step;
        ASSERT_EQ(again.results, first.results)
            << "batch " << batch_size << ", kill step " << step;
        ASSERT_EQ(again.contents, first.contents)
            << "batch " << batch_size << ", kill step " << step;
      }
    }
  }
}

/// Records which ops each worker began, ended and skipped, then forwards
/// every bracket to the worker's HistoryObserver.
class Tee final : public core::BatchOpObserver {
 public:
  explicit Tee(core::BatchOpObserver* next) : next_(next) {}
  void on_begin(std::uint32_t idx, const Op& op) override {
    began.push_back(idx);
    next_->on_begin(idx, op);
  }
  void on_end(std::uint32_t idx, const Op& op, bool result) override {
    ended.push_back(idx);
    next_->on_end(idx, op, result);
  }
  void on_skipped(std::uint32_t idx, const Op& op) override {
    skipped.push_back(idx);
    next_->on_skipped(idx, op);
  }
  std::vector<std::uint32_t> began, ended, skipped;

 private:
  core::BatchOpObserver* next_;
};

TEST(Runner, ObserverSeesEveryOpAndTheKilledOne) {
  for (const std::size_t batch_size : {std::size_t{0}, std::size_t{100}}) {
    SCOPED_TRACE(batch_size == 0 ? "per-op" : "batched");
    HistoryLog log(128, kKillWorkers);
    std::vector<Tee> tees;
    for (auto* h : log.observers()) tees.emplace_back(h);
    std::vector<core::BatchOpObserver*> observers;
    for (auto& t : tees) observers.push_back(&t);
    core::BatchResult br;
    const KilledRun run = run_killed(400, batch_size, observers, &br);
    ASSERT_TRUE(run.victim_killed);

    // Each op begins at most once and closes exactly once; the one op
    // closed by a skip is the victim's op in flight.
    std::set<std::uint32_t> began;
    std::size_t closed = 0;
    for (int w = 0; w < kKillWorkers; ++w) {
      const Tee& t = tees[static_cast<std::size_t>(w)];
      for (const std::uint32_t idx : t.began) {
        EXPECT_TRUE(began.insert(idx).second) << "op " << idx << " ran twice";
      }
      EXPECT_EQ(t.began.size(), t.ended.size() + t.skipped.size())
          << "worker " << w;
      closed += t.ended.size() + t.skipped.size();
      if (w != 0) {
        EXPECT_TRUE(t.skipped.empty()) << "worker " << w;
      }
    }
    EXPECT_EQ(closed, began.size());
    const Tee& victim = tees[0];
    ASSERT_EQ(victim.skipped.size(), 1u);
    ASSERT_FALSE(victim.began.empty());
    EXPECT_EQ(victim.skipped[0], victim.began.back());
    const std::uint32_t crashed = victim.skipped[0];

    // The survivors ran everything the victim did not take with it: per-op,
    // its ops after the crashed one; batched, the rest of its shard.
    for (std::uint32_t i = 0; i < 300; ++i) {
      const bool not_run =
          batch_size == 0
              ? i % kKillWorkers == 0 && i > crashed
              : i != crashed &&
                    br.outcomes[i] == static_cast<std::uint8_t>(
                                          core::BatchOpStatus::kSkipped);
      EXPECT_EQ(began.count(i) == 0, not_run) << "op " << i;
    }

    // The log holds every op that ran once, the crashed one as crashed,
    // and the history is linearizable against the settled contents.
    const auto events = log.merged();
    EXPECT_EQ(events.size(), began.size());
    std::size_t crashed_events = 0;
    for (const auto& e : events) {
      if (e.crashed) {
        ++crashed_events;
        EXPECT_EQ(e.worker, 0);
      }
    }
    EXPECT_EQ(crashed_events, 1u);
    std::vector<Key> final_keys;
    for (const auto& [k, v] : run.contents) final_keys.push_back(k);
    const auto check = check_history(events, {}, final_keys);
    EXPECT_TRUE(check.ok) << check.error;
  }
}

}  // namespace
}  // namespace gfsl::harness
