// Property tests for the batch execution engine (DESIGN.md §10): algebraic
// invariants that must hold for any correct implementation — batch-of-one
// equivalence with the per-op API, order-insensitivity on distinct keys,
// edge-case batches, bit-identical determinism under the deterministic
// scheduler, and the shard planner / work queue contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "oracle.h"
#include "sched/batch_dispatch.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using gfsl::testing::MapOracle;
using simt::Team;

Value value_of(Key k) { return static_cast<Value>(k * 17 + 3); }

std::vector<Op> random_distinct_key_batch(Xoshiro256ss& rng, std::size_t n) {
  // Distinct keys => every pair of ops commutes, so any op order yields the
  // same final structure and the same per-key outcome.
  std::vector<Op> ops;
  ops.reserve(n);
  Key k = 1;
  for (std::size_t i = 0; i < n; ++i) {
    k += 1 + rng.below(5);
    const auto roll = static_cast<int>(rng.below(3));
    const OpKind kind = roll == 0   ? OpKind::Insert
                        : roll == 1 ? OpKind::Delete
                                    : OpKind::Contains;
    ops.push_back(Op{kind, k, kind == OpKind::Insert ? value_of(k) : Value{0},
                     0});
  }
  return ops;
}

struct Fixture {
  device::DeviceMemory mem;
  GfslConfig cfg;
  Gfsl* sl = nullptr;

  explicit Fixture(std::uint32_t pool = 1u << 12) {
    cfg.pool_chunks = pool;
    sl = new Gfsl(cfg, &mem);
  }
  ~Fixture() { delete sl; }
};

TEST(BatchProperty, EmptyBatch) {
  Fixture f(256);
  Team team(f.sl->team_size(), 0, 1);
  const BatchResult br = run_batch(*f.sl, team, {});
  EXPECT_TRUE(br.outcomes.empty());
  EXPECT_EQ(br.stats.ops, 0u);
  EXPECT_EQ(br.stats.shards, 0u);
  EXPECT_FALSE(br.out_of_memory);
  EXPECT_TRUE(f.sl->collect().empty());
}

TEST(BatchProperty, SingletonBatch) {
  Fixture f(256);
  Team team(f.sl->team_size(), 0, 2);
  const Key k = 50;

  BatchResult br = run_batch(*f.sl, team, {Op{OpKind::Insert, k, 9, 0}});
  ASSERT_EQ(br.outcomes.size(), 1u);
  EXPECT_EQ(br.status(0), BatchOpStatus::kTrue);
  EXPECT_EQ(br.stats.shards, 1u);

  br = run_batch(*f.sl, team, {Op{OpKind::Contains, k, 0, 0}});
  EXPECT_EQ(br.status(0), BatchOpStatus::kTrue);
  br = run_batch(*f.sl, team, {Op{OpKind::Delete, k, 0, 0}});
  EXPECT_EQ(br.status(0), BatchOpStatus::kTrue);
  br = run_batch(*f.sl, team, {Op{OpKind::Contains, k, 0, 0}});
  EXPECT_EQ(br.status(0), BatchOpStatus::kFalse);
}

TEST(BatchProperty, AllDuplicateInsertsExactlyOneSucceeds) {
  Fixture f(256);
  Team team(f.sl->team_size(), 0, 3);
  const Key k = 321;
  std::vector<Op> ops(100, Op{OpKind::Insert, k, value_of(k), 0});
  const BatchResult br = run_batch(*f.sl, team, ops);
  int wins = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (br.status(i) == BatchOpStatus::kTrue) ++wins;
  }
  EXPECT_EQ(wins, 1);
  // Submission order within a key: the *first* insert is the winner.
  EXPECT_EQ(br.status(0), BatchOpStatus::kTrue);
  EXPECT_EQ(f.sl->collect().size(), 1u);
}

TEST(BatchProperty, BatchOfOneEqualsPerOpApi) {
  // Replaying a random op sequence one-op-per-batch must behave exactly like
  // the per-op API on a twin structure.
  Fixture batched;
  Fixture perop;
  Team tb(batched.sl->team_size(), 0, 4);
  Team tp(perop.sl->team_size(), 0, 4);

  Xoshiro256ss rng(44);
  for (int i = 0; i < 400; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(64));
    const auto roll = static_cast<int>(rng.below(3));
    const OpKind kind = roll == 0   ? OpKind::Insert
                        : roll == 1 ? OpKind::Delete
                                    : OpKind::Contains;
    const Op op{kind, k, value_of(k), 0};

    const BatchResult br = run_batch(*batched.sl, tb, {op});
    bool want = false;
    switch (kind) {
      case OpKind::Insert:
        want = perop.sl->insert(tp, k, value_of(k));
        break;
      case OpKind::Delete:
        want = perop.sl->erase(tp, k);
        break;
      case OpKind::Contains:
        want = perop.sl->contains(tp, k);
        break;
    }
    ASSERT_EQ(br.status(0), want ? BatchOpStatus::kTrue : BatchOpStatus::kFalse)
        << "op " << i;
  }
  EXPECT_EQ(batched.sl->collect(), perop.sl->collect());
}

TEST(BatchProperty, ColdCursorOpsMatchPerOpStepForStep) {
  // insert_batch/erase_batch and insert/erase run one descent: with the
  // cursor invalidated before every op, the batch entry points must take the
  // per-op path step for step.  The only extra work is the cursor's own max
  // reads, one shfl per recorded level; a shfl is also an instruction, so
  // instructions are compared net of shfls.
  Xoshiro256ss rng(2024);
  std::vector<Op> ops;
  for (int i = 0; i < 2'000; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(300));
    const OpKind kind = rng.below(2) == 0 ? OpKind::Insert : OpKind::Delete;
    ops.push_back(Op{kind, k, value_of(k), 0});
  }
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  for (const bool epochs : {false, true}) {
    SCOPED_TRACE(epochs ? "with an EpochManager" : "detached");
    harness::GfslStack perop(cfg, {.epochs = epochs});
    harness::GfslStack batched(cfg, {.epochs = epochs});
    Team tp(8, 0, 12);
    Team tb(8, 0, 12);
    BatchCursor cur;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      cur.invalidate();
      const bool want = op.kind == OpKind::Insert
                            ? perop.gfsl().insert(tp, op.key, op.value)
                            : perop.gfsl().erase(tp, op.key);
      const bool got =
          op.kind == OpKind::Insert
              ? batched.gfsl().insert_batch(tb, op.key, op.value, cur)
              : batched.gfsl().erase_batch(tb, op.key, cur);
      ASSERT_EQ(got, want) << "op " << i;
    }
    EXPECT_EQ(cur.reuses, 0u);
    EXPECT_EQ(cur.fulls, ops.size());
    EXPECT_EQ(batched.gfsl().collect(), perop.gfsl().collect());

    const simt::TeamCounters& p = tp.counters();
    const simt::TeamCounters& b = tb.counters();
    EXPECT_EQ(b.instructions - b.shfls, p.instructions - p.shfls);
    EXPECT_GT(b.shfls, p.shfls);
    EXPECT_EQ(b.ballots, p.ballots);
    EXPECT_EQ(b.restarts, p.restarts);
    EXPECT_EQ(b.lock_acquires, p.lock_acquires);
    const device::MemStats mp = perop.mem().snapshot();
    const device::MemStats mb = batched.mem().snapshot();
    EXPECT_EQ(mb.warp_reads, mp.warp_reads);
    EXPECT_EQ(mb.transactions, mp.transactions);
    EXPECT_EQ(mb.l2_hits, mp.l2_hits);
    EXPECT_EQ(mb.atomics, mp.atomics);
  }
}

TEST(BatchProperty, SortedEqualsShuffledOnDistinctKeys) {
  Xoshiro256ss rng(55);
  auto ops = random_distinct_key_batch(rng, 600);

  auto sorted = ops;
  std::sort(sorted.begin(), sorted.end(),
            [](const Op& a, const Op& b) { return a.key < b.key; });
  auto shuffled = ops;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }

  Fixture fa, fb;
  Team ta(fa.sl->team_size(), 0, 5);
  Team tb(fb.sl->team_size(), 0, 5);
  const BatchResult ra = run_batch(*fa.sl, ta, sorted);
  const BatchResult rb = run_batch(*fb.sl, tb, shuffled);

  // Same final structure, and per-key outcomes agree regardless of input
  // permutation.
  EXPECT_EQ(fa.sl->collect(), fb.sl->collect());
  std::map<Key, std::uint8_t> by_key_a, by_key_b;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    by_key_a[sorted[i].key] = ra.outcomes[i];
  }
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    by_key_b[shuffled[i].key] = rb.outcomes[i];
  }
  EXPECT_EQ(by_key_a, by_key_b);
}

TEST(BatchProperty, ReverseSortedInputMatchesOracle) {
  Fixture f;
  Team team(f.sl->team_size(), 0, 6);
  MapOracle oracle;

  std::vector<Op> ops;
  for (Key k = 500; k >= 1; --k) {
    ops.push_back(Op{OpKind::Insert, k, value_of(k), 0});
  }
  const BatchResult br = run_batch(*f.sl, team, ops);
  const auto want = oracle.apply_batch(ops);
  ASSERT_EQ(br.outcomes, want);
  EXPECT_EQ(f.sl->collect(), oracle.collect());
}

TEST(BatchProperty, DeterminismSameSeedBitIdentical) {
  // Same ops + same seed + deterministic scheduler => bit-identical outcome
  // vectors AND bit-identical batch stats (shards, steals, reuses, pins).
  Xoshiro256ss rng(66);
  std::vector<Op> ops;
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(1024));
    const auto roll = static_cast<int>(rng.below(100));
    const OpKind kind = roll < 30   ? OpKind::Insert
                        : roll < 60 ? OpKind::Delete
                                    : OpKind::Contains;
    ops.push_back(Op{kind, k, value_of(k), 0});
  }

  auto run_once = [&](BatchResult* out) {
    device::DeviceMemory mem;
    GfslConfig cfg;
    cfg.pool_chunks = 1u << 13;
    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 99,
                               4);
    Gfsl sl(cfg, &mem, &sched);
    harness::RunConfig rc;
    rc.num_workers = 4;
    rc.seed = 99;
    rc.scheduler = &sched;
    harness::BatchRunOptions bo;
    bo.batch_size = 1024;
    const auto rr = harness::run_gfsl_batched(sl, ops, rc, mem, bo, out);
    EXPECT_FALSE(rr.out_of_memory);
    return sl.collect();
  };

  BatchResult a, b;
  const auto state_a = run_once(&a);
  const auto state_b = run_once(&b);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(state_a, state_b);
  EXPECT_EQ(a.stats.shards, b.stats.shards);
  EXPECT_EQ(a.stats.shard_sizes, b.stats.shard_sizes);
  EXPECT_EQ(a.stats.steals, b.stats.steals);
  EXPECT_EQ(a.stats.descent_reuses, b.stats.descent_reuses);
  EXPECT_EQ(a.stats.full_descents, b.stats.full_descents);
  EXPECT_EQ(a.stats.epoch_pins, b.stats.epoch_pins);
}

TEST(BatchProperty, WarmCursorDominatesOnSortedBatches) {
  // The whole point of sorted sharded dispatch: after the first descent of a
  // shard, neighbouring keys reuse the warm cursor instead of descending
  // from the head.  On a dense batch, reuses must dwarf full descents.
  Fixture f(1u << 13);
  Team team(f.sl->team_size(), 0, 7);

  std::vector<Op> ops;
  Xoshiro256ss rng(77);
  for (int i = 0; i < 4096; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(8192));
    ops.push_back(Op{OpKind::Insert, k, value_of(k), 0});
  }
  const BatchResult br = run_batch(*f.sl, team, ops);
  EXPECT_GT(br.stats.descent_reuses, br.stats.full_descents * 4);
  EXPECT_GT(br.stats.descent_reuses + br.stats.full_descents, 0u);
}

TEST(BatchProperty, BatchedRunnerMatchesPerOpRunnerOnDistinctKeys) {
  Xoshiro256ss rng(88);
  const auto ops = random_distinct_key_batch(rng, 2000);

  auto run_mode = [&](bool batched, std::vector<std::uint8_t>* results) {
    device::DeviceMemory mem;
    GfslConfig cfg;
    cfg.pool_chunks = 1u << 13;
    Gfsl sl(cfg, &mem);
    harness::RunConfig rc;
    rc.num_workers = 4;
    rc.seed = 88;
    rc.results = results;
    if (batched) {
      harness::BatchRunOptions bo;
      bo.batch_size = 512;
      (void)harness::run_gfsl_batched(sl, ops, rc, mem, bo);
    } else {
      (void)harness::run_gfsl(sl, ops, rc, mem);
    }
    return sl.collect();
  };

  std::vector<std::uint8_t> res_batched, res_perop;
  const auto state_batched = run_mode(true, &res_batched);
  const auto state_perop = run_mode(false, &res_perop);
  // Distinct keys: all ops commute, so both modes agree element-wise and on
  // the final structure.
  EXPECT_EQ(res_batched, res_perop);
  EXPECT_EQ(state_batched, state_perop);
}

TEST(BatchProperty, PlanShardsIsAPermutationAndNeverSplitsKeys) {
  Xoshiro256ss rng(99);
  std::vector<Op> ops;
  for (int i = 0; i < 1000; ++i) {
    // Small range => long equal-key runs to tempt the splitter.
    const Key k = static_cast<Key>(1 + rng.below(37));
    ops.push_back(Op{OpKind::Insert, k, 0, 0});
  }

  const sched::ShardPlan plan =
      sched::plan_shards(ops, /*num_teams=*/4, /*target_shard_ops=*/16);

  // `order` is a permutation of [0, n).
  ASSERT_EQ(plan.order.size(), ops.size());
  std::vector<bool> seen(ops.size(), false);
  for (const std::uint32_t idx : plan.order) {
    ASSERT_LT(idx, ops.size());
    ASSERT_FALSE(seen[idx]);
    seen[idx] = true;
  }

  // Sorted by (key, submission idx): the strict total order determinism
  // rests on.
  for (std::size_t i = 1; i < plan.order.size(); ++i) {
    const Op& prev = ops[plan.order[i - 1]];
    const Op& curr = ops[plan.order[i]];
    ASSERT_TRUE(prev.key < curr.key ||
                (prev.key == curr.key && plan.order[i - 1] < plan.order[i]));
  }

  // Shards tile [0, n) and never split an equal-key run.
  ASSERT_FALSE(plan.shards.empty());
  EXPECT_EQ(plan.shards.front().begin, 0u);
  EXPECT_EQ(plan.shards.back().end, ops.size());
  for (std::size_t s = 1; s < plan.shards.size(); ++s) {
    ASSERT_EQ(plan.shards[s].begin, plan.shards[s - 1].end);
    const Key left = ops[plan.order[plan.shards[s].begin - 1]].key;
    const Key right = ops[plan.order[plan.shards[s].begin]].key;
    ASSERT_LT(left, right) << "shard boundary splits key " << right;
  }

  // Team ranges tile the shard list.
  ASSERT_EQ(plan.team_ranges.size(), 4u);
  EXPECT_EQ(plan.team_ranges.front().first, 0u);
  EXPECT_EQ(plan.team_ranges.back().second, plan.shards.size());
  for (std::size_t t = 1; t < plan.team_ranges.size(); ++t) {
    EXPECT_EQ(plan.team_ranges[t].first, plan.team_ranges[t - 1].second);
  }
}

TEST(BatchProperty, ShardQueueDrainsEveryShardExactlyOnce) {
  std::vector<Op> ops;
  for (int i = 0; i < 500; ++i) {
    ops.push_back(Op{OpKind::Contains, static_cast<Key>(i + 1), 0, 0});
  }
  const sched::ShardPlan plan =
      sched::plan_shards(ops, /*num_teams=*/3, /*target_shard_ops=*/8);
  ASSERT_GT(plan.shards.size(), 3u);

  sched::ShardQueue queue(plan);
  std::vector<int> popped(plan.shards.size(), 0);
  // Team 2 drains the WHOLE queue: after exhausting its home range it must
  // steal every remaining shard from teams 0 and 1.
  bool team2_stole = false;
  int s;
  bool stolen = false;
  while ((s = queue.pop(2, &stolen)) >= 0) {
    popped[static_cast<std::size_t>(s)]++;
    team2_stole |= stolen;
  }
  for (int t = 0; t < 2; ++t) {
    while ((s = queue.pop(t, &stolen)) >= 0) {
      popped[static_cast<std::size_t>(s)]++;
    }
  }
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i], 1) << "shard " << i;
  }
  // Team 2 drained shards outside its home range: the steal path fired and
  // was counted.
  EXPECT_TRUE(team2_stole);
  EXPECT_GT(queue.steals(), 0u);
  // Drained queue stays drained.
  EXPECT_EQ(queue.pop(0), -1);
  EXPECT_EQ(queue.pop(2), -1);
}

}  // namespace
}  // namespace gfsl::core
