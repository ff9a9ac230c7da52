// Tests for the cooperative range-scan extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/random.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "sched/step_scheduler.h"

namespace gfsl::core {
namespace {

using simt::Team;

struct Fixture {
  explicit Fixture(int team_size = 32) : team(team_size, 0, 5) {
    GfslConfig cfg;
    cfg.team_size = team_size;
    cfg.pool_chunks = 1u << 15;
    sl = std::make_unique<Gfsl>(cfg, &mem);
  }
  device::DeviceMemory mem;
  Team team;
  std::unique_ptr<Gfsl> sl;
};

TEST(Scan, EmptyStructureAndEmptyRange) {
  Fixture f;
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(f.sl->scan(f.team, 1, 100, out), 0u);
  f.sl->insert(f.team, 50, 1);
  EXPECT_EQ(f.sl->scan(f.team, 60, 40, out), 0u);  // inverted range
  EXPECT_EQ(f.sl->scan(f.team, 1, 100, out, 0), 0u);  // zero limit
  EXPECT_TRUE(out.empty());
}

TEST(Scan, ExactRangeSortedOutput) {
  Fixture f;
  for (Key k = 10; k <= 1'000; k += 10) f.sl->insert(f.team, k, k * 2);
  std::vector<std::pair<Key, Value>> out;
  const auto n = f.sl->scan(f.team, 95, 305, out);
  // Keys 100, 110, ..., 300.
  ASSERT_EQ(n, 21u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 100 + 10 * i);
    EXPECT_EQ(out[i].second, out[i].first * 2);
  }
}

TEST(Scan, InclusiveBounds) {
  Fixture f;
  f.sl->insert(f.team, 5, 0);
  f.sl->insert(f.team, 10, 0);
  f.sl->insert(f.team, 15, 0);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(f.sl->scan(f.team, 5, 15, out), 3u);
  out.clear();
  EXPECT_EQ(f.sl->scan(f.team, 6, 14, out), 1u);
  EXPECT_EQ(out[0].first, 10u);
}

TEST(Scan, LimitTruncates) {
  Fixture f;
  for (Key k = 1; k <= 500; ++k) f.sl->insert(f.team, k, 0);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(f.sl->scan(f.team, 1, 500, out, 37), 37u);
  EXPECT_EQ(out.size(), 37u);
  EXPECT_EQ(out.front().first, 1u);
  EXPECT_EQ(out.back().first, 37u);
}

TEST(Scan, FullScanMatchesCollect) {
  Fixture f;
  Xoshiro256ss rng(1);
  for (int i = 0; i < 3'000; ++i) {
    f.sl->insert(f.team, static_cast<Key>(1 + rng.below(10'000)), 7);
  }
  std::vector<std::pair<Key, Value>> out;
  f.sl->scan(f.team, MIN_USER_KEY, MAX_USER_KEY, out);
  EXPECT_EQ(out, f.sl->collect());
}

TEST(Scan, SpansChunksAndSkipsZombies) {
  Fixture f;
  for (Key k = 1; k <= 400; ++k) f.sl->insert(f.team, k, k);
  // Force merges to create zombies inside the scan range: drop chunks well
  // below the DSIZE/3 merge threshold by deleting 3 of every 4 keys.
  for (Key k = 20; k <= 380; ++k) {
    if (k % 4 != 0) f.sl->erase(f.team, k);
  }
  ASSERT_GT(f.sl->validate().zombie_chunks, 0u);
  std::vector<std::pair<Key, Value>> out;
  f.sl->scan(f.team, 1, 400, out);
  EXPECT_EQ(out, f.sl->collect());
}

TEST(Scan, AppendsToExistingVector) {
  Fixture f;
  f.sl->insert(f.team, 7, 1);
  std::vector<std::pair<Key, Value>> out{{1, 1}};
  EXPECT_EQ(f.sl->scan(f.team, 1, 100, out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].first, 7u);
}

TEST(Scan, SmallTeamSize) {
  Fixture f(8);
  for (Key k = 1; k <= 200; ++k) f.sl->insert(f.team, k, k);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(f.sl->scan(f.team, 40, 60, out), 21u);
}

TEST(Scan, StableKeysVisibleUnderConcurrentChurn) {
  // Keys 1..200 are permanent; a writer churns 1000..2000.  Every scan of
  // [1, 200] must return exactly the stable keys.
  Fixture f(16);
  for (Key k = 1; k <= 200; ++k) f.sl->insert(f.team, k, k);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    Team w(16, 1, 9);
    Xoshiro256ss rng(2);
    for (int i = 0; i < 6'000; ++i) {
      const Key k = static_cast<Key>(1'000 + rng.below(1'000));
      if (rng.below(2) == 0) {
        f.sl->insert(w, k, 0);
      } else {
        f.sl->erase(w, k);
      }
    }
    stop = true;
  });
  std::thread scanner([&] {
    Team s(16, 2, 10);
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<std::pair<Key, Value>> out;
      f.sl->scan(s, 1, 200, out);
      if (out.size() != 200) {
        ++bad;
        continue;
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].first != i + 1) ++bad;
      }
    }
  });
  writer.join();
  scanner.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Scan, WriterKilledAtEveryStepNeverShowsAKeyTwice) {
  // A writer killed at step s freezes whatever its insert left half done: a
  // right-to-left shift with one key in two slots, or a split whose new NEXT
  // entry is published while the moved tail still sits in the old chunk.
  // Kill it at every step in turn; a scan of each frozen state must be
  // strictly ascending and still hold every bulk-loaded key.
  const std::vector<Key> writes{15, 25, 35, 45, 55, 12, 22, 65, 61};
  int kills = 0;
  for (std::uint64_t step = 1;; ++step) {
    device::DeviceMemory mem;
    GfslConfig cfg;
    cfg.team_size = 8;
    cfg.pool_chunks = 256;
    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 1,
                               1);
    Gfsl sl(cfg, &mem, &sched);
    std::vector<std::pair<Key, Value>> base;
    for (Key k = 10; k <= 60; k += 10) base.emplace_back(k, k);
    sl.bulk_load(base);

    sched.kill_at(0, step);
    Team writer(8, 0, 3);
    sched.enter(0);
    bool killed = false;
    try {
      for (const Key k : writes) sl.insert(writer, k, k);
      sched.leave(0);
    } catch (const sched::TeamKilled&) {
      killed = true;
    }
    if (!killed) break;  // the kill step lies past the last op
    ++kills;

    Team reader(8, 1, 4);  // not a participant: runs free
    std::vector<std::pair<Key, Value>> out;
    sl.scan(reader, 1, 1'000, out);
    std::string keys;
    for (const auto& kv : out) keys += " " + std::to_string(kv.first);
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LT(out[i - 1].first, out[i].first)
          << "killed at step " << step << ":" << keys;
    }
    for (Key k = 10; k <= 60; k += 10) {
      ASSERT_TRUE(std::any_of(out.begin(), out.end(),
                              [k](const auto& kv) { return kv.first == k; }))
          << "killed at step " << step << " lost " << k << ":" << keys;
    }
  }
  EXPECT_GT(kills, 100);
}

}  // namespace
}  // namespace gfsl::core
