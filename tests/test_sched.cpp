// Unit tests: deterministic step scheduler — reproducibility, fairness,
// failure injection.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sched/step_scheduler.h"

namespace gfsl::sched {
namespace {

// Run `n` workers that each append their id to a shared trace at every step.
std::vector<int> run_trace(std::uint64_t seed, int n, int steps_each) {
  StepScheduler sched(StepScheduler::Mode::Deterministic, seed, n);
  std::vector<int> trace;
  std::mutex trace_mu;
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      sched.enter(id);
      for (int s = 0; s < steps_each; ++s) {
        {
          std::lock_guard<std::mutex> lk(trace_mu);
          trace.push_back(id);
        }
        sched.yield(id);
      }
      sched.leave(id);
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(StepScheduler, FreeModeIsNoOp) {
  StepScheduler s(StepScheduler::Mode::Free);
  s.enter(0);
  s.yield(0);
  s.leave(0);  // must not block or throw
  SUCCEED();
}

TEST(StepScheduler, SameSeedSameInterleaving) {
  const auto a = run_trace(123, 4, 50);
  const auto b = run_trace(123, 4, 50);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 200u);
}

TEST(StepScheduler, DifferentSeedsDiffer) {
  const auto a = run_trace(123, 4, 50);
  const auto b = run_trace(321, 4, 50);
  EXPECT_NE(a, b);
}

TEST(StepScheduler, AllParticipantsMakeProgress) {
  const auto trace = run_trace(7, 3, 100);
  int counts[3] = {};
  for (const int id : trace) ++counts[id];
  for (int i = 0; i < 3; ++i) EXPECT_EQ(counts[i], 100);
}

TEST(StepScheduler, InterleavingIsNotRoundRobin) {
  const auto trace = run_trace(99, 2, 200);
  // With random scheduling, some participant must run twice in a row
  // somewhere in 400 steps.
  bool repeat = false;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] == trace[i - 1]) {
      repeat = true;
      break;
    }
  }
  EXPECT_TRUE(repeat);
}

TEST(StepScheduler, KillThrowsAtYield) {
  StepScheduler sched(StepScheduler::Mode::Deterministic, 1, 2);
  sched.kill_at(0, 1);  // kill participant 0 at its first yield
  std::atomic<bool> killed{false};
  std::atomic<int> survivor_steps{0};
  std::thread t0([&] {
    sched.enter(0);
    try {
      for (int i = 0; i < 100; ++i) sched.yield(0);
    } catch (const TeamKilled& k) {
      EXPECT_EQ(k.team_id, 0);
      killed = true;
      return;  // killed teams must not call leave()
    }
  });
  std::thread t1([&] {
    sched.enter(1);
    for (int i = 0; i < 100; ++i) {
      sched.yield(1);
      ++survivor_steps;
    }
    sched.leave(1);
  });
  t0.join();
  t1.join();
  EXPECT_TRUE(killed);
  EXPECT_EQ(survivor_steps, 100);  // the survivor still finishes
}

TEST(StepScheduler, KillMarksLeaseCrashedAtKillStep) {
  LeaseTable leases;
  StepScheduler sched(StepScheduler::Mode::Deterministic, 1, 1);
  sched.attach_leases(&leases);
  const auto dead_word = leases.word(0);
  sched.kill_at(0, 3);
  std::thread t([&] {
    sched.enter(0);
    try {
      for (int i = 0; i < 100; ++i) {
        sched.yield(0);
        // The lease must not expire before the kill lands.
        EXPECT_FALSE(leases.crashed(0));
      }
      ADD_FAILURE() << "kill never landed";
    } catch (const TeamKilled&) {
    }
  });
  t.join();
  EXPECT_TRUE(leases.crashed(0));
  EXPECT_TRUE(leases.expired(dead_word));
  EXPECT_EQ(sched.global_steps(), 3u);
}

TEST(StepScheduler, KillAllAtActsAsWatchdog) {
  StepScheduler sched(StepScheduler::Mode::Deterministic, 5, 2);
  sched.kill_all_at(20);
  std::atomic<int> killed{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < 2; ++id) {
    threads.emplace_back([&, id] {
      sched.enter(id);
      try {
        for (int i = 0; i < 1000; ++i) sched.yield(id);
        sched.leave(id);
      } catch (const TeamKilled&) {
        ++killed;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(killed, 2);
}

TEST(StepScheduler, KillAllAtKeepsEarlierKills) {
  StepScheduler sched(StepScheduler::Mode::Deterministic, 1, 1);
  sched.kill_at(0, 2);
  sched.kill_all_at(50);  // must not postpone the armed kill
  std::thread t([&] {
    sched.enter(0);
    try {
      for (int i = 0; i < 100; ++i) sched.yield(0);
    } catch (const TeamKilled&) {
    }
  });
  t.join();
  EXPECT_EQ(sched.global_steps(), 2u);
}

TEST(StepScheduler, OutOfRangeIdsRunFree) {
  // Medic teams use an id beyond the participant set; every scheduler call
  // must be a no-op for them (no blocking, no kill).
  StepScheduler sched(StepScheduler::Mode::Deterministic, 1, 2);
  sched.kill_all_at(0);
  sched.enter(5);
  sched.yield(5);
  sched.yield(-1);
  sched.leave(5);
  sched.kill_at(5, 0);  // ignored, not out-of-bounds
  SUCCEED();
}

TEST(StepScheduler, RejectsZeroParticipants) {
  EXPECT_THROW(StepScheduler(StepScheduler::Mode::Deterministic, 1, 0),
               std::invalid_argument);
}

TEST(StepScheduler, GlobalStepsAdvance) {
  StepScheduler sched(StepScheduler::Mode::Deterministic, 1, 1);
  std::thread t([&] {
    sched.enter(0);
    for (int i = 0; i < 10; ++i) sched.yield(0);
    sched.leave(0);
  });
  t.join();
  EXPECT_EQ(sched.global_steps(), 10u);
}

TEST(StepScheduler, LastYieldIsEachParticipantsFinalStep) {
  // Participant 0 finishes long before participant 1: its last yield is the
  // global step of its 10th yield, and a kill armed after it never lands.
  StepScheduler sched(StepScheduler::Mode::Deterministic, 5, 2);
  std::vector<int> trace;  // participant of global step i + 1
  std::vector<std::thread> threads;
  for (int id = 0; id < 2; ++id) {
    threads.emplace_back([&, id] {
      sched.enter(id);
      for (int s = 0; s < (id == 0 ? 10 : 40); ++s) {
        trace.push_back(id);  // only the granted participant runs
        sched.yield(id);
      }
      sched.leave(id);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(trace.size(), 50u);
  for (int id = 0; id < 2; ++id) {
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] == id) last = i + 1;
    }
    EXPECT_EQ(sched.last_yield(id), last) << "participant " << id;
  }
  EXPECT_LT(sched.last_yield(0), sched.global_steps());
  EXPECT_EQ(sched.last_yield(1), sched.global_steps());
  EXPECT_EQ(sched.last_yield(7), 0u);  // not a participant
}

}  // namespace
}  // namespace gfsl::sched
