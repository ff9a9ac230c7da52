// Deterministic interleaving scheduler for concurrency testing.
//
// GFSL's correctness argument (§4.3) rests on delicate orderings: right-to-
// left shifts during insert, max-field monotonicity, zombie reachability.
// Exercising those orderings reliably needs control over *which team runs
// next*.  StepScheduler provides that: in Deterministic mode every simulated
// global-memory step is a yield point, and a seeded RNG picks the next team
// to advance.  Re-running with the same seed reproduces the exact
// interleaving; sweeping seeds explores distinct interleavings.
//
// In Free mode every call is a no-op and teams run at native speed on their
// own OS threads (the measurement configuration).
//
// Failure injection: kill_at(step) makes the scheduler throw TeamKilled out
// of the victim's next yield once the global step counter passes `step`.
// The test harness catches it and abandons the team mid-operation, modeling
// a stalled warp.  Kills may land *anywhere*, including inside insert /
// erase / split / merge critical sections: chunk locks carry lease words
// (sched/lease.h) and every destructive span publishes an intent descriptor,
// so survivors detect the expired lease, roll the half-done mutation forward
// or back, and release the dead team's locks.  When a LeaseTable is attached
// via attach_leases(), the scheduler marks the victim crashed at the kill
// step itself — before the throw, under the scheduler mutex — so lease
// expiry is part of the deterministic interleaving and reruns with the same
// seed reproduce the exact recovery race.
//
// Epoch reclamation (core/reclaim.cpp) adds one more yield class: every
// operation's epoch announcement on exit (Gfsl::epoch_exit) is a sync point,
// so deterministic schedules interleave — and kill_at can land — right at
// the retire/reclaim boundary as well.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "sched/lease.h"

namespace gfsl::sched {

struct TeamKilled {
  int team_id;
};

class StepScheduler {
 public:
  // Free          — every call is a no-op; native threading (measurement).
  // Deterministic — a seeded RNG picks the next participant at every step.
  // RoundRobin    — participants advance strictly in id order, one step
  //                 each: the SIMT-like lockstep alternation used to model
  //                 two teams sharing a warp (the thesis's future-work
  //                 extension, Chapter 7).  A participant blocked in a spin
  //                 loop still yields every iteration, so its warp-mates
  //                 keep advancing — exactly the property that makes the
  //                 sub-warp scheme deadlock-free here.
  enum class Mode { Free, Deterministic, RoundRobin };

  explicit StepScheduler(Mode mode = Mode::Free, std::uint64_t seed = 1,
                         int participants = 0);

  Mode mode() const { return mode_; }

  /// A participant thread announces it is ready to be scheduled.  Blocks
  /// until the scheduler grants it its first step.  No-op in Free mode.
  void enter(int id);

  /// Yield point: give other participants a chance to run.  Called at every
  /// simulated global memory access.  No-op in Free mode.
  void yield(int id);

  /// Participant finished all its work; releases its slot.  No-op in Free.
  /// A killed participant must not call it: yield() already released the
  /// slot and handed the baton on, and a second hand-off would set two
  /// participants running at once.
  void leave(int id);

  /// Schedule participant `id` to be killed at its first yield at/after
  /// global step `step`.  Deterministic mode only.  The kill may land inside
  /// a critical section; with a LeaseTable attached the victim's lease is
  /// marked crashed at the same step.
  void kill_at(int id, std::uint64_t step);

  /// Arm a kill for every participant at/after `step` — the crash-sweep
  /// watchdog: survivors that are still running by then are livelocked, and
  /// the TeamKilled they catch marks the run as a hang.
  void kill_all_at(std::uint64_t step);

  /// Attach the lease table to mark victims crashed at their kill step
  /// (deterministically, under the scheduler mutex).  May be null.
  void attach_leases(LeaseTable* leases) { leases_ = leases; }

  std::uint64_t global_steps() const { return steps_; }

  /// Global step of participant `id`'s last scheduled yield (0 before its
  /// first).  A kill armed for a later step never lands, so a crash sweep
  /// over a baseline run needs kill steps only up to this one.
  std::uint64_t last_yield(int id) const;

  /// Whether a kill has landed on participant `id`.  Recorded under the
  /// scheduler mutex at the kill step itself, before the victim unwinds, so
  /// a peer that asks (the batch runner's launch barrier) learns of the
  /// death at the same point of every run of a seed.
  bool killed(int id) const;

  /// The step kill_all_at() armed (UINT64_MAX when no watchdog is set) and
  /// whether any kill actually landed at/after it.  The crash harness
  /// surfaces both in postmortem bundles so a hang report carries the
  /// watchdog context that condemned the run.
  std::uint64_t watchdog_step() const { return watchdog_step_; }
  bool watchdog_fired() const { return watchdog_fired_; }

 private:
  void grant_next_locked();

  Mode mode_;
  LeaseTable* leases_ = nullptr;
  Xoshiro256ss rng_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> active_;   // participant is between enter() and leave()
  std::vector<bool> waiting_;  // participant is blocked in enter()/yield()
  std::vector<std::uint64_t> kill_step_;  // UINT64_MAX = never
  std::vector<bool> killed_;   // a kill has landed on the participant
  std::vector<std::uint64_t> last_yield_;  // steps_ at its latest yield
  int granted_ = -1;           // participant currently allowed to run
  int n_ = 0;
  int entered_ = 0;            // participants that have called enter()
  std::uint64_t steps_ = 0;
  std::uint64_t watchdog_step_ = UINT64_MAX;  // set by kill_all_at
  bool watchdog_fired_ = false;  // a kill landed at/after watchdog_step_
};

}  // namespace gfsl::sched
