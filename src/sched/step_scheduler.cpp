#include "sched/step_scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gfsl::sched {

StepScheduler::StepScheduler(Mode mode, std::uint64_t seed, int participants)
    : mode_(mode), rng_(seed), n_(participants) {
  if (mode_ != Mode::Free && participants <= 0) {
    throw std::invalid_argument(
        "scheduled modes need a positive participant count");
  }
  active_.assign(static_cast<std::size_t>(n_), false);
  waiting_.assign(static_cast<std::size_t>(n_), false);
  kill_step_.assign(static_cast<std::size_t>(n_),
                    std::numeric_limits<std::uint64_t>::max());
  killed_.assign(static_cast<std::size_t>(n_), false);
  last_yield_.assign(static_cast<std::size_t>(n_), 0);
}

void StepScheduler::enter(int id) {
  if (mode_ == Mode::Free) return;
  if (id < 0 || id >= n_) return;  // non-participants (medic teams) run free
  std::unique_lock<std::mutex> lk(mu_);
  active_[static_cast<std::size_t>(id)] = true;
  waiting_[static_cast<std::size_t>(id)] = true;
  ++entered_;
  // Start barrier: no one runs until every participant is present, so the
  // interleaving is a pure function of the seed (not of thread start-up
  // order on the host).
  if (entered_ == n_ && granted_ < 0) {
    grant_next_locked();
    cv_.notify_all();
  }
  cv_.wait(lk, [&] { return granted_ == id; });
  waiting_[static_cast<std::size_t>(id)] = false;
}

void StepScheduler::yield(int id) {
  if (mode_ == Mode::Free) return;
  if (id < 0 || id >= n_) return;  // non-participants (medic teams) run free
  std::unique_lock<std::mutex> lk(mu_);
  if (!active_[static_cast<std::size_t>(id)]) {
    // A participant that left (or was killed) runs free, unscheduled; this
    // lets quiescent follow-up work reuse a structure bound to the scheduler.
    return;
  }
  ++steps_;
  last_yield_[static_cast<std::size_t>(id)] = steps_;
  if (steps_ >= kill_step_[static_cast<std::size_t>(id)]) {
    // Deactivate and hand the baton on before unwinding.  The lease is
    // marked crashed here, under mu_, so peers observe the death at a
    // deterministic point of the interleaving.
    kill_step_[static_cast<std::size_t>(id)] =
        std::numeric_limits<std::uint64_t>::max();
    active_[static_cast<std::size_t>(id)] = false;
    killed_[static_cast<std::size_t>(id)] = true;
    if (steps_ >= watchdog_step_) watchdog_fired_ = true;
    if (leases_ != nullptr) leases_->mark_crashed(id);
    grant_next_locked();
    cv_.notify_all();
    throw TeamKilled{id};
  }
  waiting_[static_cast<std::size_t>(id)] = true;
  grant_next_locked();
  cv_.notify_all();
  cv_.wait(lk, [&] { return granted_ == id; });
  waiting_[static_cast<std::size_t>(id)] = false;
}

void StepScheduler::leave(int id) {
  if (mode_ == Mode::Free) return;
  if (id < 0 || id >= n_) return;
  std::unique_lock<std::mutex> lk(mu_);
  active_[static_cast<std::size_t>(id)] = false;
  grant_next_locked();
  cv_.notify_all();
}

bool StepScheduler::killed(int id) const {
  if (id < 0 || id >= n_) return false;
  std::lock_guard<std::mutex> lk(mu_);
  return killed_[static_cast<std::size_t>(id)];
}

std::uint64_t StepScheduler::last_yield(int id) const {
  if (id < 0 || id >= n_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  return last_yield_[static_cast<std::size_t>(id)];
}

void StepScheduler::kill_at(int id, std::uint64_t step) {
  if (id < 0 || id >= n_) return;
  std::lock_guard<std::mutex> lk(mu_);
  kill_step_[static_cast<std::size_t>(id)] = step;
}

void StepScheduler::kill_all_at(std::uint64_t step) {
  std::lock_guard<std::mutex> lk(mu_);
  watchdog_step_ = std::min(watchdog_step_, step);
  for (auto& s : kill_step_) s = std::min(s, step);
}

void StepScheduler::grant_next_locked() {
  int candidates = 0;
  for (int i = 0; i < n_; ++i) {
    if (active_[static_cast<std::size_t>(i)] &&
        waiting_[static_cast<std::size_t>(i)]) {
      ++candidates;
    }
  }
  if (candidates == 0) {
    granted_ = -1;
    return;
  }
  if (mode_ == Mode::RoundRobin) {
    // Next waiting participant after the last granted one, in id order.
    for (int off = 1; off <= n_; ++off) {
      const int i = (granted_ < 0 ? off - 1 : (granted_ + off) % n_);
      if (active_[static_cast<std::size_t>(i)] &&
          waiting_[static_cast<std::size_t>(i)]) {
        granted_ = i;
        return;
      }
    }
    granted_ = -1;
    return;
  }
  // Deterministic: pick uniformly among active waiting participants.
  auto pick = static_cast<int>(rng_.below(static_cast<std::uint64_t>(candidates)));
  for (int i = 0; i < n_; ++i) {
    if (active_[static_cast<std::size_t>(i)] &&
        waiting_[static_cast<std::size_t>(i)]) {
      if (pick == 0) {
        granted_ = i;
        return;
      }
      --pick;
    }
  }
}

}  // namespace gfsl::sched
