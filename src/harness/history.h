// Concurrent-history recording and checking.
//
// Full linearizability checking is NP-hard in general, but for a *set* the
// per-key projection is enough and checkable in near-linear time: project
// the history onto each key and verify there exists a linearization of that
// key's operations — each op takes effect at one instant inside its
// [invoke, response] interval, inserts/deletes alternate starting from the
// key's initial presence, and every result is consistent with the state at
// its linearization point.
//
// The checker uses the standard interval-order argument: sort the key's
// operations by invocation time; a witness order must respect real-time
// precedence (op A wholly before op B ⇒ A linearizes first), so a greedy
// search over the overlap groups suffices for the small per-key histories
// the stress tests generate.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/batch.h"

namespace gfsl::harness {

struct HistoryEvent {
  std::uint64_t invoke = 0;    // monotonic tick at invocation
  std::uint64_t response = 0;  // monotonic tick at response
  OpKind kind = OpKind::Contains;
  Key key = 0;
  bool result = false;
  int worker = -1;
  // A crashed op never responded: its team was killed mid-flight.  The op's
  // effect is *optional* (it may have been rolled forward or rolled back by
  // recovery) and its interval is open-ended — recovery may complete it at
  // any later point — so `response` is UINT64_MAX and `result` carries no
  // information.
  bool crashed = false;
};

class HistoryLog;

/// Logs the ops one worker runs into a HistoryLog — the adapter a runner
/// takes through RunConfig::observers.  An op reported skipped (its team was
/// killed mid-flight, or it was abandoned on pool exhaustion) began but
/// never responded, so it is logged as crashed: optional in check_history.
class HistoryObserver final : public core::BatchOpObserver {
 public:
  HistoryObserver(HistoryLog& log, int worker) : log_(&log), w_(worker) {}

  void on_begin(std::uint32_t idx, const Op& op) override;
  void on_end(std::uint32_t idx, const Op& op, bool result) override;
  void on_skipped(std::uint32_t idx, const Op& op) override;

 private:
  HistoryLog* log_;
  int w_;
  std::uint64_t tick_ = 0;
};

/// Thread-safe append-only history log.  Workers call begin_op()/end_op()
/// around every operation; ticks come from one shared atomic counter, so
/// real-time precedence between workers is captured exactly.
class HistoryLog {
 public:
  explicit HistoryLog(std::size_t reserve_per_worker, int workers);

  std::uint64_t begin_op() { return clock_.fetch_add(1, std::memory_order_acq_rel); }

  void end_op(int worker, std::uint64_t invoke_tick, OpKind kind, Key key,
              bool result) {
    const std::uint64_t resp = clock_.fetch_add(1, std::memory_order_acq_rel);
    auto& lane = per_worker_[static_cast<std::size_t>(worker)];
    lane.push_back(HistoryEvent{invoke_tick, resp, kind, key, result, worker});
  }

  /// Record an op whose team was killed before it responded.  Call from the
  /// worker's TeamKilled handler (or after join) — same thread-safety rules
  /// as end_op: one writer per worker lane.
  void crash_op(int worker, std::uint64_t invoke_tick, OpKind kind, Key key) {
    auto& lane = per_worker_[static_cast<std::size_t>(worker)];
    lane.push_back(HistoryEvent{invoke_tick, UINT64_MAX, kind, key,
                                /*result=*/false, worker, /*crashed=*/true});
  }

  /// Merge all workers' events (call at quiescence).
  std::vector<HistoryEvent> merged() const;

  /// One HistoryObserver per worker lane, for RunConfig::observers.
  std::vector<core::BatchOpObserver*> observers();

 private:
  std::atomic<std::uint64_t> clock_{0};
  std::vector<std::vector<HistoryEvent>> per_worker_;
  std::vector<HistoryObserver> observers_;
};

struct CheckResult {
  bool ok = true;
  std::string error;          // description of the first violation
  std::uint64_t keys_checked = 0;
  std::uint64_t events_checked = 0;
};

/// Check per-key sequential consistency with real-time order (set
/// semantics).  `initially_present` lists keys in the structure before the
/// history began; `finally_present` is the quiescent post-state (checked
/// against each key's final linearized state).
CheckResult check_history(const std::vector<HistoryEvent>& events,
                          const std::vector<Key>& initially_present,
                          const std::vector<Key>& finally_present);

}  // namespace gfsl::harness
