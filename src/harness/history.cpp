#include "harness/history.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

namespace gfsl::harness {

void HistoryObserver::on_begin(std::uint32_t /*idx*/, const Op& /*op*/) {
  tick_ = log_->begin_op();
}

void HistoryObserver::on_end(std::uint32_t /*idx*/, const Op& op,
                             bool result) {
  log_->end_op(w_, tick_, op.kind, op.key, result);
}

void HistoryObserver::on_skipped(std::uint32_t /*idx*/, const Op& op) {
  log_->crash_op(w_, tick_, op.kind, op.key);
}

HistoryLog::HistoryLog(std::size_t reserve_per_worker, int workers) {
  per_worker_.resize(static_cast<std::size_t>(workers));
  for (auto& lane : per_worker_) lane.reserve(reserve_per_worker);
  observers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) observers_.emplace_back(*this, w);
}

std::vector<core::BatchOpObserver*> HistoryLog::observers() {
  std::vector<core::BatchOpObserver*> out;
  for (auto& o : observers_) out.push_back(&o);
  return out;
}

std::vector<HistoryEvent> HistoryLog::merged() const {
  std::vector<HistoryEvent> out;
  std::size_t total = 0;
  for (const auto& lane : per_worker_) total += lane.size();
  out.reserve(total);
  for (const auto& lane : per_worker_) {
    out.insert(out.end(), lane.begin(), lane.end());
  }
  std::sort(out.begin(), out.end(),
            [](const HistoryEvent& a, const HistoryEvent& b) {
              return a.invoke < b.invoke;
            });
  return out;
}

namespace {

/// Wing-Gong style DFS over one key's projected history.
class KeyChecker {
 public:
  KeyChecker(std::vector<const HistoryEvent*> ev, bool initial)
      : ev_(std::move(ev)), initial_(initial) {}

  bool check(bool final_present) {
    done_.assign(ev_.size(), false);
    memo_.clear();
    budget_ = 2'000'000;
    return dfs(initial_, 0, final_present);
  }

  bool budget_exhausted() const { return budget_ <= 0; }

 private:
  static bool applies(const HistoryEvent& e, bool present, bool* next) {
    switch (e.kind) {
      case OpKind::Insert:
        if (e.result == present) return false;  // true iff it was absent
        *next = present || e.result;
        return true;
      case OpKind::Delete:
        if (e.result != present) return false;  // true iff it was present
        *next = present && !e.result;
        return true;
      case OpKind::Contains:
        if (e.result != present) return false;
        *next = present;
        return true;
    }
    return false;
  }

  std::string state_key(bool present) const {
    std::string s(done_.size() + 1, '0');
    for (std::size_t i = 0; i < done_.size(); ++i) {
      if (done_[i]) s[i] = '1';
    }
    s.back() = present ? 'P' : 'A';
    return s;
  }

  bool dfs(bool present, std::size_t n_done, bool final_present) {
    if (--budget_ <= 0) return false;
    if (n_done == ev_.size()) return present == final_present;
    const std::string key = state_key(present);
    if (!memo_.insert(key).second) return false;  // visited, failed

    // Candidates: unlinearized events not strictly preceded (in real time)
    // by another unlinearized event.
    std::uint64_t min_response = UINT64_MAX;
    for (std::size_t i = 0; i < ev_.size(); ++i) {
      if (!done_[i]) min_response = std::min(min_response, ev_[i]->response);
    }
    for (std::size_t i = 0; i < ev_.size(); ++i) {
      if (done_[i]) continue;
      if (ev_[i]->invoke > min_response) continue;  // some op wholly precedes
      if (ev_[i]->crashed) {
        // A crashed op's result is unknown and its effect optional: try the
        // "never took effect" branch and, for mutators, the "took effect"
        // branch.  (Its response is UINT64_MAX, so it never gates others.)
        done_[i] = true;
        if (dfs(present, n_done + 1, final_present)) return true;
        bool next = present;
        if (ev_[i]->kind == OpKind::Insert) next = true;
        if (ev_[i]->kind == OpKind::Delete) next = false;
        if (next != present && dfs(next, n_done + 1, final_present)) {
          return true;
        }
        done_[i] = false;
        continue;
      }
      bool next = present;
      if (!applies(*ev_[i], present, &next)) continue;
      done_[i] = true;
      if (dfs(next, n_done + 1, final_present)) return true;
      done_[i] = false;
    }
    return false;
  }

  std::vector<const HistoryEvent*> ev_;
  bool initial_;
  std::vector<bool> done_;
  std::unordered_set<std::string> memo_;
  long long budget_ = 0;
};

}  // namespace

CheckResult check_history(const std::vector<HistoryEvent>& events,
                          const std::vector<Key>& initially_present,
                          const std::vector<Key>& finally_present) {
  CheckResult res;
  const std::set<Key> init(initially_present.begin(), initially_present.end());
  const std::set<Key> fin(finally_present.begin(), finally_present.end());

  std::map<Key, std::vector<const HistoryEvent*>> by_key;
  for (const auto& e : events) by_key[e.key].push_back(&e);

  // Keys that appear in the final state but were never touched must have
  // been there initially.
  for (const Key k : fin) {
    if (by_key.count(k) == 0 && init.count(k) == 0) {
      res.ok = false;
      res.error = "key " + std::to_string(k) +
                  " appeared in the final state without any operation";
      return res;
    }
  }
  for (const Key k : init) {
    if (by_key.count(k) == 0 && fin.count(k) == 0) {
      res.ok = false;
      res.error = "key " + std::to_string(k) +
                  " vanished from the final state without any operation";
      return res;
    }
  }

  for (auto& [k, ev] : by_key) {
    std::sort(ev.begin(), ev.end(),
              [](const HistoryEvent* a, const HistoryEvent* b) {
                return a->invoke < b->invoke;
              });
    KeyChecker checker(ev, init.count(k) > 0);
    res.events_checked += ev.size();
    ++res.keys_checked;
    if (!checker.check(fin.count(k) > 0)) {
      res.ok = false;
      res.error = checker.budget_exhausted()
                      ? "search budget exhausted for key " + std::to_string(k)
                      : "no valid linearization for key " + std::to_string(k) +
                            " (" + std::to_string(ev.size()) + " events)";
      return res;
    }
  }
  return res;
}

}  // namespace gfsl::harness
