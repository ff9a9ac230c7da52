// Differential oracles for the tests: the sequential MapOracle (defined in
// harness/workload.h, where the sweeps and `gfsl_fuzz --batch` use it too)
// and the test-only SnapshotOracle that freezes one of its states.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "harness/workload.h"

namespace gfsl::testing {

using harness::MapOracle;

/// Frozen point-in-time reference for MVCC snapshot scans: captures the
/// oracle's (or any collected) state at the instant a Gfsl::snapshot() is
/// taken.  However much traffic mutates the structure afterwards, scan_at()
/// over that snapshot must keep producing exactly expected_range() — the
/// oracle never changes, which is the whole contract.
class SnapshotOracle {
 public:
  explicit SnapshotOracle(const MapOracle& live) : frozen_(live.state()) {}
  explicit SnapshotOracle(const std::vector<std::pair<Key, Value>>& pairs)
      : frozen_(pairs.begin(), pairs.end()) {}

  /// What a consistent scan_at(s, lo, hi, limit) must return: the frozen
  /// pairs with keys in [lo, hi], ascending, truncated at `limit`.
  std::vector<std::pair<Key, Value>> expected_range(
      Key lo, Key hi, std::size_t limit = SIZE_MAX) const {
    std::vector<std::pair<Key, Value>> out;
    for (auto it = frozen_.lower_bound(lo);
         it != frozen_.end() && it->first <= hi && out.size() < limit; ++it) {
      out.push_back(*it);
    }
    return out;
  }

  const std::map<Key, Value>& state() const { return frozen_; }
  std::size_t size() const { return frozen_.size(); }

 private:
  std::map<Key, Value> frozen_;
};

}  // namespace gfsl::testing
