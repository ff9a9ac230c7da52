// Batch execution engine types (DESIGN.md §10).
//
// The paper's evaluation model is a GPU kernel: thousands of operations are
// launched as one batch and teams pull work until the batch drains.  This
// header defines the batch-side vocabulary — the request/result pair, the
// per-team descent cursor that amortizes traversals across a key-sorted
// shard, and the per-shard execution stats — plus a single-team convenience
// driver used by the differential tests and the fuzzer.  The multi-team
// driver lives in harness/runner.cpp (run_gfsl_batched).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace gfsl::simt {
class Team;
}

namespace gfsl::core {

class Gfsl;

/// A batch is just the submission-ordered op array; sorting and sharding are
/// the engine's job (sched/batch_dispatch.h), never the caller's.
using BatchRequest = std::vector<Op>;

/// Per-op outcome, indexed by submission position.  kTrue/kFalse mirror the
/// per-op API's boolean (insert: inserted / duplicate; erase: removed /
/// absent; contains: found / not found).  kSkipped marks an op that never
/// executed (pool exhaustion mid-batch, or a team killed mid-shard).
enum class BatchOpStatus : std::uint8_t {
  kFalse = 0,
  kTrue = 1,
  kSkipped = 2,
};

/// Batch-level execution metrics, the numbers behind the gfsl-metrics-v1
/// batch counters (shard sizes, steal counts, descent reuse hits).
struct BatchStats {
  std::uint64_t ops = 0;             // ops submitted
  std::uint64_t shards = 0;          // shards planned
  std::uint64_t steals = 0;          // shards executed off another team's range
  std::uint64_t descent_reuses = 0;  // searches started from a warm cursor
  std::uint64_t full_descents = 0;   // searches that descended from the head
  std::uint64_t epoch_pins = 0;      // per-shard pins incl. mid-shard refreshes
  std::vector<std::uint32_t> shard_sizes;  // ops per shard, plan order
};

/// Submission-order outcomes plus batch-level metrics.
struct BatchResult {
  std::vector<std::uint8_t> outcomes;  // BatchOpStatus per submitted op
  BatchStats stats;
  bool out_of_memory = false;

  BatchOpStatus status(std::size_t i) const {
    return static_cast<BatchOpStatus>(outcomes[i]);
  }
};

/// The amortized-descent cursor a team carries across one key-sorted shard.
/// Level l caches the chunk through which the previous search's down step at
/// level l passed (plus its max key and acquisition-time generation stamp).
/// For the next, larger key the search starts at the lowest cached level
/// whose max still covers it instead of descending from the head.
///
/// Why a stale entry is still safe: a chunk's key coverage only ever extends
/// leftward (its max can drop, its left bound only grows downward via
/// merges), and keys only migrate rightward (shifts, splits, merges push
/// survivors into successors).  So a chunk that once enclosed key k' <= k
/// stays at-or-left of k's enclosing chunk for as long as the chunk itself
/// survives — a cached max that went stale can only be an over-estimate,
/// which the lateral walk corrects; it can never cause a wrong skip.  Chunk
/// *recycling* breaks the at-or-left guarantee, which is why the cursor must
/// never outlive the epoch pin it was built under: execute_shard invalidates
/// it at every pin refresh, and search_slow falls back to a cold descent on
/// any generation-stamp mismatch.
struct BatchCursor {
  struct Entry {
    ChunkRef ref = NULL_CHUNK;
    std::uint32_t gen = 0;  // acquisition-time generation sample
    Key max = 0;            // chunk max as of the recording read
  };

  std::array<Entry, 32> levels{};  // == Gfsl::kMaxLevels
  int height = -1;                 // highest valid entry; -1 = cold
  Key last_key = 0;                // keys must be submitted in ascending order
  std::uint64_t reuses = 0;        // descents started from a cached entry
  std::uint64_t fulls = 0;         // cold descents from the head

  void invalidate() { height = -1; }
  bool warm() const { return height >= 0; }
};

/// Per-shard execution stats returned by Gfsl::execute_shard.
struct ShardExecStats {
  std::uint64_t reuses = 0;
  std::uint64_t fulls = 0;
  std::uint64_t pins = 0;
  std::uint64_t applied_true = 0;  // ops that returned true
  bool out_of_memory = false;      // some op hit pool exhaustion (kSkipped)
};

/// Observer hooks around each op inside a shard, so the crash-sweep harness
/// can keep its history log (begin/end/crashed-op records) without the
/// engine knowing about HistoryLog.  on_skipped fires when an op was
/// abandoned on pool exhaustion (it never produced a response).
class BatchOpObserver {
 public:
  virtual ~BatchOpObserver() = default;
  virtual void on_begin(std::uint32_t idx, const Op& op) = 0;
  virtual void on_end(std::uint32_t idx, const Op& op, bool result) = 0;
  virtual void on_skipped(std::uint32_t /*idx*/, const Op& /*op*/) {}
};

/// Single-team batch driver: plan, then execute every shard on `team` in
/// plan order.  Semantically identical to the multi-team runner (stealing is
/// trivially sequential); the workhorse of the oracle/differential tests and
/// `gfsl_fuzz --batch`.
BatchResult run_batch(Gfsl& sl, simt::Team& team, const BatchRequest& ops,
                      std::size_t target_shard_ops = 0);

}  // namespace gfsl::core
