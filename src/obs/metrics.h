// Unified telemetry: counters, gauges and log-bucketed latency histograms.
//
// The hot path is allocation-free and lock-free: every team writes into its
// own MetricsShard (fixed arrays indexed by enum), and a quiescent merge step
// folds the shards together for reporting.  When no shard is attached the
// instrumentation sites reduce to a single null-pointer test, so the
// disabled path costs nothing measurable (verified by the micro_ops A/B
// benchmarks).
//
// Layering: this header is self-contained (std only) so that `simt::Team`
// can embed a shard pointer without a dependency cycle; only the exporters
// (metrics.cpp) need linking against gfsl_obs.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfsl::obs {

/// Power-of-two-bucketed histogram: bucket b collects values v with
/// std::bit_width(v) == b, i.e. [2^(b-1), 2^b); value 0 lands in bucket 0.
/// Recording is a few arithmetic ops and never allocates; percentiles are
/// estimated by linear interpolation inside the covering bucket, so the
/// relative error is bounded by the bucket width (< 2x).
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width ranges over [0, 64]

  void record(std::uint64_t v) {
    ++buckets_[static_cast<std::size_t>(bucket_of(v))];
    ++count_;
    sum_ += v;
    const double dv = static_cast<double>(v);
    sum_sq_ += dv * dv;
    if (v > max_) max_ = v;
    if (v < min_) min_ = v;
  }

  static int bucket_of(std::uint64_t v) { return std::bit_width(v); }
  /// Smallest / largest value a bucket can hold.
  static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
  }
  static std::uint64_t bucket_hi(int b) {
    if (b == 0) return 0;
    if (b == 64) return UINT64_MAX;
    return (std::uint64_t{1} << b) - 1;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  /// Smallest recorded value; 0 when empty.
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  /// Population standard deviation of the recorded samples (exact up to
  /// double rounding of the running sum of squares), 0 for < 2 samples.
  double stddev() const;

  /// Percentile estimate for p in [0, 100], clamped outside that range.
  /// p = 0 returns the exact recorded minimum and p = 100 the exact maximum;
  /// interpolated estimates in between are clamped into [min, max].  An
  /// empty histogram returns 0 for every p.
  double percentile(double p) const;

  Histogram& operator+=(const Histogram& o);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  double sum_sq_ = 0.0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = UINT64_MAX;
};

// Fixed metric identities.  Enum-indexed arrays keep the hot path to a load,
// an add and a store; counter_name()/hist_name()/gauge_name() provide the
// stable strings of the JSON schema.
enum CounterId : int {
  kOpInsertCount,
  kOpInsertTrue,
  kOpEraseCount,
  kOpEraseTrue,
  kOpContainsCount,
  kOpContainsTrue,
  kOpScanCount,
  kOpScanItems,
  kLockAcquires,
  kLockSpins,
  kLockHoldSteps,  // lockstep instructions elapsed while holding chunk locks
  kZombieEncounters,
  kRestarts,
  kUpperLateralReads,    // chunk reads after a lateral step at level >= 1 in
                         // the per-level probe/lock walks (find_lateral,
                         // find_and_lock_enclosing): ~0 per op when the
                         // commit halves start from the recorded path
  kLeaseExpiries,        // expired-lease observations while spinning on a lock
  kLockSteals,           // dead teams' locks force-released (clean or post-repair)
  kRecoveryRollForward,  // intents completed on the dead team's behalf
  kRecoveryRollBack,     // intents undone (partial insert shifts)
  kBackoffRounds,        // bounded-spin rounds that ended in a backoff
  kBackoffSpinIters,     // host pause/yield iterations spent backing off
  kLockRetraversals,     // spin caps that fell back to a fresh lateral walk
  kChunkRetires,         // unlinked zombies queued into an epoch limbo list
  kChunkReclaims,        // retired chunks recycled onto the arena free-list
  kChunkRequeues,        // reclaim candidates sent back to limbo (still
                         // referenced by a stale upper-level down pointer)
  kDownPtrScrubs,        // stale down pointers repaired by the reclaim scan
  kEmergencyReclaims,    // reclaim passes forced by allocation exhaustion
  kStaleChunkReads,      // generation-stamp mismatches (reader raced a reuse)
  kEpochAdvances,        // successful global-epoch advances by this team
  kBatchShardsExecuted,  // key-range shards drained by this team
  kBatchShardsStolen,    // shards popped from another team's queue range
  kBatchDescentReuses,   // batch searches that started from a warm cursor
  kBatchFullDescents,    // batch searches that restarted from the head
  kBatchEpochPins,       // per-shard epoch pins (incl. mid-shard refreshes)
  kOpScanAtCount,        // snapshot scans started (scan_at)
  kOpScanAtItems,        // pairs emitted by snapshot scans
  kScanAtRedescents,     // scan_at resumes (stale chunk -> re-descend, no restart)
  kScanAtExpired,        // scan_at calls aborted on an expired snapshot
  kVersionRecordsCreated,  // version records stamped by this team
  kVersionRecordsPruned,   // records unlinked by chain pruning / purges
  kVersionRecordCopies,    // records copied along split/merge key movement
  kForesightHits,        // hint consults whose hinted chunk validated
  kForesightFallbacks,   // hint consults that took the classic descent
                         // (invariant: hits + fallbacks == consults)
  kForesightStaleHints,  // fallbacks where a published hint existed but
                         // failed validation (gen mismatch or zombie)
  kForesightRebuilds,    // hint-table republishes completed by this team
  kCorruptionSealsStamped,      // chunk seals (re)computed at unlock/commit edges
  kCorruptionSealsVerified,     // seal checks that ran against a sealed chunk
  kCorruptionSealMismatches,    // checks that caught damaged data slots
  kCorruptionChunksQuarantined, // damaged chunks zombified + unlinked by scrub
  kCorruptionChunksRepaired,    // damaged chunks rebuilt in place by scrub
  kCorruptionChunksLost,        // quarantines that lost a key range (blast radius)
  kScrubPasses,                 // scrub passes completed
  kScrubChunksScanned,          // sealed chunks visited by scrub passes
  kInstructions,
  kBallots,
  kShfls,
  kDivergentBranches,
  kCounterIdCount,
};

enum HistId : int {
  kInsertWallNs,
  kEraseWallNs,
  kContainsWallNs,
  kScanWallNs,
  kInsertSteps,
  kEraseSteps,
  kContainsSteps,
  kScanSteps,
  kLockHoldStepsHist,
  kBatchShardOps,  // ops per executed shard (batch dispatch granularity)
  kScanAtWallNs,
  kScanAtSteps,
  kVersionChainLen,  // chain length observed at prune points
  kHistIdCount,
};

enum GaugeId : int {
  kHeight,
  kBottomKeys,
  kLiveChunks,
  kZombieChunks,
  kChunksAllocated,
  kChunkOccupancy,  // filled fraction of live chunks' data slots, [0, 1]
  kLimboChunks,     // retired chunks awaiting their grace period
  kFreeChunks,      // recycled chunks on the arena free-list
  kEpochLag,        // global epoch minus the slowest pinned team's epoch
  kActiveSnapshots,     // registered snapshots at report time
  kSnapshotAgeRevs,     // current revision minus the oldest snapshot's
  kVersionRecordsLive,  // version records resident in chunk chains
  kForesightEntries,    // hints in the currently published table
  kForesightDirty,      // dirty events pending since the last publish
  kSealedChunks,        // chunks carrying a valid integrity seal
  kScrubSuspects,       // chunks flagged suspect, awaiting a scrub pass
  kGaugeIdCount,
};

std::string_view counter_name(CounterId id);
std::string_view hist_name(HistId id);
std::string_view gauge_name(GaugeId id);

/// The ids one operation records under, bundled so the scoped
/// instrumentation in simt::Team stays generic over operation kinds.
struct OpIds {
  CounterId count;
  CounterId value;  // succeeded ops (insert/erase/contains) or items (scan)
  HistId wall_ns;
  HistId steps;
  std::uint8_t tag;  // payload for kOpBegin/kOpEnd trace records
};

inline constexpr OpIds kInsertOp{kOpInsertCount, kOpInsertTrue, kInsertWallNs,
                                 kInsertSteps, 0};
inline constexpr OpIds kEraseOp{kOpEraseCount, kOpEraseTrue, kEraseWallNs,
                                kEraseSteps, 1};
inline constexpr OpIds kContainsOp{kOpContainsCount, kOpContainsTrue,
                                   kContainsWallNs, kContainsSteps, 2};
inline constexpr OpIds kScanOp{kOpScanCount, kOpScanItems, kScanWallNs,
                               kScanSteps, 3};
inline constexpr OpIds kScanAtOp{kOpScanAtCount, kOpScanAtItems, kScanAtWallNs,
                                 kScanAtSteps, 4};

std::string_view op_tag_name(std::uint8_t tag);

/// One team's private slice of the registry.  Not thread-safe by design:
/// exactly one team writes a shard during a run; readers merge quiescently.
class MetricsShard {
 public:
  void add(CounterId id, std::uint64_t v = 1) {
    counters_[static_cast<std::size_t>(id)] += v;
  }
  void record(HistId id, std::uint64_t v) {
    hists_[static_cast<std::size_t>(id)].record(v);
  }

  std::uint64_t counter(CounterId id) const {
    return counters_[static_cast<std::size_t>(id)];
  }
  const Histogram& hist(HistId id) const {
    return hists_[static_cast<std::size_t>(id)];
  }

  MetricsShard& operator+=(const MetricsShard& o);

 private:
  std::array<std::uint64_t, kCounterIdCount> counters_{};
  std::array<Histogram, kHistIdCount> hists_{};
};

/// The per-run registry: one shard per worker/team plus quiescent gauges and
/// free-form run metadata.  merged() and write_json() must only be called
/// while no team is recording.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int shards);

  int shards() const { return static_cast<int>(shards_.size()); }
  MetricsShard& shard(int i) { return shards_[static_cast<std::size_t>(i)]; }
  const MetricsShard& shard(int i) const {
    return shards_[static_cast<std::size_t>(i)];
  }

  void set_gauge(GaugeId id, double v) {
    gauges_[static_cast<std::size_t>(id)] = v;
  }
  double gauge(GaugeId id) const {
    return gauges_[static_cast<std::size_t>(id)];
  }

  /// Attach a run-metadata string (structure, mix, range, ...) surfaced in
  /// the report's "info" object.  Last write per key wins.
  void set_info(const std::string& key, const std::string& value);

  /// Fold every shard into one view.
  MetricsShard merged() const;

  /// Stable JSON run report (schema "gfsl-metrics-v1"):
  ///   { "schema": ..., "info": {..}, "counters": {..}, "gauges": {..},
  ///     "histograms": { name: {count, mean, p50, p90, p99, max}, .. } }
  void write_json(std::ostream& os) const;

 private:
  std::vector<MetricsShard> shards_;
  std::array<double, kGaugeIdCount> gauges_{};
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace gfsl::obs
