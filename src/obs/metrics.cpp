#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json_util.h"

namespace gfsl::obs {

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double m = static_cast<double>(sum_) / n;
  // Catastrophic cancellation can push the variance estimate slightly
  // negative for near-constant samples; clamp instead of sqrt(-eps) = NaN.
  const double var = std::max(0.0, sum_sq_ / n - m * m);
  return std::sqrt(var);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // The extremes are tracked exactly; returning them directly also keeps
  // bucket interpolation off the p=0 edge (where `target` would be 0 and the
  // lowest occupied bucket's floor — not the recorded minimum — would leak
  // through).
  if (p == 0.0) return static_cast<double>(min_);
  if (p == 100.0) return static_cast<double>(max_);
  // Nearest-rank target in [1, count], then linear interpolation across the
  // covering bucket's value span.
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= target) {
      // The recorded extremes cap the occupied span.  Clamping `hi` to max_
      // also keeps bucket 64 finite-safe: bucket_hi(64) == UINT64_MAX rounds
      // UP to 2^64 as a double, so interpolating against it could return a
      // value no uint64_t can hold; max_ is the largest value actually seen.
      const double lo = std::max(static_cast<double>(bucket_lo(b)),
                                 static_cast<double>(min_));
      const double hi = std::min(static_cast<double>(bucket_hi(b)),
                                 static_cast<double>(max_));
      if (hi <= lo) return lo;
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(n);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += n;
  }
  return static_cast<double>(max_);
}

Histogram& Histogram::operator+=(const Histogram& o) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        o.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += o.count_;
  sum_ += o.sum_;
  sum_sq_ += o.sum_sq_;
  max_ = std::max(max_, o.max_);
  min_ = std::min(min_, o.min_);
  return *this;
}

std::string_view counter_name(CounterId id) {
  switch (id) {
    case kOpInsertCount: return "insert_count";
    case kOpInsertTrue: return "insert_true";
    case kOpEraseCount: return "erase_count";
    case kOpEraseTrue: return "erase_true";
    case kOpContainsCount: return "contains_count";
    case kOpContainsTrue: return "contains_true";
    case kOpScanCount: return "scan_count";
    case kOpScanItems: return "scan_items";
    case kLockAcquires: return "lock_acquires";
    case kLockSpins: return "lock_spins";
    case kLockHoldSteps: return "lock_hold_steps";
    case kZombieEncounters: return "zombie_encounters";
    case kRestarts: return "restarts";
    case kUpperLateralReads: return "upper_lateral_reads";
    case kLeaseExpiries: return "lease_expiries";
    case kLockSteals: return "lock_steals";
    case kRecoveryRollForward: return "recovery_roll_forward";
    case kRecoveryRollBack: return "recovery_roll_back";
    case kBackoffRounds: return "backoff_rounds";
    case kBackoffSpinIters: return "backoff_spin_iters";
    case kLockRetraversals: return "lock_retraversals";
    case kChunkRetires: return "chunk_retires";
    case kChunkReclaims: return "chunk_reclaims";
    case kChunkRequeues: return "chunk_requeues";
    case kDownPtrScrubs: return "down_ptr_scrubs";
    case kEmergencyReclaims: return "emergency_reclaims";
    case kStaleChunkReads: return "stale_chunk_reads";
    case kEpochAdvances: return "epoch_advances";
    case kBatchShardsExecuted: return "batch_shards_executed";
    case kBatchShardsStolen: return "batch_shards_stolen";
    case kBatchDescentReuses: return "batch_descent_reuses";
    case kBatchFullDescents: return "batch_full_descents";
    case kBatchEpochPins: return "batch_epoch_pins";
    case kOpScanAtCount: return "scan_at_count";
    case kOpScanAtItems: return "scan_at_items";
    case kScanAtRedescents: return "scan_at_redescents";
    case kScanAtExpired: return "scan_at_expired";
    case kVersionRecordsCreated: return "version_records_created";
    case kVersionRecordsPruned: return "version_records_pruned";
    case kVersionRecordCopies: return "version_record_copies";
    case kForesightHits: return "foresight_hits";
    case kForesightFallbacks: return "foresight_fallbacks";
    case kForesightStaleHints: return "foresight_stale_hints";
    case kForesightRebuilds: return "foresight_rebuilds";
    case kCorruptionSealsStamped: return "corruption_seals_stamped";
    case kCorruptionSealsVerified: return "corruption_seals_verified";
    case kCorruptionSealMismatches: return "corruption_seal_mismatches";
    case kCorruptionChunksQuarantined: return "corruption_chunks_quarantined";
    case kCorruptionChunksRepaired: return "corruption_chunks_repaired";
    case kCorruptionChunksLost: return "corruption_chunks_lost";
    case kScrubPasses: return "scrub_passes";
    case kScrubChunksScanned: return "scrub_chunks_scanned";
    case kInstructions: return "instructions";
    case kBallots: return "ballots";
    case kShfls: return "shfls";
    case kDivergentBranches: return "divergent_branches";
    case kCounterIdCount: break;
  }
  return "unknown";
}

std::string_view hist_name(HistId id) {
  switch (id) {
    case kInsertWallNs: return "insert_wall_ns";
    case kEraseWallNs: return "erase_wall_ns";
    case kContainsWallNs: return "contains_wall_ns";
    case kScanWallNs: return "scan_wall_ns";
    case kInsertSteps: return "insert_steps";
    case kEraseSteps: return "erase_steps";
    case kContainsSteps: return "contains_steps";
    case kScanSteps: return "scan_steps";
    case kLockHoldStepsHist: return "lock_hold_steps";
    case kBatchShardOps: return "batch_shard_ops";
    case kScanAtWallNs: return "scan_at_wall_ns";
    case kScanAtSteps: return "scan_at_steps";
    case kVersionChainLen: return "version_chain_len";
    case kHistIdCount: break;
  }
  return "unknown";
}

std::string_view gauge_name(GaugeId id) {
  switch (id) {
    case kHeight: return "height";
    case kBottomKeys: return "bottom_keys";
    case kLiveChunks: return "live_chunks";
    case kZombieChunks: return "zombie_chunks";
    case kChunksAllocated: return "chunks_allocated";
    case kChunkOccupancy: return "chunk_occupancy";
    case kLimboChunks: return "limbo_chunks";
    case kFreeChunks: return "free_chunks";
    case kEpochLag: return "epoch_lag";
    case kActiveSnapshots: return "active_snapshots";
    case kSnapshotAgeRevs: return "snapshot_age_revs";
    case kVersionRecordsLive: return "version_records_live";
    case kForesightEntries: return "foresight_entries";
    case kForesightDirty: return "foresight_dirty";
    case kSealedChunks: return "sealed_chunks";
    case kScrubSuspects: return "scrub_suspects";
    case kGaugeIdCount: break;
  }
  return "unknown";
}

std::string_view op_tag_name(std::uint8_t tag) {
  switch (tag) {
    case 0: return "insert";
    case 1: return "erase";
    case 2: return "contains";
    case 3: return "scan";
    case 4: return "scan_at";
    default: return "op";
  }
}

MetricsShard& MetricsShard::operator+=(const MetricsShard& o) {
  for (int i = 0; i < kCounterIdCount; ++i) {
    counters_[static_cast<std::size_t>(i)] +=
        o.counters_[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < kHistIdCount; ++i) {
    hists_[static_cast<std::size_t>(i)] +=
        o.hists_[static_cast<std::size_t>(i)];
  }
  return *this;
}

MetricsRegistry::MetricsRegistry(int shards)
    : shards_(static_cast<std::size_t>(shards < 1 ? 1 : shards)) {}

void MetricsRegistry::set_info(const std::string& key,
                               const std::string& value) {
  for (auto& [k, v] : info_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  info_.emplace_back(key, value);
}

MetricsShard MetricsRegistry::merged() const {
  MetricsShard all;
  for (const auto& s : shards_) all += s;
  return all;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const MetricsShard all = merged();
  os << "{\n  \"schema\": \"gfsl-metrics-v1\",\n  \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    json_string(os, info_[i].first);
    os << ": ";
    json_string(os, info_[i].second);
  }
  os << (info_.empty() ? "" : "\n  ") << "},\n  \"counters\": {";
  for (int i = 0; i < kCounterIdCount; ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    json_string(os, counter_name(static_cast<CounterId>(i)));
    os << ": " << all.counter(static_cast<CounterId>(i));
  }
  os << "\n  },\n  \"gauges\": {";
  for (int i = 0; i < kGaugeIdCount; ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    json_string(os, gauge_name(static_cast<GaugeId>(i)));
    os << ": ";
    json_number(os, gauges_[static_cast<std::size_t>(i)]);
  }
  os << "\n  },\n  \"histograms\": {";
  for (int i = 0; i < kHistIdCount; ++i) {
    const Histogram& h = all.hist(static_cast<HistId>(i));
    os << (i == 0 ? "\n    " : ",\n    ");
    json_string(os, hist_name(static_cast<HistId>(i)));
    os << ": {\"count\": " << h.count() << ", \"mean\": ";
    json_number(os, h.mean());
    os << ", \"stddev\": ";
    json_number(os, h.stddev());
    os << ", \"p50\": ";
    json_number(os, h.percentile(50.0));
    os << ", \"p90\": ";
    json_number(os, h.percentile(90.0));
    os << ", \"p99\": ";
    json_number(os, h.percentile(99.0));
    os << ", \"min\": " << h.min() << ", \"max\": " << h.max() << "}";
  }
  os << "\n  }\n}\n";
}

}  // namespace gfsl::obs
