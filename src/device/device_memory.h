// Instrumented device-memory access layer.
//
// Every global-memory access made by the data structures is routed through
// this layer so the simulator can count *memory transactions* exactly as the
// hardware issues them (§2.2 "Memory Coalescing"): each half-warp's request
// is split into one transaction per 128 B cache line covered.
//
//   * warp_read/warp_write  — a team accessing a contiguous block (a chunk):
//     transactions = number of distinct lines covered.  A 256 B chunk is two
//     transactions; a 128 B chunk is one (§5.2 "Chunk Size").
//   * lane_read/lane_write  — a single diverging lane touching its own node
//     (the M&C access pattern): one transaction per access, every line
//     distinct in the common case.
//   * atomic_rmw            — atomic operations; simultaneous atomics from a
//     warp to one destination serialize (§2.2 "Synchronization").
//
// A team read carries a cache operator (CacheOp): walks that read each chunk
// once per pass load evict-first, as a GPU kernel would with __ldcs.  The
// operator moves only the hit/DRAM split, never a transaction or byte count.
//
// Each transaction is filtered through the simulated L2 to classify it as an
// L2 hit or a DRAM transaction.  Accounting can be disabled for pure
// wall-clock runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "device/cache_sim.h"
#include "device/fault_plane.h"

namespace gfsl::device {

struct MemStats {
  std::uint64_t warp_reads = 0;      // coalesced team reads issued
  std::uint64_t warp_writes = 0;     // coalesced team writes issued
  std::uint64_t lane_reads = 0;      // single-lane (divergent) reads
  std::uint64_t lane_writes = 0;     // single-lane (divergent) writes
  std::uint64_t transactions = 0;    // total memory transactions
  std::uint64_t l2_hits = 0;         // transactions served by L2
  std::uint64_t dram_transactions = 0;  // transactions that went to DRAM
  std::uint64_t atomics = 0;
  std::uint64_t bytes_moved = 0;     // line_bytes per transaction
  std::uint64_t prefetches = 0;      // software prefetches issued (foresight)
  std::uint64_t evict_first = 0;     // transactions loaded evict-first

  std::uint64_t reads() const { return warp_reads + lane_reads; }
  std::uint64_t writes() const { return warp_writes + lane_writes; }

  MemStats& operator+=(const MemStats& o);
  MemStats operator-(const MemStats& o) const;
};

class DeviceMemory {
 public:
  explicit DeviceMemory(const CacheConfig& cfg = CacheConfig{});

  void warp_read(std::uint64_t addr, std::uint32_t bytes,
                 CacheOp op = CacheOp::kNormal) {
    record_contiguous(addr, bytes, &warp_reads_, op);
  }
  void warp_write(std::uint64_t addr, std::uint32_t bytes) {
    if (fault_plane_ != nullptr) fault_plane_->on_traffic();
    record_contiguous(addr, bytes, &warp_writes_);
  }
  void lane_read(std::uint64_t addr, std::uint32_t bytes) {
    record_contiguous(addr, bytes, &lane_reads_);
  }
  void lane_write(std::uint64_t addr, std::uint32_t bytes) {
    if (fault_plane_ != nullptr) fault_plane_->on_traffic();
    record_contiguous(addr, bytes, &lane_writes_);
  }
  void atomic_rmw(std::uint64_t addr);

  /// Software prefetch: pull the covered lines into the simulated L2 ahead
  /// of a predicted demand access (the foresight hint path).  Warms the
  /// cache without counting as demand traffic — only the prefetch counter
  /// moves, so A/B comparisons can attribute the hit-rate shift to it.
  void prefetch(std::uint64_t addr, std::uint32_t bytes);

  void set_accounting(bool on) { accounting_.store(on, std::memory_order_relaxed); }
  bool accounting() const { return accounting_.load(std::memory_order_relaxed); }

  /// Drop simulated cache contents (between kernel launches).
  void flush_cache() { cache_.invalidate_all(); }

  MemStats snapshot() const;
  void reset_stats();

  const CacheSim& cache() const { return cache_; }

  /// Attaches a fault plane: write traffic ticks it so stuck-at cells
  /// re-assert themselves under load.  Null (the default) is the detached
  /// path — one pointer test per store, no behavior change.
  void attach_fault_plane(FaultPlane* plane) { fault_plane_ = plane; }
  FaultPlane* fault_plane() const { return fault_plane_; }

 private:
  void record_contiguous(std::uint64_t addr, std::uint32_t bytes,
                         std::atomic<std::uint64_t>* class_counter,
                         CacheOp op = CacheOp::kNormal);

  CacheSim cache_;
  FaultPlane* fault_plane_ = nullptr;
  std::atomic<bool> accounting_;
  // Relaxed atomics: counters are aggregated, never used for synchronization.
  // They start a cache line of their own, away from the read-mostly words
  // above and from the L2 model's lock line.
  alignas(64) std::atomic<std::uint64_t> warp_reads_{0};
  std::atomic<std::uint64_t> warp_writes_{0};
  std::atomic<std::uint64_t> lane_reads_{0};
  std::atomic<std::uint64_t> lane_writes_{0};
  std::atomic<std::uint64_t> transactions_{0};
  std::atomic<std::uint64_t> l2_hits_{0};
  std::atomic<std::uint64_t> dram_transactions_{0};
  std::atomic<std::uint64_t> atomics_{0};
  std::atomic<std::uint64_t> bytes_moved_{0};
  std::atomic<std::uint64_t> prefetches_{0};
  std::atomic<std::uint64_t> evict_first_{0};
};

}  // namespace gfsl::device
