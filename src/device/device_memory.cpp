#include "device/device_memory.h"

namespace gfsl::device {

MemStats& MemStats::operator+=(const MemStats& o) {
  warp_reads += o.warp_reads;
  warp_writes += o.warp_writes;
  lane_reads += o.lane_reads;
  lane_writes += o.lane_writes;
  transactions += o.transactions;
  l2_hits += o.l2_hits;
  dram_transactions += o.dram_transactions;
  atomics += o.atomics;
  bytes_moved += o.bytes_moved;
  prefetches += o.prefetches;
  evict_first += o.evict_first;
  return *this;
}

MemStats MemStats::operator-(const MemStats& o) const {
  MemStats r = *this;
  r.warp_reads -= o.warp_reads;
  r.warp_writes -= o.warp_writes;
  r.lane_reads -= o.lane_reads;
  r.lane_writes -= o.lane_writes;
  r.transactions -= o.transactions;
  r.l2_hits -= o.l2_hits;
  r.dram_transactions -= o.dram_transactions;
  r.atomics -= o.atomics;
  r.bytes_moved -= o.bytes_moved;
  r.prefetches -= o.prefetches;
  r.evict_first -= o.evict_first;
  return r;
}

DeviceMemory::DeviceMemory(const CacheConfig& cfg)
    : cache_(cfg), accounting_(true) {}

void DeviceMemory::record_contiguous(std::uint64_t addr, std::uint32_t bytes,
                                     std::atomic<std::uint64_t>* class_counter,
                                     CacheOp op) {
  if (!accounting()) return;
  const std::uint32_t line = cache_.config().line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + bytes - 1) / line;

  class_counter->fetch_add(1, std::memory_order_relaxed);
  if (op == CacheOp::kEvictFirst) {
    evict_first_.fetch_add(last - first + 1, std::memory_order_relaxed);
  }
  for (std::uint64_t l = first; l <= last; ++l) {
    transactions_.fetch_add(1, std::memory_order_relaxed);
    bytes_moved_.fetch_add(line, std::memory_order_relaxed);
    if (cache_.access(l * line, op)) {
      l2_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      dram_transactions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void DeviceMemory::atomic_rmw(std::uint64_t addr) {
  if (!accounting()) return;
  atomics_.fetch_add(1, std::memory_order_relaxed);
  // An atomic still moves its line through L2 (atomics resolve in L2 on
  // Maxwell); classify it like a one-line transaction.
  const std::uint32_t line = cache_.config().line_bytes;
  transactions_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(line, std::memory_order_relaxed);
  if (cache_.access((addr / line) * line)) {
    l2_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dram_transactions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DeviceMemory::prefetch(std::uint64_t addr, std::uint32_t bytes) {
  if (!accounting()) return;
  prefetches_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t line = cache_.config().line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + bytes - 1) / line;
  for (std::uint64_t l = first; l <= last; ++l) {
    // Touch the line through the L2 model so the demand read that follows
    // classifies as a hit; no transaction or byte accounting — a prefetch
    // rides otherwise-idle bandwidth in the modeled machine.
    cache_.access(l * line);
  }
}

MemStats DeviceMemory::snapshot() const {
  MemStats s;
  s.warp_reads = warp_reads_.load(std::memory_order_relaxed);
  s.warp_writes = warp_writes_.load(std::memory_order_relaxed);
  s.lane_reads = lane_reads_.load(std::memory_order_relaxed);
  s.lane_writes = lane_writes_.load(std::memory_order_relaxed);
  s.transactions = transactions_.load(std::memory_order_relaxed);
  s.l2_hits = l2_hits_.load(std::memory_order_relaxed);
  s.dram_transactions = dram_transactions_.load(std::memory_order_relaxed);
  s.atomics = atomics_.load(std::memory_order_relaxed);
  s.bytes_moved = bytes_moved_.load(std::memory_order_relaxed);
  s.prefetches = prefetches_.load(std::memory_order_relaxed);
  s.evict_first = evict_first_.load(std::memory_order_relaxed);
  return s;
}

void DeviceMemory::reset_stats() {
  warp_reads_.store(0, std::memory_order_relaxed);
  warp_writes_.store(0, std::memory_order_relaxed);
  lane_reads_.store(0, std::memory_order_relaxed);
  lane_writes_.store(0, std::memory_order_relaxed);
  transactions_.store(0, std::memory_order_relaxed);
  l2_hits_.store(0, std::memory_order_relaxed);
  dram_transactions_.store(0, std::memory_order_relaxed);
  atomics_.store(0, std::memory_order_relaxed);
  bytes_moved_.store(0, std::memory_order_relaxed);
  prefetches_.store(0, std::memory_order_relaxed);
  evict_first_.store(0, std::memory_order_relaxed);
}

}  // namespace gfsl::device
