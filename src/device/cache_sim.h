// Set-associative LRU cache simulator standing in for the GTX 970's L2.
//
// The evaluation's central effect (§5.3) is cache residency: "In the smaller
// range (10K), the entire structure fits into the L2 cache in both
// implementations ... in larger key ranges, M&C requires frequent uncoalesced
// accesses to the global memory that causes a sharp degradation".  We model
// that with the thesis's own L2 geometry: 1.75 MB, 128 B lines (the memory
// transaction granularity from §2.2).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace gfsl::device {

struct CacheConfig {
  std::uint64_t capacity_bytes = 1792ull * 1024;  // 1.75 MB (GTX 970 L2)
  std::uint32_t line_bytes = 128;                 // transaction granularity
  std::uint32_t associativity = 16;
};

/// The cache operator a load carries (PTX ld.global.{ca,cs}).
enum class CacheOp : std::uint8_t {
  /// Ordinary caching: the line becomes its set's most recently used.
  kNormal,
  /// Evict-first (ld.global.cs, CUDA __ldcs), for data read once per pass:
  /// a miss installs the line as its set's next victim, a hit leaves its
  /// recency alone, so a streamed walk holds at most the victim slot of a
  /// set instead of flushing the lines other loads re-read.
  kEvictFirst,
};

class CacheSim {
 public:
  explicit CacheSim(const CacheConfig& cfg = CacheConfig{});

  /// Access one cache line by byte address under operator `op`; returns
  /// true on hit.  A normal access promotes the line, including one an
  /// evict-first load brought in.  Thread-safe (internally locked; a waiter
  /// spins briefly before it blocks): the simulator runs teams on separate
  /// host threads while sharing one modeled L2.
  bool access(std::uint64_t byte_addr, CacheOp op = CacheOp::kNormal);

  /// Drop all cached lines (used between kernel launches).
  void invalidate_all();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return cfg_; }
  std::uint32_t num_sets() const { return num_sets_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t rank = 0;  // eviction rank: a full set evicts its lowest
    bool valid = false;
  };

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::vector<Way> ways_;  // num_sets_ * associativity, row-major by set
  // The lock and the counters it guards fill one cache line of their own
  // (40 + 24 bytes): the holder's updates hit the line its acquisition just
  // pulled in, and nothing read or written outside the lock — the
  // configuration above, DeviceMemory's relaxed counters — can share it.
  // Left to the heap's placement, that sharing came and went between runs
  // and flipped multi-team wall-clock throughput between two modes.
  alignas(64) std::mutex mu_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace gfsl::device
