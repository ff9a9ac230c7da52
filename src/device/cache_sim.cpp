#include "device/cache_sim.h"

#include <bit>
#include <stdexcept>

namespace gfsl::device {

namespace {

// Try-lock rounds access() spins before it blocks on the lock.  The critical
// section is one 16-way tag scan, far shorter than a futex sleep and wake: a
// team that blocks waits until the host resumes its halted CPU, so with
// teams on separate threads, throughput followed the host's load from run to
// run.  Past the bound (a descheduled holder, more teams than cores) the
// waiter blocks as before.
constexpr int kLockSpins = 256;

// Eviction ranks.  A normal access ranks its line kNormalRank + tick, so
// normal lines age among themselves exactly as plain LRU.  An evict-first
// miss ranks its line kNormalRank - tick: below every normal line and every
// earlier streamed line in its set, so the line just installed is the set's
// next victim.
constexpr std::uint64_t kNormalRank = std::uint64_t{1} << 63;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

CacheSim::CacheSim(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.line_bytes == 0 || (cfg_.line_bytes & (cfg_.line_bytes - 1)) != 0) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (cfg_.associativity == 0) {
    throw std::invalid_argument("associativity must be positive");
  }
  const std::uint64_t lines = cfg_.capacity_bytes / cfg_.line_bytes;
  num_sets_ = static_cast<std::uint32_t>(lines / cfg_.associativity);
  if (num_sets_ == 0) num_sets_ = 1;
  ways_.assign(static_cast<std::size_t>(num_sets_) * cfg_.associativity, Way{});
}

bool CacheSim::access(std::uint64_t byte_addr, CacheOp op) {
  const std::uint64_t line = byte_addr / cfg_.line_bytes;
  const std::uint32_t set = static_cast<std::uint32_t>(line % num_sets_);
  const std::uint64_t tag = line / num_sets_;

  std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
  for (int i = 0; !lk.owns_lock() && i < kLockSpins; ++i) {
    cpu_relax();
    lk.try_lock();
  }
  if (!lk.owns_lock()) lk.lock();
  ++tick_;
  const std::uint64_t rank =
      op == CacheOp::kNormal ? kNormalRank + tick_ : kNormalRank - tick_;
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.associativity];

  Way* victim = base;
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      if (op == CacheOp::kNormal) way.rank = rank;
      ++hits_;
      return true;
    }
    if (!way.valid) {
      victim = &way;  // prefer an empty way over evicting
    } else if (victim->valid && way.rank < victim->rank) {
      victim = &way;
    }
  }

  victim->valid = true;
  victim->tag = tag;
  victim->rank = rank;
  ++misses_;
  return false;
}

void CacheSim::invalidate_all() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& w : ways_) w.valid = false;
}

}  // namespace gfsl::device
