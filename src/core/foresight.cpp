// Foresight hint index (DESIGN.md §14): the table itself plus the Gfsl
// integration — hinted operation starts and the lazy, epoch-pinned rebuild.
// The quiescent rebuild's publish lives with the layout (compact.cpp).
#include "core/foresight.h"

#include "core/gfsl.h"

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

ForesightIndex::ForesightIndex(std::uint32_t pool_chunks, std::uint32_t stride,
                               std::uint64_t rebuild_threshold)
    : cap_(pool_chunks / (stride == 0 ? 1 : stride) + 2),
      stride_(stride == 0 ? 1 : stride),
      threshold_(rebuild_threshold == 0 ? 1 : rebuild_threshold) {
  for (int t = 0; t < 2; ++t) {
    slots_[t] = device::map_zeroed<std::atomic<KV>>(cap_);
    gens_[t] = device::map_zeroed<std::atomic<std::uint32_t>>(cap_);
    counts_[t].store(0, std::memory_order_relaxed);
  }
}

ForesightIndex::Sampler::Sampler(const ForesightIndex& index,
                                 std::size_t chunks, std::size_t first_offer)
    : stride_(index.stride()),
      skip_(static_cast<std::uint32_t>((stride_ - first_offer % stride_) %
                                       stride_)) {
  hints_.reserve(chunks / stride_ + 2);
}

void ForesightIndex::Sampler::offer(Key lo, ChunkRef ref, std::uint32_t gen) {
  if (skip_ != 0) {
    --skip_;
    return;
  }
  skip_ = stride_ - 1;
  keep({lo, ref, gen});
}

void ForesightIndex::Sampler::append(const Sampler& later) {
  for (const Hint& h : later.hints_) keep(h);
}

void ForesightIndex::Sampler::keep(const Hint& h) {
  if (!hints_.empty() && hints_.back().lo == h.lo) {
    hints_.back() = h;
  } else {
    hints_.push_back(h);
  }
}

bool ForesightIndex::lookup(Key k, ChunkRef* ref, std::uint32_t* gen) const {
  const std::uint64_t v1 = version_.load(std::memory_order_acquire);
  if ((v1 & 1) != 0) return false;
  const std::size_t t = cur_.load(std::memory_order_relaxed);
  const std::size_t n = counts_[t].load(std::memory_order_relaxed);
  if (n == 0) return false;
  // Binary search for the first hint with lo >= k; the answer is the one
  // before it (greatest lo < k).  Element loads are relaxed: a concurrent
  // double-publish could be rewriting this table, but then the version
  // re-check below fails and the garbage search result is discarded.
  const std::atomic<KV>* s = slots_[t].get();
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (kv_key(s[mid].load(std::memory_order_relaxed)) < k) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;  // every published lo is >= k
  const KV h = s[lo - 1].load(std::memory_order_relaxed);
  const std::uint32_t g = gens_[t][lo - 1].load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (version_.load(std::memory_order_relaxed) != v1) return false;
  *ref = static_cast<ChunkRef>(kv_value(h));
  *gen = g;
  return true;
}

void ForesightIndex::invalidate_all() {
  std::uint64_t v = version_.load(std::memory_order_relaxed);
  while ((v & 1) == 0 &&
         !version_.compare_exchange_weak(v, v + 1, std::memory_order_release,
                                         std::memory_order_relaxed)) {
  }
}

bool ForesightIndex::claim_rebuild() {
  bool expected = false;
  if (!rebuilding_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
    return false;
  }
  claim_watermark_ = dirty_.load(std::memory_order_relaxed);
  return true;
}

void ForesightIndex::publish(const std::vector<Hint>& hints) {
  const std::size_t t = 1 - cur_.load(std::memory_order_relaxed);
  const std::size_t n = hints.size() < cap_ ? hints.size() : cap_;
  for (std::size_t i = 0; i < n; ++i) {
    slots_[t][i].store(make_kv(hints[i].lo, static_cast<Value>(hints[i].ref)),
                       std::memory_order_relaxed);
    gens_[t][i].store(hints[i].gen, std::memory_order_relaxed);
  }
  counts_[t].store(n, std::memory_order_relaxed);
  // Flip odd -> swap -> even.  Readers that sampled the old even version
  // keep running on the old table (untouched by the writes above) and pass
  // their re-check; anyone straddling the swap misses and falls back.
  std::uint64_t v = version_.load(std::memory_order_relaxed);
  if ((v & 1) == 0) {
    version_.store(v + 1, std::memory_order_release);
    v = v + 1;
  }
  cur_.store(t, std::memory_order_release);
  version_.store(v + 1, std::memory_order_release);
  // Consume the dirty events the walk could have observed; events marked
  // mid-walk survive and count toward the next rebuild.
  dirty_.fetch_sub(claim_watermark_, std::memory_order_relaxed);
  claim_watermark_ = 0;
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
}

// --- Gfsl integration --------------------------------------------------------

bool Gfsl::foresight_start(Team& team, Key k, Guarded* out) {
  if (foresight_ == nullptr) return false;
  foresight_maybe_rebuild(team);
  ChunkRef ref = NULL_CHUNK;
  std::uint32_t gen = 0;
  if (!foresight_->lookup(k, &ref, &gen)) {
    team.metric(obs::kForesightFallbacks);
    return false;
  }
  // Software prefetch of the predicted chunk: warms the L2 lines ahead of
  // the demand read below without counting as demand traffic.
  mem_->prefetch(arena_.device_address(ref), arena_.chunk_bytes());
  // Validate under the caller's epoch pin: the read must be generation-
  // consistent with the published stamp AND non-zombie.  A gen-consistent
  // live chunk was never unlinked, so the pin protects it and every ref
  // extracted from it onward is classic-safe.  A zombie — even one whose
  // stamp still matches — is unusable: its frozen next pointers may name
  // chunks recycled before this pin existed (the §9 ABA shape).
  Guarded g{ref, gen};
  bool stale = false;
  const LaneVec<KV> kv = read_chunk_checked(team, g, &stale);
  if (stale || is_zombie(team, kv)) {
    team.metric(obs::kForesightStaleHints);
    team.metric(obs::kForesightFallbacks);
    return false;
  }
  team.metric(obs::kForesightHits);
  *out = g;
  return true;
}

void Gfsl::foresight_prime(Team& team) {
  // compact / bulk_load leave their own table published: nothing is due.
  if (foresight_ == nullptr || !foresight_->rebuild_due()) return;
  // Quiescent warm-up of a structure built by operations (the version
  // starts odd): run the lazy rebuild now instead of letting the first
  // measured operation pay the bottom-level walk while its peers fall back
  // to classic descents against an unpublished table.
  EpochScope epoch(*this, team);
  foresight_maybe_rebuild(team);
  epoch.exit();
}

void Gfsl::foresight_maybe_rebuild(Team& team) {
  if (!foresight_->rebuild_due() || !foresight_->claim_rebuild()) return;
  // The claim is released even when a scheduler kill unwinds the walk (the
  // yield points inside read_chunk throw TeamKilled): the version simply
  // stays odd — every lookup misses — until a later rebuild succeeds.
  struct ClaimGuard {
    ForesightIndex* f;
    ~ClaimGuard() { f->release_rebuild(); }
  } guard{foresight_};

  // Walk the bottom level left to right under the caller's epoch pin,
  // offering every live chunk to the sampler.  Every ref is acquired from a
  // validated read (or the head), so the walk is as safe as any lateral
  // traversal; any staleness abandons the rebuild — the next operation
  // retries.
  ForesightIndex::Sampler sample(*foresight_, arena_.high_water());
  Key lo = KEY_NEG_INF;
  std::uint64_t visited = 0;
  Guarded cur = guard_ref(head_of(team, 0));
  while (cur.ref != NULL_CHUNK) {
    if (++visited > static_cast<std::uint64_t>(arena_.capacity()) + 1) return;
    // Every bottom chunk once per rebuild: evict-first, so the walk does
    // not flush the chunks the operations around it re-read.
    bool stale = false;
    const LaneVec<KV> kv =
        read_chunk_checked(team, cur, &stale, device::CacheOp::kEvictFirst);
    if (stale) return;  // abandoned; version stays odd, all lookups miss
    const Key mx = max_of(team, kv);
    const ChunkRef nxt = next_of(team, kv);
    if (!is_zombie(team, kv)) sample.offer(lo, cur.ref, cur.gen);
    lo = mx;
    if (mx == KEY_INF || nxt == NULL_CHUNK) break;
    cur = guard_ref(nxt);
  }
  foresight_->publish(sample.hints());
  team.metric(obs::kForesightRebuilds);
}

}  // namespace gfsl::core
