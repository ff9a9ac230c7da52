// Foresight hint index (DESIGN.md §14).
//
// A flat, sorted table of sampled (lo_key -> bottom-chunk {ref, gen}) hints
// that lets the per-op lookups (contains/find) jump straight to a chunk
// at-or-left of their key's bottom-level enclosing chunk instead of
// descending from the head (grounding: "Skiplists with Foresight: Skipping
// Cache Misses", PAPERS.md).  Updates never consult it: their commit halves
// need the per-level path only the classic descent records.
//
// Hint semantics.  Each hint records an *exclusive* lower coverage bound:
// the sampled chunk was, at publication time, the enclosing chunk for every
// key in (lo, its max].  A lookup for k returns the hint with the greatest
// lo < k.  By the batch-cursor coverage argument (core/batch.cpp header):
// chunk coverage only ever extends leftward and keys only migrate rightward,
// so a chunk that once enclosed some key k' <= k stays at-or-left of the
// chunk enclosing k for as long as it lives.  Starting a lateral bottom walk
// there is therefore always correct — *provided the chunk still lives*.
//
// Staleness protocol (the ABA shape DESIGN.md §9 guards against).  A hinted
// ref may have been merged away (zombie) or recycled and reused since
// publication.  The published generation stamp makes the recycle detectable
// (Gfsl::read_chunk_checked against the stored gen), and the *first
// validated read must additionally be non-zombie*: a gen-consistent live
// chunk was never unlinked, so the caller's epoch pin protects it and every
// ref subsequently extracted from it is classic-safe.  A gen-consistent
// zombie is NOT usable — its frozen next pointers may name chunks recycled
// before the caller's pin was taken.  Any failed validation falls back to
// the classic head descent; a stale hint can cost a restart, never a wrong
// answer.
//
// Publication protocol.  Double-buffered tables under a seqlock version
// word: readers run entirely on the active table (atomic relaxed element
// loads, version re-check after the search), a single claimed rebuilder
// fills the inactive table and flips version odd -> swap -> even with plain
// release stores.  Two builders publish, both through one Sampler: the
// quiescent layout of compact / bulk_load samples the chunks it has just
// written, and the lazy walk samples the live bottom level.  The version
// starts odd (nothing published), is driven odd by invalidate_all() (every
// rebuild of the pool, and recover, which publishes nothing), and stays odd
// if a walk is abandoned — a scheduler kill inside a rebuild leaves every
// lookup missing (fallback) until the next successful publish, which is
// exactly the safe direction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "device/zeroed.h"

namespace gfsl::core {

class ForesightIndex {
 public:
  /// One published hint: the chunk that enclosed (lo, ...] at publication,
  /// with the generation stamp it carried then.
  struct Hint {
    Key lo = KEY_NEG_INF;  // exclusive lower coverage bound at publication
    ChunkRef ref = NULL_CHUNK;
    std::uint32_t gen = 0;
  };

  /// The sampling rule every table builder applies.  Builders offer the
  /// bottom level's live chunks left to right, head first, each with the
  /// exclusive lower bound it covers (its predecessor's max); every
  /// stride-th offer is kept.  A kept chunk whose bound equals the previous
  /// kept one's replaces it, since the rightmost is still at-or-left for
  /// every key above that bound (the head's max is -inf once a data chunk
  /// follows it, so the first data chunk shares the head's bound).
  ///
  /// A builder may split the offers into consecutive runs, one Sampler
  /// each, started at its run's first offer position; appending the later
  /// runs' samplers in order gives the table one Sampler fed every offer
  /// would have kept.
  class Sampler {
   public:
    /// `chunks` bounds the number of offers this sampler and the ones
    /// appended to it take (it sizes the table once); `first_offer` is the
    /// position of its first offer in the whole sequence.
    Sampler(const ForesightIndex& index, std::size_t chunks,
            std::size_t first_offer = 0);
    void offer(Key lo, ChunkRef ref, std::uint32_t gen);
    /// Keep what `later`, fed the offers right after this one's, kept.
    void append(const Sampler& later);
    const std::vector<Hint>& hints() const { return hints_; }

   private:
    void keep(const Hint& h);

    std::uint32_t stride_;
    std::uint32_t skip_;  // offers to pass over before the next kept one
    std::vector<Hint> hints_;
  };

  /// `pool_chunks` bounds the table size (one hint per `stride` bottom
  /// chunks); `rebuild_threshold` is the dirty-event count past which the
  /// next operation republishes the table.
  explicit ForesightIndex(std::uint32_t pool_chunks, std::uint32_t stride = 2,
                          std::uint64_t rebuild_threshold = 256);

  ForesightIndex(const ForesightIndex&) = delete;
  ForesightIndex& operator=(const ForesightIndex&) = delete;

  // --- reader path -----------------------------------------------------------

  /// Hint with the greatest lo < k from the currently published table.
  /// False when nothing is published, no hint covers k, or the seqlock
  /// re-check caught a concurrent publish.  The caller MUST validate the
  /// returned ref (generation + non-zombie first read) before trusting it.
  bool lookup(Key k, ChunkRef* ref, std::uint32_t* gen) const;

  // --- event marking ---------------------------------------------------------

  /// A bottom-level structural event (split publish, merge zombify, chunk
  /// recycle) that erodes hint precision.  Lock-free, any thread.
  void mark_dirty() { dirty_.fetch_add(1, std::memory_order_relaxed); }

  /// Quiescent structural replacement (compact / bulk_load / recover): every
  /// published hint is garbage.  Drives the version odd so all lookups miss
  /// until the next publish (a rebuild's own, or the lazy walk's).
  void invalidate_all();

  /// True when the next operation should rebuild: nothing is published (or
  /// an invalidate/abandoned rebuild unpublished it) or enough dirty events
  /// accumulated.
  bool rebuild_due() const {
    return (version_.load(std::memory_order_relaxed) & 1) != 0 ||
           dirty_.load(std::memory_order_relaxed) >= threshold_;
  }

  // --- single-writer rebuild protocol ---------------------------------------

  /// Try to become the rebuilder.  The claim must be released (normally or
  /// during unwind — use an RAII guard) so a killed rebuilder does not
  /// disable rebuilds forever.  Takes the dirty watermark the publish will
  /// consume.
  bool claim_rebuild();
  void release_rebuild() { rebuilding_.store(false, std::memory_order_release); }

  /// Publish `hints` (a Sampler's output: ascending lo, duplicates
  /// collapsed) as the new active table.  Only the claimed rebuilder may
  /// call this; the old table keeps serving readers until the atomic swap.
  void publish(const std::vector<Hint>& hints);

  // --- introspection ---------------------------------------------------------

  std::uint32_t stride() const { return stride_; }
  std::size_t entries() const {
    return counts_[cur_.load(std::memory_order_acquire)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t dirty_pending() const {
    return dirty_.load(std::memory_order_relaxed);
  }
  std::uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  std::uint32_t cap_;
  std::uint32_t stride_;
  std::uint64_t threshold_;

  // Double-buffered hint storage.  Element i of table t packs (lo, ref) in
  // one KV word with the gen in a parallel array; both are plain atomics so
  // a reader racing a (double) publish sees defined values that the version
  // re-check then discards — no data race, seqlock discipline.  Both are
  // sized for the whole pool but only read below their count, so they sit
  // in zero-filled mappings: construction touches none of them, and a
  // publish faults in only the pages its hints fill.
  device::ZeroedArray<std::atomic<KV>> slots_[2];
  device::ZeroedArray<std::atomic<std::uint32_t>> gens_[2];
  std::atomic<std::size_t> counts_[2];
  std::atomic<std::size_t> cur_{0};

  /// Seqlock: odd = nothing published / publish in flight; even = the table
  /// named by cur_ is consistent.  Starts odd (empty).
  std::atomic<std::uint64_t> version_{1};

  std::atomic<bool> rebuilding_{false};
  std::uint64_t claim_watermark_ = 0;  // dirty count captured at claim time

  std::atomic<std::uint64_t> dirty_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
};

}  // namespace gfsl::core
