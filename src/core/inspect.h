// White-box quiescent inspection shared by validate/shape/debug code.
// GfslInspector is a friend of Gfsl; everything here reads the structure
// host-side and must only run while no team is operating.
#pragma once

#include <vector>

#include "core/gfsl.h"

namespace gfsl::core {

/// Visit the chain starting at `head` in place, calling fn(ref) once per
/// chunk (zombies included) without copying anything.  Stops at a ref
/// outside the pool or at the first revisited chunk; returns true in the
/// latter case (the chain cycles).
template <typename Fn>
bool walk_chain(const ChunkArena& arena, ChunkRef head, Fn&& fn) {
  std::vector<bool> seen(arena.capacity());
  for (ChunkRef cur = head; cur != NULL_CHUNK && cur < arena.capacity();) {
    if (seen[cur]) return true;
    seen[cur] = true;
    fn(cur);
    cur = next_entry_ref(
        arena.entries(cur)[arena.next_slot()].load(std::memory_order_acquire));
  }
  return false;
}

struct ChunkView {
  ChunkRef ref;
  std::vector<KV> data;  // non-empty data entries, in slot order
  Key max;
  ChunkRef next;
  LockState lock;
};

class GfslInspector {
 public:
  explicit GfslInspector(const Gfsl& g) : g_(g) {}

  ChunkView view(ChunkRef ref) const {
    const auto& arena = g_.arena_;
    ChunkView v;
    v.ref = ref;
    const std::atomic<KV>* e = arena.entries(ref);
    for (int i = 0; i < arena.dsize(); ++i) {
      const KV kv = e[i].load(std::memory_order_acquire);
      if (!kv_is_empty(kv)) v.data.push_back(kv);
    }
    const KV nx = e[arena.next_slot()].load(std::memory_order_acquire);
    v.max = next_entry_max(nx);
    v.next = next_entry_ref(nx);
    v.lock = lock_entry_state(
        e[arena.lock_slot()].load(std::memory_order_acquire));
    return v;
  }

  /// All chunks in a level's chain (zombies included), bounded against
  /// cycles.
  std::vector<ChunkView> level_chain(int level, bool* cycle) const {
    std::vector<ChunkView> out;
    const bool cyc = walk_chain(
        g_.arena_,
        g_.head_[static_cast<std::size_t>(level)].load(
            std::memory_order_acquire),
        [&](ChunkRef ref) { out.push_back(view(ref)); });
    if (cycle != nullptr) *cycle = cyc;
    return out;
  }

  /// A level's head word, writable for white-box tests that forge damage.
  std::atomic<ChunkRef>& head(int level) const {
    return g_.head_[static_cast<std::size_t>(level)];
  }

  const Gfsl& g_;
};

}  // namespace gfsl::core
