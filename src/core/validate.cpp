// Quiescent structural validation and inspection.  These walk the structure
// host-side (no team, no accounting) and check the invariants Chapter 4.3
// argues for.  They must only run while no team is operating.
//
// Both collect() and validate() read chunks in place and keep per-chunk
// bookkeeping in flat pool-indexed arrays, never per-key node containers:
// they run on multi-million-key structures next to the caller's own oracle,
// so their footprint is part of what a verification pass costs.
#include "core/gfsl.h"

#include <ostream>

#include "core/inspect.h"

namespace gfsl::core {

namespace {

LockState lock_of(const std::atomic<KV>* e, const ChunkArena& arena) {
  return lock_entry_state(
      e[arena.lock_slot()].load(std::memory_order_acquire));
}

// fn(kv) for every user entry of the live chunks on the bottom chain.
template <typename Fn>
void for_each_bottom_entry(const ChunkArena& arena, ChunkRef head, Fn&& fn) {
  walk_chain(arena, head, [&](ChunkRef ref) {
    const std::atomic<KV>* e = arena.entries(ref);
    if (lock_of(e, arena) == kZombie) return;
    for (int i = 0; i < arena.dsize(); ++i) {
      const KV kv = e[i].load(std::memory_order_acquire);
      if (!kv_is_empty(kv) && kv_key(kv) != KEY_NEG_INF) fn(kv);
    }
  });
}

// Ascending cursor over one level's live keys.  Only meaningful once that
// level passed validate()'s ordering checks (keys strictly ascending along
// the chain); queries must then come in ascending order too, which makes
// "is k in this level" a merge-join instead of a per-key set.
class LevelKeys {
 public:
  LevelKeys(const ChunkArena& arena, ChunkRef head)
      : arena_(arena), ref_(head) {}

  bool contains(Key k) {
    while (ref_ != NULL_CHUNK) {
      const std::atomic<KV>* e = arena_.entries(ref_);
      if (lock_of(e, arena_) != kZombie) {
        for (; slot_ < arena_.dsize(); ++slot_) {
          const Key key = kv_key(e[slot_].load(std::memory_order_acquire));
          if (key == KEY_NEG_INF || key == KEY_INF) continue;
          if (key >= k) return key == k;
        }
      }
      ref_ = next_entry_ref(
          e[arena_.next_slot()].load(std::memory_order_acquire));
      slot_ = 0;
    }
    return false;
  }

 private:
  const ChunkArena& arena_;
  ChunkRef ref_;
  int slot_ = 0;
};

}  // namespace

std::vector<std::pair<Key, Value>> Gfsl::collect() const {
  // Count, then fill an exactly sized vector: no growth by doubling.
  const ChunkRef head = head_[0].load(std::memory_order_acquire);
  std::size_t n = 0;
  for_each_bottom_entry(arena_, head, [&](KV) { ++n; });
  std::vector<std::pair<Key, Value>> out;
  out.reserve(n);
  for_each_bottom_entry(arena_, head, [&](KV kv) {
    out.emplace_back(kv_key(kv), kv_value(kv));
  });
  return out;
}

std::uint64_t Gfsl::size() const {
  std::uint64_t n = 0;
  for_each_bottom_entry(arena_, head_[0].load(std::memory_order_acquire),
                        [&](KV) { ++n; });
  return n;
}

ValidationReport Gfsl::validate(bool strict) const {
  ValidationReport rep;
  auto fail = [&](const std::string& msg) {
    if (rep.ok) {
      rep.ok = false;
      rep.error = msg;
    }
  };
  const std::uint32_t cap = arena_.capacity();
  const int dsz = arena_.dsize();
  auto head_at = [&](int l) {
    return head_[static_cast<std::size_t>(l)].load(std::memory_order_acquire);
  };
  auto next_at = [&](ChunkRef ref) {
    return arena_.entries(ref)[arena_.next_slot()].load(
        std::memory_order_acquire);
  };

  // Bit l of on_level[ref]: level l's chain reaches ref (zombies included).
  std::vector<std::uint32_t> on_level(cap, 0);
  // Upper levels' (key, down pointer) entries in chain order — ascending
  // once the level passed its ordering checks.
  std::vector<std::vector<std::pair<Key, ChunkRef>>> down_ptr(
      static_cast<std::size_t>(max_levels()));

  for (int l = 0; l < max_levels(); ++l) {
    const std::uint32_t bit = 1u << l;
    // Membership pass first: a cyclic level fails as a cycle before any of
    // its chunks is judged.
    bool cycle = false;
    bool out_of_pool = false;
    for (ChunkRef ref = head_at(l); ref != NULL_CHUNK;
         ref = next_entry_ref(next_at(ref))) {
      if (ref >= cap) {
        out_of_pool = true;
        break;
      }
      if ((on_level[ref] & bit) != 0) {
        cycle = true;
        break;
      }
      on_level[ref] |= bit;
    }
    if (cycle) {
      fail("cycle in level " + std::to_string(l));
      break;
    }
    if (out_of_pool) {
      fail("level " + std::to_string(l) + " links to a chunk outside the pool");
      break;
    }
    if (head_at(l) == NULL_CHUNK) {
      fail("level " + std::to_string(l) + " has no chunks");
      break;
    }

    bool saw_neg_inf = false;
    Key prev_max_key = 0;
    bool have_prev = false;
    Key last_key = KEY_NEG_INF;  // previous user key along the level
    for (ChunkRef ref = head_at(l); ref != NULL_CHUNK;) {
      const std::atomic<KV>* e = arena_.entries(ref);
      const KV nx = next_at(ref);
      const ChunkRef next = next_entry_ref(nx);
      const Key max = next_entry_max(nx);
      const LockState lock = lock_of(e, arena_);
      auto where = [&] {
        return "level " + std::to_string(l) + " chunk " + std::to_string(ref);
      };

      if (lock == kLocked) fail(where() + " left locked at quiescence");
      if (lock == kZombie) {
        ++rep.zombie_chunks;
        ref = next;
        continue;  // zombie contents are stale by design
      }
      ++rep.live_chunks;

      // Data slots in slot order; EMPTY entries must be grouped at the end.
      int count = 0;
      Key first = KEY_INF;
      Key last = KEY_INF;
      bool seen_empty = false;
      bool sorted = true;
      for (int i = 0; i < dsz; ++i) {
        const KV kv = e[i].load(std::memory_order_acquire);
        if (kv_is_empty(kv)) {
          seen_empty = true;
          continue;
        }
        if (seen_empty) fail(where() + ": non-empty entry after an empty one");
        const Key key = kv_key(kv);
        if (count > 0 && last >= key) sorted = false;
        if (count == 0) first = key;
        last = key;
        ++count;
      }
      rep.data_entries += static_cast<std::uint64_t>(count);
      // Internal sortedness, strictly ascending.
      if (!sorted) fail(where() + ": data not strictly sorted");

      // Max-field discipline: last chunk carries inf; any other non-zombie
      // chunk's max equals its largest key.
      if (next == NULL_CHUNK) {
        if (max != KEY_INF) fail(where() + ": last chunk max != inf");
      } else if (count == 0) {
        fail(where() + ": empty non-last chunk");
      } else if (snaps_ == nullptr ? max != last : max < last) {
        // With versioning attached, erasing a chunk's max key keeps the max
        // field sticky (erase.cpp) so the key's version record stays in
        // range — the field may exceed the largest key, never undercut it.
        fail(where() + ": max field != largest key");
      }

      // Lateral ordering between consecutive non-zombie chunks (§4.3).
      if (count > 0) {
        if (have_prev && first <= prev_max_key) {
          fail(where() + ": overlaps previous chunk's range");
        }
        prev_max_key = last;
        have_prev = true;
      }

      for (int i = 0; i < dsz; ++i) {
        const KV kv = e[i].load(std::memory_order_acquire);
        if (kv_is_empty(kv)) continue;
        const Key key = kv_key(kv);
        if (key == KEY_NEG_INF) {
          saw_neg_inf = true;
          continue;
        }
        // The ordering checks above already reject any repeat; this names
        // the adjacent one.
        if (key == last_key) {
          fail(where() + ": duplicate key " + std::to_string(key));
        }
        last_key = key;
        if (l == 0) ++rep.bottom_keys;
        if (l > 0) {
          down_ptr[static_cast<std::size_t>(l)].emplace_back(
              key, static_cast<ChunkRef>(kv_value(kv)));
        }
      }
      ref = next;
    }
    if (!saw_neg_inf) fail("level " + std::to_string(l) + " lost its -inf key");
  }

  rep.height = current_height();

  // Down-pointer validity: from the pointed-to chunk, the key's enclosing
  // chunk must be laterally reachable (§4.3 "Order Between Down Pointers").
  // `walked` clears the per-walk visited bits so the bitmap is reused.
  std::vector<bool> visited(cap);
  std::vector<ChunkRef> walked;
  for (int l = 1; l < max_levels() && rep.ok; ++l) {
    const std::uint32_t below_bit = 1u << (l - 1);
    LevelKeys below(arena_, head_at(l - 1));
    for (const auto& [key, target] : down_ptr[static_cast<std::size_t>(l)]) {
      bool reached = false;
      for (ChunkRef cur = target; cur != NULL_CHUNK && cur < cap &&
                                  !visited[cur];) {
        visited[cur] = true;
        walked.push_back(cur);
        const KV nx = next_at(cur);
        if (lock_of(arena_.entries(cur), arena_) != kZombie &&
            next_entry_max(nx) >= key) {
          reached = (on_level[cur] & below_bit) != 0;
          break;
        }
        cur = next_entry_ref(nx);
      }
      for (const ChunkRef r : walked) visited[r] = false;
      walked.clear();
      if (!reached) {
        fail("level " + std::to_string(l) + " key " + std::to_string(key) +
             ": enclosing chunk below not reachable from its down pointer");
      }
      if (strict && !below.contains(key)) {
        fail("level " + std::to_string(l) + " key " + std::to_string(key) +
             " missing from level below (strict)");
      }
    }
  }

  // Reclamation bookkeeping (DESIGN.md §9): classify every index the bump
  // pointer ever handed out.  A free index (odd generation) must be on
  // nobody's books; an in-use zombie must be *either* still linked *or* in
  // limbo — both would mean a double retire (the index could be recycled
  // while reachable), neither means a leak (tolerated after crash kills,
  // where the unlink's retire may not have run, so only under strict).
  rep.free_chunks = arena_.free_count();
  if (epochs_ != nullptr) {
    std::vector<bool> limbo(cap);
    for (const ChunkRef ref : epochs_->limbo_snapshot()) {
      if (ref < cap && !limbo[ref]) {
        limbo[ref] = true;
        ++rep.limbo_chunks;
      }
    }
    if (rep.ok) {
      const std::uint32_t hw = arena_.high_water();
      for (std::uint32_t i = 0; i < hw; ++i) {
        const auto ref = static_cast<ChunkRef>(i);
        auto name = [&] { return "chunk " + std::to_string(i); };
        const bool linked = on_level[ref] != 0;
        if ((arena_.generation(ref) & 1u) != 0) {  // on the free-list
          if (linked) fail(name() + ": free but reachable");
          if (limbo[ref]) fail(name() + ": free but in limbo");
          continue;
        }
        if (lock_of(arena_.entries(ref), arena_) == kZombie) {
          if (linked && limbo[ref]) {
            fail(name() + ": zombie both reachable and in limbo");
          }
          if (strict && !linked && !limbo[ref]) {
            fail(name() + ": zombie neither reachable nor in limbo (leak)");
          }
        }
      }
    }
  }

  // Version-store invariant (DESIGN.md §13): a LIVE record (erase_rev still
  // open) in a live bottom chunk's chain, with its key inside the chunk's
  // range, asserts "this key is present with this value" — resolution rule 1
  // would serve it to a current snapshot, so the structure must agree.
  // Records beyond the chunk's max are superseded split copies (prunable,
  // not a fault); annulled and departed records assert nothing.
  if (snaps_ != nullptr && rep.ok) {
    for (ChunkRef ref = head_at(0); ref != NULL_CHUNK;
         ref = next_entry_ref(next_at(ref))) {
      const std::atomic<KV>* e = arena_.entries(ref);
      if (lock_of(e, arena_) == kZombie) continue;
      const Key max = next_entry_max(next_at(ref));
      std::uint32_t steps = 0;
      for (RecIdx i = snaps_->chain_head(ref);
           i != SnapshotManager::kNullRec && steps < snaps_->walk_cap();
           ++steps) {
        const VersionRec& r = snaps_->rec(i);
        const Rev er = r.erase_rev.load(std::memory_order_acquire);
        if (er == SnapshotManager::kRevLive && r.key <= max) {
          int at = -1;
          for (int s = 0; s < dsz && at < 0; ++s) {
            const KV kv = e[s].load(std::memory_order_acquire);
            if (!kv_is_empty(kv) && kv_key(kv) == r.key) at = s;
          }
          const std::string where = "level 0 chunk " + std::to_string(ref);
          if (at < 0) {
            fail(where + ": live version record for absent key " +
                 std::to_string(r.key));
          } else if (const Value v =
                         kv_value(e[at].load(std::memory_order_acquire));
                     v != r.value) {
            fail(where + ": key " + std::to_string(r.key) + " value " +
                 std::to_string(v) +
                 " disagrees with its live version record " +
                 std::to_string(r.value));
          }
        }
        i = r.next.load(std::memory_order_acquire);
      }
    }
  }
  return rep;
}

void Gfsl::dump(std::ostream& os) const {
  GfslInspector insp(*this);
  for (int l = current_height(); l >= 0; --l) {
    os << "level " << l << ":\n";
    bool cycle = false;
    for (const auto& ch : insp.level_chain(l, &cycle)) {
      os << "  [" << ch.ref << "] ";
      switch (ch.lock) {
        case kUnlocked: break;
        case kLocked: os << "LOCKED "; break;
        case kZombie: os << "ZOMBIE "; break;
      }
      os << "{";
      for (std::size_t i = 0; i < ch.data.size(); ++i) {
        if (i != 0) os << " ";
        const Key key = kv_key(ch.data[i]);
        if (key == KEY_NEG_INF) {
          os << "-inf";
        } else {
          os << key;
        }
        if (l > 0) os << "->" << kv_value(ch.data[i]);
      }
      os << "} max=";
      if (ch.max == KEY_INF) {
        os << "inf";
      } else {
        os << ch.max;
      }
      os << "\n";
    }
    if (cycle) os << "  !! cycle detected\n";
  }
}

}  // namespace gfsl::core


