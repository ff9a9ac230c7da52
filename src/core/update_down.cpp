// updateDownPtrs (Algorithm 4.10): after a split or merge moves keys between
// chunks in level i, repair the down-pointers associated with those keys in
// level i+1.  Until repaired, the stale pointers are legal — they point to a
// chunk from which the keys' new home is laterally reachable (§4.3 "Order
// Between Down Pointers").
#include "core/gfsl.h"

namespace gfsl::core {

using simt::LaneVec;
using simt::Team;

void Gfsl::update_down_ptrs(Team& team, int level, const MovedKeys& moved) {
  if (moved.count == 0) return;
  const int upper = level + 1;
  if (upper >= max_levels()) return;

  // Descend once to the smallest moved key's position in level i+1; the
  // moved keys are ascending, so each subsequent search resumes laterally
  // from where the previous one stopped.
  const Key first_key = team.shfl(moved.keys, 0);
  ChunkRef upper_ch = search_down_to_level(team, upper, first_key);

  for (int c = 0; c < moved.count; ++c) {
    const Key mk = team.shfl(moved.keys, c);
    const auto [found, ch] = find_lateral(team, mk, upper_ch, upper);
    upper_ch = ch;
    if (!found) continue;  // key was never raised to level i+1

    const ChunkRef locked =
        find_and_lock_enclosing(team, upper_ch, mk, upper);
    const LaneVec<KV> ukv = read_chunk(team, locked);
    const std::uint32_t bal = team.ballot_fn(
        [&](int i) { return i < team.dsize() && kv_key(ukv[i]) == mk; });
    const int lane = Team::highest_lane(bal);
    if (lane >= 0) {
      // Locate mk's current enclosing chunk in level i, reachable from the
      // chunk it was moved into, and swing the upper entry to it.
      const auto [still_there, lower] =
          find_lateral(team, mk, moved.moved_to, level);
      if (still_there) {
        // The swing is a single atomic write, so recovery has nothing to
        // repair — the intent exists so a crash mid-hold releases the lock.
        publish_intent(team, IntentKind::kDownSwing, mk, locked);
        atomic_entry_write(team, locked, lane,
                           make_kv(mk, static_cast<Value>(lower)));
        clear_intent(team);
      }
    }
    unlock(team, locked);
    upper_ch = locked;
  }
}

}  // namespace gfsl::core
