// Integrity armor (DESIGN.md §15): checksummed chunks, the deterministic
// fault plane, and the online scrub/repair/quarantine pipeline.
//
// Layers:
//   * IntegritySidecar units: checksum algebra, stamp/verify/unseal, the
//     generation binding that defeats recycle ABA.
//   * FaultPlane units: seed determinism, targeted injection, stuck-at
//     reassertion.
//   * Live structure: every unlocked chunk is sealed after arbitrary
//     workloads (the stamp-at-unlock invariant), damage is detected and
//     repaired (upper chunks from the level below, bottom chunks from the
//     version-record chain), unrepairable damage is quarantined with an
//     exact blast radius, and the armed structure answers exactly like a
//     detached one on undamaged runs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/chunk.h"
#include "core/gfsl.h"
#include "core/inspect.h"
#include "core/integrity.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "device/fault_plane.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

GfslConfig small_cfg(int team_size = 8, std::uint32_t pool = 1u << 12) {
  GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = pool;
  return cfg;
}

/// A Gfsl with the full armor stack: epochs (reclamation), snapshots
/// (version chains, so bottom repair has something to restore from) and the
/// integrity sidecar.
struct ArmoredFixture {
  explicit ArmoredFixture(std::uint32_t pool = 1u << 12)
      : epochs(),
        snaps(pool),
        sl(small_cfg(8, pool), &mem, nullptr, nullptr, &epochs, nullptr,
           &snaps, nullptr, &integrity),
        team(8, 0, 3) {}
  device::DeviceMemory mem;
  device::EpochManager epochs;
  SnapshotManager snaps;
  IntegritySidecar integrity;
  Gfsl sl;
  simt::Team team;
};

void small_workload(Gfsl& sl, simt::Team& team, std::map<Key, Value>* model) {
  for (Key k = 1; k <= 150; ++k) {
    sl.insert(team, k * 3, k);
    if (model != nullptr) (*model)[k * 3] = k;
  }
  for (Key k = 1; k <= 150; k += 2) {
    sl.erase(team, k * 3);
    if (model != nullptr) model->erase(k * 3);
  }
}

/// First live bottom chunk holding at least `min_keys` user keys.
ChunkRef pick_bottom_victim(const Gfsl& sl, int min_keys) {
  GfslInspector insp(sl);
  bool cycle = false;
  for (const auto& v : insp.level_chain(0, &cycle)) {
    if (v.lock == kZombie) continue;
    int users = 0;
    for (const KV kv : v.data) {
      if (kv_key(kv) >= MIN_USER_KEY && kv_key(kv) <= MAX_USER_KEY) ++users;
    }
    if (users >= min_keys) return v.ref;
  }
  return NULL_CHUNK;
}

/// Damage one data word of `ref` in place (the sidecar must notice).
std::uint64_t corrupt_first_user_slot(Gfsl& sl, ChunkRef ref,
                                      device::FaultKind kind,
                                      std::uint64_t seed) {
  const ChunkArena& arena = sl.arena();
  auto* entries = const_cast<std::atomic<KV>*>(arena.entries(ref));
  for (int s = 0; s < arena.dsize(); ++s) {
    const KV kv = entries[s].load(std::memory_order_acquire);
    if (kv_is_empty(kv) || kv_key(kv) == KEY_NEG_INF) continue;
    device::FaultPlane plane;
    const auto rep = plane.inject_at(kind, entries + s, seed);
    EXPECT_TRUE(rep.injected);
    EXPECT_NE(rep.before, rep.after);
    plane.clear_stuck();  // the test drives reassertion itself
    return rep.after;
  }
  ADD_FAILURE() << "chunk " << ref << " had no user slot to corrupt";
  return 0;
}

// --- IntegritySidecar units -------------------------------------------------

TEST(IntegritySidecar, ChecksumIsDeterministicAndSensitive) {
  for (const SealAlgo algo : {SealAlgo::kCrc32c, SealAlgo::kXorFold}) {
    IntegritySidecar sc(algo);
    std::uint64_t words[6] = {1, 2, 3, 0xDEADBEEFull, 5, 6};
    const std::uint32_t a = sc.checksum(words, 6);
    EXPECT_EQ(a, sc.checksum(words, 6));
    words[3] ^= 1ull << 17;
    EXPECT_NE(a, sc.checksum(words, 6));
    // Position sensitivity: swapping two words must change the sum.
    std::uint64_t swapped[6] = {2, 1, 3, words[3], 5, 6};
    EXPECT_NE(sc.checksum(swapped, 6), sc.checksum(words, 6));
  }
}

TEST(IntegritySidecar, StampVerifyUnsealRoundTrip) {
  IntegritySidecar sc;
  sc.bind(16);
  std::atomic<KV> entries[8];
  for (int i = 0; i < 8; ++i) entries[i].store(make_kv(i + 1, i));
  EXPECT_FALSE(sc.sealed(3, 4));
  sc.stamp(3, /*gen=*/4, entries, /*dsize=*/6);
  EXPECT_TRUE(sc.sealed(3, 4));
  EXPECT_EQ(sc.sealed_count(), 1u);
  EXPECT_TRUE(sc.verify_exact(3, 4, entries, 6));
  entries[2].store(make_kv(99, 99));
  EXPECT_FALSE(sc.verify_exact(3, 4, entries, 6));
  EXPECT_GE(sc.seal_mismatches(), 1u);
  sc.unseal(3);
  EXPECT_FALSE(sc.sealed(3, 4));
  EXPECT_EQ(sc.sealed_count(), 0u);
}

TEST(IntegritySidecar, SealIsGenerationBound) {
  // A seal stamped for one lifetime must not vouch for a recycled one.
  IntegritySidecar sc;
  sc.bind(4);
  std::atomic<KV> entries[8];
  for (int i = 0; i < 8; ++i) entries[i].store(make_kv(i + 1, i));
  sc.stamp(0, /*gen=*/2, entries, 6);
  EXPECT_TRUE(sc.sealed(0, 2));
  EXPECT_FALSE(sc.sealed(0, 4));  // same bits, later lifetime
  EXPECT_TRUE(sc.verify_exact(0, 4, entries, 6))
      << "verify against an unsealed generation must pass vacuously";
}

TEST(IntegritySidecar, SuspectFlagFirstFlaggerOwns) {
  IntegritySidecar sc;
  sc.bind(8);
  EXPECT_TRUE(sc.flag_suspect(5));
  EXPECT_FALSE(sc.flag_suspect(5));  // second flagger does not own reporting
  EXPECT_EQ(sc.suspect_count(), 1u);
  sc.clear_suspect(5);
  EXPECT_FALSE(sc.suspect(5));
  EXPECT_EQ(sc.suspect_count(), 0u);
}

// --- FaultPlane units -------------------------------------------------------

TEST(FaultPlane, InjectionIsSeedDeterministic) {
  std::uint64_t window_a[32], window_b[32];
  for (int i = 0; i < 32; ++i) window_a[i] = window_b[i] = 0x0101010101010101ull * i;
  device::FaultPlane pa, pb;
  pa.map_section(device::FaultSection::kChunkData, window_a, sizeof window_a);
  pb.map_section(device::FaultSection::kChunkData, window_b, sizeof window_b);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto ra = pa.inject({device::FaultSection::kChunkData,
                               device::FaultKind::kMultiBitFlip, seed});
    const auto rb = pb.inject({device::FaultSection::kChunkData,
                               device::FaultKind::kMultiBitFlip, seed});
    ASSERT_TRUE(ra.injected && rb.injected);
    EXPECT_EQ(ra.offset, rb.offset) << "seed " << seed;
    EXPECT_EQ(ra.after, rb.after) << "seed " << seed;
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(window_a[i], window_b[i]);
}

TEST(FaultPlane, UnarmedSectionInjectsNothing) {
  device::FaultPlane plane;
  const auto rep = plane.inject(
      {device::FaultSection::kFreeList, device::FaultKind::kBitFlip, 7});
  EXPECT_FALSE(rep.injected);
  EXPECT_EQ(plane.faults_injected(), 0u);
}

TEST(FaultPlane, StuckWordReassertsAfterRepair) {
  std::uint64_t word = 0xABCDEF0123456789ull;
  device::FaultPlane plane;
  const auto rep =
      plane.inject_at(device::FaultKind::kStuckWord, &word, /*seed=*/3);
  ASSERT_TRUE(rep.injected);
  const std::uint64_t corrupt = rep.after;
  EXPECT_EQ(word, corrupt);
  word = 0xABCDEF0123456789ull;  // "repair" the cell
  plane.reassert();              // the failed cell re-asserts the damage
  EXPECT_EQ(word, corrupt);
  EXPECT_EQ(plane.stuck_words(), 1u);
  plane.clear_stuck();
}

TEST(FaultPlane, SectionAndKindNamesRoundTrip) {
  for (int s = 0; s < device::kFaultSectionCount; ++s) {
    const auto sec = static_cast<device::FaultSection>(s);
    device::FaultSection parsed{};
    ASSERT_TRUE(
        device::parse_fault_section(device::fault_section_name(sec), &parsed));
    EXPECT_EQ(parsed, sec);
  }
  for (int k = 0; k < device::kFaultKindCount; ++k) {
    const auto kind = static_cast<device::FaultKind>(k);
    device::FaultKind parsed{};
    ASSERT_TRUE(device::parse_fault_kind(device::fault_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  device::FaultSection sink_s{};
  device::FaultKind sink_k{};
  EXPECT_FALSE(device::parse_fault_section("bogus", &sink_s));
  EXPECT_FALSE(device::parse_fault_kind("bogus", &sink_k));
}

// --- Stamp-at-unlock invariant ----------------------------------------------

TEST(IntegrityLive, EveryUnlockedLiveChunkIsSealedAfterWorkload) {
  ArmoredFixture f;
  small_workload(f.sl, f.team, nullptr);
  const ChunkArena& arena = f.sl.arena();
  std::uint64_t sealed = 0;
  for (ChunkRef ref = 0; ref < arena.high_water(); ++ref) {
    const std::uint32_t gen = arena.generation(ref);
    if ((gen & 1u) != 0) continue;  // on the free-list
    const KV lk =
        arena.entries(ref)[arena.lock_slot()].load(std::memory_order_acquire);
    if (lock_entry_state(lk) != kUnlocked) continue;
    EXPECT_TRUE(f.integrity.sealed(ref, gen)) << "unsealed live chunk " << ref;
    ++sealed;
  }
  EXPECT_GT(sealed, 0u);
  // A quiescent undamaged structure scrubs clean.
  const ScrubReport rep = f.sl.scrub_pass(f.team);
  EXPECT_GT(rep.chunks_scanned, 0u);
  EXPECT_EQ(rep.mismatches, 0u);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_EQ(rep.quarantined, 0u);
}

// --- Detection and repair ---------------------------------------------------

TEST(IntegrityLive, ReadPathDetectsAndInlineRepairsBottomDamage) {
  ArmoredFixture f;
  f.integrity.set_verify_period(1);  // every checked read verifies
  std::map<Key, Value> model;
  small_workload(f.sl, f.team, &model);
  const ChunkRef victim = pick_bottom_victim(f.sl, 2);
  ASSERT_NE(victim, NULL_CHUNK);
  corrupt_first_user_slot(f.sl, victim, device::FaultKind::kBitFlip, 11);

  // Point reads over the whole model: the damaged chunk's reader flags it
  // suspect, repairs inline from the version chain, restarts, and every
  // answer is exactly the model's.
  for (const auto& [k, v] : model) {
    const std::optional<Value> got = f.sl.find(f.team, k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, v) << "key " << k;
  }
  EXPECT_GE(f.integrity.seal_mismatches(), 1u);
  EXPECT_EQ(f.integrity.suspect_count(), 0u) << "suspicion must be resolved";
  EXPECT_TRUE(f.sl.validate(false).ok);
}

TEST(IntegrityLive, ScrubRepairsBottomChunkFromVersionChain) {
  for (const auto kind :
       {device::FaultKind::kBitFlip, device::FaultKind::kMultiBitFlip,
        device::FaultKind::kTornEntry}) {
    ArmoredFixture f;
    std::map<Key, Value> model;
    small_workload(f.sl, f.team, &model);
    const ChunkRef victim = pick_bottom_victim(f.sl, 2);
    ASSERT_NE(victim, NULL_CHUNK);
    corrupt_first_user_slot(f.sl, victim, kind, 23);

    const ScrubReport rep = f.sl.scrub_pass(f.team);
    EXPECT_EQ(rep.mismatches, 1u);
    EXPECT_EQ(rep.repaired, 1u);
    EXPECT_EQ(rep.quarantined, 0u);
    ASSERT_TRUE(f.sl.validate(false).ok);
    std::map<Key, Value> got;
    for (const auto& [k, v] : f.sl.collect()) got[k] = v;
    EXPECT_EQ(got, model) << "repair must restore the exact pre-damage "
                             "contents (kind "
                          << device::fault_kind_name(kind) << ")";
  }
}

TEST(IntegrityLive, ScrubRepairsUpperChunkFromLevelBelow) {
  ArmoredFixture f;
  std::map<Key, Value> model;
  // Enough keys to raise several levels.
  for (Key k = 1; k <= 600; ++k) {
    f.sl.insert(f.team, k * 2, k);
    model[k * 2] = k;
  }
  GfslInspector insp(f.sl);
  bool cycle = false;
  const auto chain = insp.level_chain(1, &cycle);
  ASSERT_FALSE(cycle);
  ChunkRef victim = NULL_CHUNK;
  for (const auto& v : chain) {
    if (v.lock == kUnlocked && v.data.size() >= 2) {
      victim = v.ref;
      break;
    }
  }
  ASSERT_NE(victim, NULL_CHUNK) << "no upper chunk to damage";
  corrupt_first_user_slot(f.sl, victim, device::FaultKind::kTornEntry, 31);

  const ScrubReport rep = f.sl.scrub_pass(f.team);
  EXPECT_EQ(rep.mismatches, 1u);
  EXPECT_EQ(rep.repaired, 1u);
  EXPECT_TRUE(rep.lost.empty()) << "upper damage must never lose user keys";
  ASSERT_TRUE(f.sl.validate(false).ok);
  std::map<Key, Value> got;
  for (const auto& [k, v] : f.sl.collect()) got[k] = v;
  EXPECT_EQ(got, model);
}

// --- The leading chunk: -inf after a head merge ------------------------------
//
// Merging a level's head chunk moves -inf into its successor, and the head
// pointer swings past the zombie only when a later search meets it.  Until
// then the successor leads its level, and every repair or quarantine must
// keep -inf there.

/// Live chunks of `level` in chain order (the first one leads the level).
std::vector<ChunkView> live_chain(const Gfsl& sl, int level) {
  GfslInspector insp(sl);
  bool cycle = false;
  std::vector<ChunkView> out;
  for (const auto& v : insp.level_chain(level, &cycle)) {
    if (v.lock != kZombie) out.push_back(v);
  }
  EXPECT_FALSE(cycle);
  return out;
}

/// Overwrite the data slot of `ref` holding key `from` with key `to`,
/// keeping the slot's value (an upper entry keeps its down pointer).
void rekey_slot(Gfsl& sl, ChunkRef ref, Key from, Key to) {
  auto* entries = const_cast<std::atomic<KV>*>(sl.arena().entries(ref));
  for (int s = 0; s < sl.arena().dsize(); ++s) {
    const KV kv = entries[s].load(std::memory_order_acquire);
    if (!kv_is_empty(kv) && kv_key(kv) == from) {
      entries[s].store(make_kv(to, kv_value(kv)), std::memory_order_release);
      return;
    }
  }
  ADD_FAILURE() << "chunk " << ref << " does not hold key " << from;
}

/// Largest user key of a chunk view (KEY_NEG_INF when it holds none).
Key top_key(const ChunkView& v) {
  Key top = KEY_NEG_INF;
  for (const KV kv : v.data) top = std::max(top, kv_key(kv));
  return top;
}

/// Empty the bottom head chunk by erasing its smallest keys until the erase
/// merges it away: the head is then a zombie and -inf sits in its successor.
/// Returns that successor.
ChunkRef zombify_bottom_head(ArmoredFixture& f, std::map<Key, Value>& model) {
  GfslInspector insp(f.sl);
  const ChunkRef head = insp.head(0).load();
  for (int guard = 0; guard < 16 && insp.view(head).lock != kZombie; ++guard) {
    f.sl.erase(f.team, model.begin()->first);
    model.erase(model.begin());
  }
  EXPECT_EQ(insp.view(head).lock, kZombie) << "the head chunk never merged";
  EXPECT_EQ(insp.head(0).load(), head) << "a search swung the head already";
  return live_chain(f.sl, 0).front().ref;
}

TEST(IntegrityLeading, UpperRepairLowersTheMaxOfAShrunkChunk) {
  // Integrity only: without snapshots the max of a non-last chunk must
  // equal its largest key.  Damage the top key of a non-leading, non-last
  // level-1 chunk into a key the level below does not hold: the repair
  // drops it and must lower the max to the new top key.
  device::DeviceMemory mem;
  IntegritySidecar integrity;
  Gfsl sl(small_cfg(), &mem, nullptr, nullptr, nullptr, nullptr, nullptr,
          nullptr, &integrity);
  simt::Team team(8, 0, 3);
  std::map<Key, Value> model;
  for (Key k = 1; k <= 600; ++k) {
    sl.insert(team, k * 2, k);
    model[k * 2] = k;
  }
  const auto chain = live_chain(sl, 1);
  ASSERT_GE(chain.size(), 3u);
  const ChunkView& victim = chain[1];  // chain[0] leads level 1
  ASSERT_NE(victim.next, NULL_CHUNK);
  ASSERT_GE(victim.data.size(), 2u);
  const Key top = top_key(victim);
  rekey_slot(sl, victim.ref, top, top - 1);

  const ScrubReport rep = sl.scrub_pass(team);
  EXPECT_EQ(rep.mismatches, 1u);
  EXPECT_EQ(rep.repaired, 1u);
  const auto v = sl.validate(false);
  ASSERT_TRUE(v.ok) << v.error;
  GfslInspector insp(sl);
  EXPECT_LT(insp.view(victim.ref).max, top);
  const auto pairs = sl.collect();
  const std::map<Key, Value> got(pairs.begin(), pairs.end());
  EXPECT_EQ(got, model);
}

TEST(IntegrityLeading, UpperRepairKeepsInfInTheChunkBehindAZombieHead) {
  ArmoredFixture f;
  std::map<Key, Value> model;
  for (Key k = 1; k <= 600; ++k) {
    f.sl.insert(f.team, k * 2, k);
    model[k * 2] = k;
  }
  for (const Key k : {Key{12}, Key{18}}) {
    f.sl.erase(f.team, k);
    model.erase(k);
  }
  GfslInspector insp(f.sl);
  ASSERT_EQ(insp.view(insp.head(1).load()).lock, kZombie)
      << "erasing 12 and 18 no longer merges the level-1 head";
  const ChunkView lead = live_chain(f.sl, 1).front();
  ASSERT_FALSE(lead.data.empty());
  ASSERT_EQ(kv_key(lead.data.front()), KEY_NEG_INF);
  ASSERT_NE(lead.next, NULL_CHUNK);
  const Key top = top_key(lead);
  rekey_slot(f.sl, lead.ref, top, top + 1);

  const ScrubReport rep = f.sl.scrub_pass(f.team);
  EXPECT_EQ(rep.repaired, 1u);
  const auto v = f.sl.validate(false);
  EXPECT_TRUE(v.ok) << v.error;  // the sweep below runs either way
  const ChunkView after = insp.view(lead.ref);
  EXPECT_TRUE(!after.data.empty() &&
              kv_key(after.data.front()) == KEY_NEG_INF)
      << "the repair dropped -inf from the leading chunk";

  // Without -inf every search for a small key has no predecessor to step
  // down through and restarts forever.  Sweep every key from a fresh team
  // in a child that an alarm kills, so a regression fails, not hangs.
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(10);
    simt::Team fresh(8, 1, 11);
    for (Key k = 1; k <= 1200; ++k) {
      if (f.sl.contains(fresh, k) != (model.count(k) != 0)) ::_exit(2);
    }
    ::_exit(0);
  }
  int st = 0;
  ASSERT_EQ(::waitpid(pid, &st, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(st))
      << "contains sweep killed by signal " << WTERMSIG(st) << " (a hang)";
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
      << "contains sweep returned a wrong answer";
}

TEST(IntegrityLeading, BottomRepairKeepsInfInTheChunkBehindAZombieHead) {
  ArmoredFixture f;
  std::map<Key, Value> model;
  for (Key k = 1; k <= 150; ++k) {
    f.sl.insert(f.team, k * 2, k);
    model[k * 2] = k;
  }
  const ChunkRef lead = zombify_bottom_head(f, model);
  GfslInspector insp(f.sl);
  const ChunkView v0 = insp.view(lead);
  ASSERT_GE(v0.data.size(), 2u);
  ASSERT_EQ(kv_key(v0.data.front()), KEY_NEG_INF);
  // Flip one value bit of the first user entry.
  auto* entries = const_cast<std::atomic<KV>*>(f.sl.arena().entries(lead));
  entries[1].store(entries[1].load() ^ (KV{1} << 32));

  const ScrubReport rep = f.sl.scrub_pass(f.team);
  EXPECT_EQ(rep.mismatches, 1u);
  EXPECT_EQ(rep.repaired, 1u) << "the version chain plus -inf is the image";
  EXPECT_EQ(rep.quarantined, 0u);
  const auto v = f.sl.validate(false);
  ASSERT_TRUE(v.ok) << v.error;
  const auto pairs = f.sl.collect();
  const std::map<Key, Value> got(pairs.begin(), pairs.end());
  EXPECT_EQ(got, model);
}

TEST(IntegrityLeading, QuarantinedLeadingChunkIsEvacuatedWithInf) {
  // A stuck cell in the chunk behind a zombie head: the first pass repairs,
  // the second escalates to quarantine, which must evacuate the leading
  // chunk in place (keeping -inf) instead of zombifying it.
  ArmoredFixture f;
  std::map<Key, Value> model;
  for (Key k = 1; k <= 150; ++k) {
    f.sl.insert(f.team, k * 2, k);
    model[k * 2] = k;
  }
  const ChunkRef lead = zombify_bottom_head(f, model);
  auto* entries = const_cast<std::atomic<KV>*>(f.sl.arena().entries(lead));
  device::FaultPlane plane;
  ASSERT_TRUE(
      plane.inject_at(device::FaultKind::kStuckWord, entries + 1, 5).injected);
  EXPECT_EQ(f.sl.scrub_pass(f.team).repaired, 1u);
  plane.reassert();
  const ScrubReport r2 = f.sl.scrub_pass(f.team);
  plane.clear_stuck();
  EXPECT_EQ(r2.quarantined, 1u);
  ASSERT_EQ(r2.lost.size(), 1u);
  EXPECT_EQ(r2.lost.front().lo_exclusive, KEY_NEG_INF);

  GfslInspector insp(f.sl);
  const ChunkView after = insp.view(lead);
  EXPECT_NE(after.lock, kZombie);
  ASSERT_EQ(after.data.size(), 1u);
  EXPECT_EQ(kv_key(after.data.front()), KEY_NEG_INF);
  const auto v = f.sl.validate(false);
  ASSERT_TRUE(v.ok) << v.error;
  for (const auto& [k, val] : f.sl.collect()) {
    ASSERT_EQ(model.count(k), 1u) << "alien key " << k;
    EXPECT_EQ(model[k], val);
    EXPECT_GT(k, r2.lost.front().hi_inclusive) << "key " << k << " survived";
  }
}

TEST(IntegrityLeading, QuarantinedHeadWithoutSnapshotsDropsItsMax) {
  // Integrity only: a damaged bottom head cannot be repaired (no version
  // chain), so it is evacuated in place down to -inf, and its max must
  // follow: without snapshots a non-last chunk's max equals its top key.
  device::DeviceMemory mem;
  IntegritySidecar integrity;
  Gfsl sl(small_cfg(), &mem, nullptr, nullptr, nullptr, nullptr, nullptr,
          nullptr, &integrity);
  simt::Team team(8, 0, 3);
  std::map<Key, Value> model;
  for (Key k = 1; k <= 100; ++k) {
    sl.insert(team, k * 2, k);
    model[k * 2] = k;
  }
  const ChunkView head = live_chain(sl, 0).front();
  ASSERT_NE(head.next, NULL_CHUNK);
  ASSERT_GE(head.data.size(), 2u);
  auto* entries = const_cast<std::atomic<KV>*>(sl.arena().entries(head.ref));
  entries[1].store(entries[1].load() ^ (KV{1} << 32));

  const ScrubReport rep = sl.scrub_pass(team);
  EXPECT_EQ(rep.quarantined, 1u);
  ASSERT_EQ(rep.lost.size(), 1u);
  EXPECT_EQ(rep.lost.front().lo_exclusive, KEY_NEG_INF);
  EXPECT_EQ(rep.lost.front().hi_inclusive, head.max);
  const auto v = sl.validate(false);
  ASSERT_TRUE(v.ok) << v.error;
  for (const auto& [k, val] : sl.collect()) {
    EXPECT_EQ(model.at(k), val);
    EXPECT_GT(k, head.max) << "key " << k << " survived the evacuation";
  }
}

// --- Quarantine and blast radius --------------------------------------------

TEST(IntegrityLive, StuckCellEscalatesToQuarantineWithExactBlastRadius) {
  ArmoredFixture f;
  std::map<Key, Value> model;
  small_workload(f.sl, f.team, &model);
  const ChunkRef victim = pick_bottom_victim(f.sl, 2);
  ASSERT_NE(victim, NULL_CHUNK);

  const ChunkArena& arena = f.sl.arena();
  auto* entries = const_cast<std::atomic<KV>*>(arena.entries(victim));
  int slot = -1;
  for (int s = 0; s < arena.dsize(); ++s) {
    const KV kv = entries[s].load(std::memory_order_acquire);
    if (!kv_is_empty(kv) && kv_key(kv) != KEY_NEG_INF) {
      slot = s;
      break;
    }
  }
  ASSERT_GE(slot, 0);
  device::FaultPlane plane;
  const auto frep = plane.inject_at(device::FaultKind::kStuckWord,
                                    entries + slot, /*seed=*/5);
  ASSERT_TRUE(frep.injected);

  // Pass 1 repairs; the cell re-asserts; pass 2 must escalate.
  const ScrubReport r1 = f.sl.scrub_pass(f.team);
  EXPECT_EQ(r1.repaired, 1u);
  plane.reassert();
  const ScrubReport r2 = f.sl.scrub_pass(f.team);
  plane.clear_stuck();
  EXPECT_EQ(r2.quarantined, 1u);
  ASSERT_EQ(r2.lost.size(), 1u);
  const LostRange& lost = r2.lost.front();
  EXPECT_EQ(lost.ref, victim);

  ASSERT_TRUE(f.sl.validate(false).ok);
  // Zero silent wrong answers: every surviving key matches the model and
  // every missing key falls inside the reported blast radius.
  std::map<Key, Value> got;
  for (const auto& [k, v] : f.sl.collect()) got[k] = v;
  for (const auto& [k, v] : got) {
    auto it = model.find(k);
    ASSERT_TRUE(it != model.end()) << "alien key " << k;
    EXPECT_EQ(v, it->second) << "key " << k;
  }
  for (const auto& [k, v] : model) {
    if (got.count(k) != 0) continue;
    EXPECT_TRUE(k > lost.lo_exclusive && k <= lost.hi_inclusive)
        << "key " << k << " lost outside the reported range ("
        << lost.lo_exclusive << ", " << lost.hi_inclusive << "]";
  }
}

// --- A/B: armed answers exactly like detached on undamaged runs -------------

TEST(IntegrityAB, ArmedAndDetachedAgreeOnUndamagedWorkload) {
  device::DeviceMemory mem_a, mem_d;
  IntegritySidecar integrity;
  Gfsl armed(small_cfg(), &mem_a, nullptr, nullptr, nullptr, nullptr, nullptr,
             nullptr, &integrity);
  Gfsl detached(small_cfg(), &mem_d);
  integrity.set_verify_period(1);
  simt::Team ta(8, 0, 3), td(8, 0, 3);
  small_workload(armed, ta, nullptr);
  small_workload(detached, td, nullptr);
  EXPECT_EQ(armed.collect(), detached.collect());
  EXPECT_TRUE(armed.validate(false).ok);
  // The detached structure never pays a seal: nothing is stamped.
  EXPECT_GT(integrity.seals_stamped(), 0u);
  EXPECT_EQ(integrity.seal_mismatches(), 0u);
}

}  // namespace
}  // namespace gfsl::core
