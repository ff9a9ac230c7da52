// Corruption sweep implementation (see corrupt_sweep.h for the contract).
#include "harness/corrupt_sweep.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "harness/postmortem.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "harness/workload.h"
#include "simt/team.h"

namespace gfsl::harness {
namespace {

using core::Gfsl;
using core::GfslConfig;
using device::FaultKind;
using device::FaultPlane;
using device::FaultSection;
using device::FaultSpec;

GfslConfig gfsl_config(const CorruptSweepConfig& cfg) {
  GfslConfig gc;
  gc.team_size = cfg.team_size;
  gc.pool_chunks = cfg.pool_chunks;
  return gc;
}

std::string repro(FaultSection s, FaultKind k, std::uint64_t seed) {
  return std::string("--corrupt ") + device::fault_section_name(s) + ":" +
         device::fault_kind_name(k) + ":" + std::to_string(seed);
}

struct CellCtx {
  const CorruptSweepConfig* cfg = nullptr;
  FaultSection section = FaultSection::kChunkData;
  FaultKind kind = FaultKind::kBitFlip;
  std::uint64_t seed = 0;
  CorruptSweepResult* res = nullptr;
};

bool fail_cell(CellCtx& c, const std::string& what, const Gfsl* sl = nullptr) {
  c.res->ok = false;
  c.res->error = what + "\n  repro: " + repro(c.section, c.kind, c.seed);
  if (!c.cfg->postmortem_dir.empty()) {
    PostmortemContext ctx;
    ctx.reason = "corruption_unresolved";
    ctx.detail = what;
    ctx.gfsl = sl;
    ctx.info = {{"harness", "corrupt_sweep"},
                {"section", device::fault_section_name(c.section)},
                {"kind", device::fault_kind_name(c.kind)},
                {"seed", std::to_string(c.seed)},
                {"ops", std::to_string(c.cfg->ops)},
                {"range", std::to_string(c.cfg->key_range)},
                {"team_size", std::to_string(c.cfg->team_size)}};
    (void)dump_postmortem(
        c.cfg->postmortem_dir,
        std::string("postmortem_corrupt_") +
            device::fault_section_name(c.section) + "_" +
            device::fault_kind_name(c.kind) + "_" + std::to_string(c.seed),
        ctx);
  }
  return false;
}

/// Drive the seeded reference workload through the stack's structure with a
/// single team, then check every outcome against the model.  Single-team runs are
/// sequential, so any divergence here is a harness bug, not corruption.
bool drive(GfslStack& stack, MapOracle& model, std::uint64_t ops,
           std::uint64_t range, std::uint64_t seed, std::string* err) {
  WorkloadConfig wl;
  wl.mix = kMix_20_20_60;  // update-heavy: deep version chains, busy chunks
  wl.key_range = range;
  wl.num_ops = ops;
  wl.seed = seed;
  const auto op_array = generate_ops(wl);
  std::vector<std::uint8_t> got;
  RunConfig rc;
  rc.num_workers = 1;
  rc.seed = 3;
  rc.results = &got;
  if (run_gfsl(stack.gfsl(), op_array, rc, stack.mem()).out_of_memory) {
    *err = "pre-injection workload exhausted the pool";
    return false;
  }
  const auto want = model.apply_batch(op_array);
  for (std::size_t i = 0; i < op_array.size(); ++i) {
    if (got[i] != want[i]) {
      *err = "pre-injection workload diverged from the model at key " +
             std::to_string(op_array[i].key);
      return false;
    }
  }
  return true;
}

bool key_in_ranges(Key k, const std::vector<core::LostRange>& lost) {
  for (const auto& lr : lost) {
    if (k > lr.lo_exclusive && k <= lr.hi_inclusive) return true;
  }
  return false;
}

/// Exact-or-reported contents check: every surviving key must carry the
/// model's value (anything else is a silent wrong answer) and every missing
/// key must fall inside a reported blast radius.
bool check_contents(Gfsl& sl, const MapOracle& model,
                    const std::vector<core::LostRange>& lost,
                    std::uint64_t* keys_lost, std::string* err) {
  const auto actual = sl.collect();
  std::map<Key, Value> am(actual.begin(), actual.end());
  for (const auto& [k, v] : am) {
    const auto it = model.state().find(k);
    if (it == model.state().end()) {
      *err = "silent corruption: key " + std::to_string(k) +
             " present but never inserted";
      return false;
    }
    if (it->second != v) {
      *err = "silent corruption: key " + std::to_string(k) +
             " carries value " + std::to_string(v) + ", model says " +
             std::to_string(it->second);
      return false;
    }
  }
  for (const auto& [k, v] : model.state()) {
    (void)v;
    if (am.count(k) != 0) continue;
    if (!key_in_ranges(k, lost)) {
      *err = "silent loss: key " + std::to_string(k) +
             " vanished outside every reported blast radius";
      return false;
    }
    ++*keys_lost;
  }
  return true;
}

// --- kChunkData: in-memory inject -> scrub -> verify ------------------------

bool run_chunk_cell(CellCtx& c) {
  const CorruptSweepConfig& cfg = *c.cfg;
  // Epochs + snapshots attached: bottom-chunk repair restores from the
  // version-record chains, so every key this workload wrote is recoverable.
  StackOptions so;
  so.epochs = true;
  so.snapshots = true;
  so.integrity = true;
  GfslStack stack(gfsl_config(cfg), so);
  Gfsl& sl = stack.gfsl();
  const core::IntegritySidecar& integrity = *sl.integrity();
  MapOracle model;
  std::string err;
  if (!drive(stack, model, cfg.ops, cfg.key_range,
             derive_seed(cfg.base_seed, c.seed), &err)) {
    return fail_cell(c, err, &sl);
  }

  // Victim: a sealed, unlocked, live chunk — picked by the seed across every
  // level (upper chunks exercise index repair, bottom chunks exercise the
  // CRC-certified restore).
  const core::ChunkArena& arena = sl.arena();
  std::vector<ChunkRef> sealed;
  for (std::uint32_t r = 0; r < arena.high_water(); ++r) {
    const auto ref = static_cast<ChunkRef>(r);
    const std::uint32_t gen = arena.generation(ref);
    if ((gen & 1u) != 0 || !integrity.sealed(ref, gen)) continue;
    const KV lk = arena.entries(ref)[arena.lock_slot()].load(
        std::memory_order_relaxed);
    if (core::lock_entry_state(lk) != core::kUnlocked) continue;
    sealed.push_back(ref);
  }
  if (sealed.empty()) return fail_cell(c, "no sealed chunk to corrupt", &sl);
  Xoshiro256ss rng(derive_seed(cfg.base_seed ^ 0xC022u, c.seed));
  const ChunkRef victim = sealed[rng.below(sealed.size())];
  const int slot =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(arena.dsize())));
  auto* word = const_cast<std::atomic<KV>*>(arena.entries(victim)) + slot;

  FaultPlane plane;
  const auto frep = plane.inject_at(c.kind, word, c.seed + 1);
  ++c.res->runs;
  const bool changed = frep.injected && frep.before != frep.after;
  if (changed) ++c.res->injected;

  simt::Team medic(cfg.team_size, 1, 3);
  auto srep = sl.scrub_pass(medic);
  if (c.kind == FaultKind::kStuckWord && changed) {
    // The failed cell re-asserts its corrupt value over whatever the first
    // pass repaired; the second pass must escalate to quarantine instead of
    // burning passes re-repairing unrepairable memory.
    plane.reassert();
    const auto srep2 = sl.scrub_pass(medic);
    if (srep2.mismatches != 0 && srep2.quarantined == 0) {
      plane.clear_stuck();
      return fail_cell(
          c, "stuck-at word was re-repaired instead of escalating", &sl);
    }
    srep.mismatches += srep2.mismatches;
    srep.repaired += srep2.repaired;
    srep.quarantined += srep2.quarantined;
    srep.lost.insert(srep.lost.end(), srep2.lost.begin(), srep2.lost.end());
  }
  plane.clear_stuck();

  c.res->detected += srep.mismatches;
  c.res->repaired += srep.repaired;
  c.res->quarantined += srep.quarantined;
  if (changed && srep.mismatches == 0) {
    return fail_cell(c, "damaged seal went undetected by the scrub pass", &sl);
  }
  if (changed && srep.repaired + srep.quarantined == 0) {
    return fail_cell(
        c, "confirmed mismatch was neither repaired nor quarantined", &sl);
  }

  const auto vrep = sl.validate(/*strict=*/false);
  if (!vrep.ok) {
    return fail_cell(c, "post-scrub validate failed: " + vrep.error, &sl);
  }
  if (!check_contents(sl, model, srep.lost, &c.res->keys_lost, &err)) {
    return fail_cell(c, err, &sl);
  }
  // Post-resolution point reads across the whole key space: the repaired
  // structure must answer exactly like the model, modulo the reported radii.
  simt::Team team(cfg.team_size, 0, 3);
  for (std::uint64_t k = 1; k <= cfg.key_range; ++k) {
    const Key key = static_cast<Key>(k);
    const bool got = sl.contains(team, key);
    const bool want = model.state().count(key) != 0;
    if (got == want) continue;
    if (got) {
      return fail_cell(
          c, "contains(" + std::to_string(k) + ") invented a key", &sl);
    }
    if (!key_in_ranges(key, srep.lost)) {
      return fail_cell(c,
                       "contains(" + std::to_string(k) +
                           ") lost a key outside every blast radius",
                       &sl);
    }
  }
  return true;
}

// --- Durable sections: region-file inject -> recover -> verify --------------

bool run_region_cell(CellCtx& c) {
  const CorruptSweepConfig& cfg = *c.cfg;
  const std::string path =
      cfg.work_dir + "/corrupt_" + device::fault_section_name(c.section) +
      "_" + device::fault_kind_name(c.kind) + "_" + std::to_string(c.seed) +
      ".region";
  std::remove(path.c_str());
  StackOptions so;
  so.persist_path = path;
  MapOracle model;
  {  // Phase 1: write a clean reference image.
    GfslStack stack(gfsl_config(cfg), so);
    std::string err;
    if (!drive(stack, model, cfg.ops, cfg.key_range,
               derive_seed(cfg.base_seed, c.seed ^ 0xD15Cu), &err)) {
      std::remove(path.c_str());
      return fail_cell(c, err, &stack.gfsl());
    }
    stack.region()->mark_clean();
  }
  const auto expected = model.collect();

  bool cell_ok = true;
  std::string err;
  {  // Phase 2: damage the live window, then recover on the same mapping.
    FaultPlane plane;  // outlives every use; stuck addresses stay valid
    so.persist_mode = device::PersistRegion::Mode::kAttach;
    GfslStack stack(gfsl_config(cfg), so);
    Gfsl& sl = stack.gfsl();
    // Attaching reads no durable word, so damage injected now is what
    // recover() finds.
    stack.region()->attach_fault_plane(&plane);
    stack.region()->arm_fault_sections(plane);
    const auto frep = plane.inject({c.section, c.kind, c.seed + 1});
    ++c.res->runs;
    if (frep.injected && frep.before != frep.after) ++c.res->injected;

    // Accept either outcome of one recovery attempt: a typed refusal (only
    // the superblock section may refuse — every other section must always
    // converge) or a clean recovery whose contents match the closed image
    // exactly.  Returns false when the cell already failed.
    bool rejected = false;
    const auto accept = [&](const core::RecoveryReport& rec) -> bool {
      if (!rec.ok) {
        if (c.section == FaultSection::kSuperblock) {
          rejected = true;
          ++c.res->rejected_typed;
          ++c.res->detected;
          return true;
        }
        err = "recover() failed to converge: " + rec.error;
        cell_ok = false;
        return false;
      }
      ++c.res->recoveries;
      if (sl.collect() != expected) {
        err = "recovered contents diverge from the pre-close image";
        cell_ok = false;
        return false;
      }
      return true;
    };
    if (accept(sl.recover()) && c.kind == FaultKind::kStuckWord && !rejected) {
      // The failed cell re-asserts into the recovered image; a second
      // recovery must converge (or refuse) all over again — idempotence
      // under memory that will not stay fixed.
      plane.reassert();
      (void)accept(sl.recover());
    }
    plane.clear_stuck();
    if (!cell_ok) fail_cell(c, err, &sl);
  }
  if (!cell_ok) return false;  // region file left behind for inspection
  std::remove(path.c_str());
  return true;
}

// --- kDroppedBarrier: live-run arming, any section --------------------------

bool run_dropped_barrier_cell(CellCtx& c) {
  const CorruptSweepConfig& cfg = *c.cfg;
  const std::string path =
      cfg.work_dir + "/corrupt_" + device::fault_section_name(c.section) +
      "_dropbarrier_" + std::to_string(c.seed) + ".region";
  std::remove(path.c_str());
  StackOptions so;
  so.persist_path = path;
  MapOracle model;
  bool cell_ok = true;
  std::string err;
  {  // Live run with 1..8 persist barriers silently dropped.  MAP_SHARED
     // loses nothing without a machine crash, so the run must stay clean.
    FaultPlane plane;
    plane.arm_barrier_drops(1 + (c.seed % 8));
    GfslStack stack(gfsl_config(cfg), so);
    Gfsl& sl = stack.gfsl();
    // The constructor crosses no persist point: every armed drop lands in
    // the workload.
    stack.region()->attach_fault_plane(&plane);
    ++c.res->runs;
    if (!drive(stack, model, cfg.ops, cfg.key_range,
               derive_seed(cfg.base_seed, c.seed ^ 0xD20Bu), &err)) {
      cell_ok = false;
      fail_cell(c, err, &sl);
    } else {
      c.res->barriers_dropped += plane.barriers_dropped();
      const auto vrep = sl.validate(/*strict=*/false);
      if (!vrep.ok) {
        cell_ok = false;
        fail_cell(c, "validate failed under dropped barriers: " + vrep.error,
                  &sl);
      } else if (sl.collect() != model.collect()) {
        cell_ok = false;
        fail_cell(c, "contents diverged under dropped barriers", &sl);
      } else {
        stack.region()->mark_clean();
      }
    }
  }
  if (cell_ok) {  // Belt and braces: the closed image must still recover.
    so.persist_mode = device::PersistRegion::Mode::kAttach;
    GfslStack stack(gfsl_config(cfg), so);
    Gfsl& sl = stack.gfsl();
    const auto rec = sl.recover();
    if (!rec.ok) {
      cell_ok = false;
      fail_cell(c, "post-drop image failed to recover: " + rec.error, &sl);
    } else if (sl.collect() != model.collect()) {
      cell_ok = false;
      fail_cell(c, "post-drop recovery diverged from the model", &sl);
    } else {
      ++c.res->recoveries;
    }
  }
  if (cell_ok) std::remove(path.c_str());
  return cell_ok;
}

}  // namespace

CorruptSweepResult run_corrupt_sweep(const CorruptSweepConfig& cfg,
                                     std::FILE* progress) {
  CorruptSweepResult res;
  std::vector<FaultSection> sections = cfg.sections;
  if (sections.empty()) {
    for (int s = 0; s < device::kFaultSectionCount; ++s) {
      sections.push_back(static_cast<FaultSection>(s));
    }
  }
  std::vector<FaultKind> kinds = cfg.kinds;
  if (kinds.empty()) {
    for (int k = 0; k < device::kFaultKindCount; ++k) {
      kinds.push_back(static_cast<FaultKind>(k));
    }
  }
  for (const FaultSection section : sections) {
    for (const FaultKind kind : kinds) {
      if (progress != nullptr) {
        std::fprintf(progress, "corrupt-sweep: %s x %s (%llu seeds)\n",
                     device::fault_section_name(section),
                     device::fault_kind_name(kind),
                     static_cast<unsigned long long>(cfg.seeds));
        std::fflush(progress);
      }
      for (std::uint64_t seed = cfg.first_seed;
           seed < cfg.first_seed + cfg.seeds; ++seed) {
        CellCtx c;
        c.cfg = &cfg;
        c.section = section;
        c.kind = kind;
        c.seed = seed;
        c.res = &res;
        bool ok;
        if (kind == FaultKind::kDroppedBarrier) {
          ok = run_dropped_barrier_cell(c);
        } else if (section == FaultSection::kChunkData) {
          ok = run_chunk_cell(c);
        } else {
          ok = run_region_cell(c);
        }
        if (!ok) return res;
      }
    }
  }
  return res;
}

}  // namespace gfsl::harness
