#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "harness/postmortem.h"
#include "harness/stack.h"

namespace gfsl::harness {

namespace {

/// GTX 970 device memory budget for structure pools (§5.1: 4 GB total; some
/// headroom is reserved for the op arrays and runtime).
constexpr std::uint64_t kDeviceBudgetBytes = 3500ull * 1024 * 1024;

WorkloadConfig warmup_config(const WorkloadConfig& wl, std::uint64_t ops) {
  WorkloadConfig w = wl;
  w.num_ops = ops;
  w.seed = derive_seed(wl.seed, 0xCAFE);
  // Warm the cache with reads only so the structure is unchanged when the
  // measured run starts.
  w.mix = kContainsOnly;
  return w;
}

}  // namespace

std::vector<std::uint64_t> sweep_ranges(std::uint64_t max_range) {
  static constexpr std::uint64_t kAll[] = {
      10'000,     30'000,     100'000,    300'000,    1'000'000,
      3'000'000,  10'000'000, 30'000'000, 100'000'000};
  std::vector<std::uint64_t> out;
  for (const auto r : kAll) {
    if (r <= max_range) out.push_back(r);
  }
  return out;
}

std::uint32_t gfsl_pool_chunks(const WorkloadConfig& wl, int team_size) {
  const std::uint64_t prefill =
      wl.prefill == Prefill::Empty
          ? 0
          : (wl.prefill == Prefill::HalfRange ? wl.key_range / 2 : wl.key_range);
  const std::uint64_t updates =
      wl.num_ops *
      static_cast<std::uint64_t>(wl.mix.insert_pct + wl.mix.delete_pct) / 100;
  const int dsize = team_size - 2;
  std::uint64_t chunks =
      (prefill + updates) * 3 / static_cast<std::uint64_t>(dsize) + 4096;
  const std::uint64_t cap =
      kDeviceBudgetBytes / (static_cast<std::uint64_t>(team_size) * 8);
  chunks = std::min(chunks, cap);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(chunks, 0xFFFFFFFEull));
}

std::uint32_t mc_pool_slots(const WorkloadConfig& wl) {
  const std::uint64_t prefill =
      wl.prefill == Prefill::Empty
          ? 0
          : (wl.prefill == Prefill::HalfRange ? wl.key_range / 2 : wl.key_range);
  const std::uint64_t inserts =
      wl.num_ops * static_cast<std::uint64_t>(wl.mix.insert_pct) / 100;
  // ~4 slots per node at p_key = 0.5 (header + meta + E[height] = 2 links),
  // with slack for CAS-failure re-allocations.
  std::uint64_t slots = (prefill + inserts) * 6 + 4096;
  const std::uint64_t cap = kDeviceBudgetBytes / 8;
  slots = std::min(slots, cap);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(slots, 0xFFFFFFFEull));
}

namespace {

ContentionInputs contention_inputs(const WorkloadConfig& wl) {
  ContentionInputs c;
  const double prefill =
      wl.prefill == Prefill::Empty
          ? 0.0
          : (wl.prefill == Prefill::HalfRange
                 ? static_cast<double>(wl.key_range) / 2
                 : static_cast<double>(wl.key_range));
  // Uniform keys: net growth is bounded by the insert/delete imbalance; the
  // average live size is well approximated by the prefill for the paper's
  // symmetric mixes and by half the op count for grow-from-empty runs.
  const double grow =
      static_cast<double>(wl.num_ops) *
      static_cast<double>(wl.mix.insert_pct - wl.mix.delete_pct) / 100.0 / 2.0;
  c.structure_keys = std::max(64.0, prefill + std::max(0.0, grow));
  c.update_fraction =
      static_cast<double>(wl.mix.insert_pct + wl.mix.delete_pct) / 100.0;
  return c;
}

double conflict_rate(double in_flight, double u, double window,
                     double targets) {
  const double raw = in_flight * u * u * window / std::max(targets, 1.0);
  const double p = std::min(raw, 0.80);  // retry feedback diverges at 1
  return p / (1.0 - p);
}

}  // namespace

void sample_structure_gauges(obs::MetricsRegistry& reg, const core::Gfsl& sl) {
  // Non-strict: concurrent histories may legally leave stale upper keys.
  const core::ValidationReport v = sl.validate(false);
  reg.set_gauge(obs::kHeight, static_cast<double>(v.height));
  reg.set_gauge(obs::kBottomKeys, static_cast<double>(v.bottom_keys));
  reg.set_gauge(obs::kLiveChunks, static_cast<double>(v.live_chunks));
  reg.set_gauge(obs::kZombieChunks, static_cast<double>(v.zombie_chunks));
  reg.set_gauge(obs::kChunksAllocated,
                static_cast<double>(sl.chunks_allocated()));
  const double slots = static_cast<double>(v.live_chunks) *
                       static_cast<double>(sl.team_size() - 2);
  reg.set_gauge(obs::kChunkOccupancy,
                slots > 0.0 ? static_cast<double>(v.data_entries) / slots
                            : 0.0);
  reg.set_gauge(obs::kLimboChunks, static_cast<double>(v.limbo_chunks));
  reg.set_gauge(obs::kFreeChunks, static_cast<double>(v.free_chunks));
  if (const device::EpochManager* ep = sl.epochs(); ep != nullptr) {
    reg.set_gauge(obs::kEpochLag, static_cast<double>(ep->epoch_lag()));
  }
  if (const core::SnapshotManager* sn = sl.snapshots(); sn != nullptr) {
    reg.set_gauge(obs::kActiveSnapshots,
                  static_cast<double>(sn->active_snapshots()));
    reg.set_gauge(obs::kSnapshotAgeRevs,
                  static_cast<double>(sn->oldest_snapshot_age()));
    reg.set_gauge(obs::kVersionRecordsLive,
                  static_cast<double>(sn->records_live()));
  }
  if (const core::ForesightIndex* fs = sl.foresight(); fs != nullptr) {
    reg.set_gauge(obs::kForesightEntries, static_cast<double>(fs->entries()));
    reg.set_gauge(obs::kForesightDirty,
                  static_cast<double>(fs->dirty_pending()));
  }
  if (const core::IntegritySidecar* ic = sl.integrity(); ic != nullptr) {
    reg.set_gauge(obs::kSealedChunks, static_cast<double>(ic->sealed_count()));
    reg.set_gauge(obs::kScrubSuspects,
                  static_cast<double>(ic->suspect_count()));
  }
}

void apply_gfsl_contention(model::KernelRun& k,
                           const model::OccupancyResult& occ,
                           const ContentionInputs& c, int team_size) {
  if (c.update_fraction <= 0.0 || k.ops == 0) return;
  const auto& gpu = model::gtx970();
  const double teams_in_flight =
      occ.achieved_occupancy * gpu.max_warps_per_sm * gpu.num_sms;
  // Lock conflicts target bottom-level chunks; the bottom lock is held for
  // the rest of the update (§4.2.2: "It remains locked until the Insert
  // operation is completed"), so the window spans the whole operation.
  constexpr double kLockWindow = 1.0;
  const double chunks =
      c.structure_keys / (static_cast<double>(team_size - 2) * 0.6);
  const double extra = conflict_rate(teams_in_flight, c.update_fraction,
                                     kLockWindow, chunks);
  const auto spins =
      static_cast<std::uint64_t>(extra * static_cast<double>(k.ops));
  k.lock_spins += spins;
  k.mem_epochs += spins;  // each failed attempt re-reads the chunk
}

void apply_mc_contention(model::KernelRun& k,
                         const model::OccupancyResult& occ,
                         const ContentionInputs& c) {
  if (c.update_fraction <= 0.0 || k.ops == 0) return;
  const auto& gpu = model::gtx970();
  const double lanes_in_flight = occ.achieved_occupancy *
                                 gpu.max_warps_per_sm * gpu.num_sms *
                                 gpu.warp_size;
  // Optimistic find-then-CAS: the conflict window is the whole operation and
  // every retry repeats the traversal, including its memory traffic.
  const double extra =
      conflict_rate(lanes_in_flight, c.update_fraction, 1.0, c.structure_keys);
  const double scale = 1.0 + extra;
  auto grow = [&](std::uint64_t& v) {
    v = static_cast<std::uint64_t>(static_cast<double>(v) * scale);
  };
  grow(k.mem_epochs);
  grow(k.warp_steps);
  grow(k.mem.transactions);
  grow(k.mem.l2_hits);
  grow(k.mem.dram_transactions);
  grow(k.mem.bytes_moved);
  grow(k.mem.atomics);
  grow(k.mem.lane_reads);
}

Measurement measure_gfsl(const WorkloadConfig& wl,
                         const StructureSetup& setup) {
  Measurement m;
  core::GfslConfig cfg;
  cfg.team_size = setup.team_size;
  cfg.p_chunk = setup.p_chunk;
  cfg.pool_chunks = gfsl_pool_chunks(wl, setup.team_size);
  StackOptions so;
  so.persist_path = setup.persist_path;
  // The scanner needs versioned mutations; the EpochManager rides along so
  // pruned version records get their grace period instead of leaking.
  so.epochs = setup.snapshot_scan;
  so.snapshots = setup.snapshot_scan;
  so.foresight = setup.foresight;
  so.integrity = setup.integrity || setup.scrub_passes > 0;
  GfslStack stack(cfg, so);
  core::Gfsl& sl = stack.gfsl();
  device::DeviceMemory& mem = stack.mem();

  sl.bulk_load(generate_prefill(wl));  // publishes the foresight table too

  RunConfig rc;
  rc.num_workers = setup.num_workers;
  rc.seed = derive_seed(wl.seed, 0x6F51);

  if (setup.warmup_ops > 0) {
    const auto warm = generate_ops(warmup_config(wl, setup.warmup_ops));
    rc.flush_cache_before = true;
    (void)run_gfsl(sl, warm, rc, mem);
    rc.flush_cache_before = false;  // measured run starts warm, as in steady
                                    // state of the paper's 10M-op launches
  }

  const auto ops = generate_ops(wl);
  rc.metrics = setup.metrics;  // telemetry covers only the measured run
  rc.trace = setup.trace;
  // On-demand postmortem with no trace attached: arm a clockless
  // flight-recorder session for the measured run so the bundle has event
  // tails to show.
  obs::TraceSession recorder(256, /*timestamps=*/false);
  if (!setup.postmortem_out.empty() && rc.trace == nullptr) {
    rc.trace = &recorder;
  }
  // Concurrent snapshot scanner: one extra thread (team id num_workers)
  // repeatedly takes a snapshot and harvests consistent subranges through
  // scan_at while the workers mutate.  Each harvest is checked for the one
  // property scan_at owes its caller regardless of concurrency: strictly
  // ascending keys with no duplicates.
  std::atomic<bool> scan_stop{false};
  std::thread scanner;
  if (setup.snapshot_scan) {
    scanner = std::thread([&] {
      simt::Team team(sl.team_size(), setup.num_workers,
                      derive_seed(wl.seed, 0x5CA7));
      if (setup.metrics != nullptr &&
          setup.metrics->shards() > setup.num_workers) {
        team.set_metrics(&setup.metrics->shard(setup.num_workers));
      }
      Xoshiro256ss rng(derive_seed(wl.seed, 0x5CA8));
      const std::uint64_t range = std::max<std::uint64_t>(wl.key_range, 2);
      const std::uint64_t span = std::max<std::uint64_t>(range / 64, 64);
      std::vector<std::pair<Key, Value>> out;
      while (!scan_stop.load(std::memory_order_acquire)) {
        core::Snapshot s = sl.snapshot();
        for (int i = 0; i < 4 && !scan_stop.load(std::memory_order_acquire);
             ++i) {
          const std::uint64_t lo64 = 1 + rng.below(range - 1);
          const Key lo = static_cast<Key>(
              std::min<std::uint64_t>(lo64, MAX_USER_KEY));
          const Key hi = static_cast<Key>(
              std::min<std::uint64_t>(lo64 + span, MAX_USER_KEY));
          out.clear();
          const core::ScanAtStatus st =
              sl.scan_at(team, s, lo, hi, out, /*limit=*/4096);
          if (st == core::ScanAtStatus::kOk) {
            for (std::size_t j = 1; j < out.size(); ++j) {
              if (out[j - 1].first >= out[j].first) {
                std::abort();  // scan_at broke its ordering contract
              }
            }
            ++m.snapshot_scans;
            m.snapshot_scan_items += out.size();
          } else {
            ++m.snapshot_scans_expired;
            break;
          }
        }
        sl.release_snapshot(s);
      }
    });
  }

  RunResult rr;
  if (setup.batch_size > 0) {
    BatchRunOptions bo;
    bo.batch_size = setup.batch_size;
    core::BatchResult br;
    rr = run_gfsl_batched(sl, ops, rc, mem, bo, &br);
    m.batch = std::move(br.stats);
  } else {
    rr = run_gfsl(sl, ops, rc, mem);
  }
  if (scanner.joinable()) {
    scan_stop.store(true, std::memory_order_release);
    scanner.join();
  }
  if (const core::IntegritySidecar* integrity = sl.integrity()) {
    // Post-run online scrub: a medic team walks every sealed chunk.  On an
    // undamaged run every pass is a full-verify no-op — the per-pass cost,
    // not the findings, is the datum.  The medic's team id sits past the
    // workers (and the scanner thread, when armed).
    const int medic_id = setup.num_workers + (setup.snapshot_scan ? 1 : 0);
    simt::Team medic(sl.team_size(), medic_id, derive_seed(wl.seed, 0x5C2B));
    if (setup.metrics != nullptr && setup.metrics->shards() > medic_id) {
      medic.set_metrics(&setup.metrics->shard(medic_id));
    }
    for (int p = 0; p < setup.scrub_passes; ++p) {
      const core::ScrubReport sr = sl.scrub_pass(medic);
      m.scrub_chunks_scanned += sr.chunks_scanned;
      m.scrub_mismatches += sr.mismatches;
      m.scrub_repaired += sr.repaired;
      m.scrub_quarantined += sr.quarantined;
    }
    m.sealed_chunks = integrity->sealed_count();
    m.scrub_suspects = integrity->suspect_count();
  }
  if (setup.metrics != nullptr) sample_structure_gauges(*setup.metrics, sl);

  if (!setup.postmortem_out.empty()) {
    const core::ValidationReport v = sl.validate(/*strict=*/false);
    PostmortemContext ctx;
    ctx.reason = v.ok ? "on_demand" : "validate_failure";
    ctx.detail = v.error;
    ctx.gfsl = &sl;
    ctx.metrics = setup.metrics;
    const obs::TraceSession* session = rc.trace;
    for (int t = 0; session != nullptr && t < session->teams(); ++t) {
      ctx.rings.push_back(session->team(t));
    }
    ctx.info = {{"harness", "measure_gfsl"},
                {"seed", std::to_string(wl.seed)},
                {"ops", std::to_string(wl.num_ops)},
                {"key_range", std::to_string(wl.key_range)},
                {"mix", wl.mix.name()},
                {"team_size", std::to_string(setup.team_size)},
                {"workers", std::to_string(setup.num_workers)},
                {"batch_size", std::to_string(setup.batch_size)}};
    std::ofstream out(setup.postmortem_out);
    if (out) write_postmortem(out, ctx);
  }

  if (stack.region() != nullptr) stack.region()->mark_clean();
  const model::Occupancy occ_calc;
  const auto occ = occ_calc.compute(model::kGfslKernel, setup.warps_per_block);
  apply_gfsl_contention(rr.kernel, occ, contention_inputs(wl),
                        setup.team_size);
  const model::CostModel cm;
  m.detail = cm.throughput(rr.kernel, occ);
  m.model_mops = m.detail.mops;
  m.sim_mops = rr.sim_wall_seconds > 0
                   ? static_cast<double>(ops.size()) / rr.sim_wall_seconds / 1e6
                   : 0.0;
  m.oom = rr.out_of_memory;
  m.kernel = rr.kernel;
  m.team_totals = rr.team_totals;
  m.avg_chunks_per_traversal = sl.avg_chunks_per_traversal();
  return m;
}

Measurement measure_mc(const WorkloadConfig& wl, const StructureSetup& setup) {
  Measurement m;
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.p_key = wl.p_key;
  cfg.max_height = wl.mc_max_height;
  cfg.pool_slots = mc_pool_slots(wl);
  baseline::McSkiplist sl(cfg, &mem);

  sl.bulk_load(generate_prefill(wl), derive_seed(wl.seed, 0xB0B));

  RunConfig rc;
  rc.num_workers = setup.num_workers;
  rc.seed = derive_seed(wl.seed, 0x6F52);

  if (setup.warmup_ops > 0) {
    const auto warm = generate_ops(warmup_config(wl, setup.warmup_ops));
    rc.flush_cache_before = true;
    (void)run_mc(sl, warm, rc, mem);
    rc.flush_cache_before = false;
  }

  const auto ops = generate_ops(wl);
  rc.metrics = setup.metrics;  // telemetry covers only the measured run
  rc.trace = setup.trace;
  RunResult rr = run_mc(sl, ops, rc, mem);

  const model::Occupancy occ_calc;
  const auto occ = occ_calc.compute(model::kMcKernel, setup.warps_per_block);
  apply_mc_contention(rr.kernel, occ, contention_inputs(wl));
  const model::CostModel cm;
  m.detail = cm.throughput(rr.kernel, occ);
  m.model_mops = m.detail.mops;
  m.sim_mops = rr.sim_wall_seconds > 0
                   ? static_cast<double>(ops.size()) / rr.sim_wall_seconds / 1e6
                   : 0.0;
  m.oom = rr.out_of_memory;
  m.kernel = rr.kernel;
  return m;
}

Measurement measure_gfsl_dual(const WorkloadConfig& wl,
                              const StructureSetup& setup_in) {
  StructureSetup setup = setup_in;
  setup.team_size = 16;  // two 16-lane teams fill one 32-lane warp
  if (setup.num_workers % 2 != 0) ++setup.num_workers;

  Measurement m;
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = setup.team_size;
  cfg.p_chunk = setup.p_chunk;
  cfg.pool_chunks = gfsl_pool_chunks(wl, setup.team_size);
  core::Gfsl sl(cfg, &mem);

  sl.bulk_load(generate_prefill(wl));

  RunConfig rc;
  rc.num_workers = setup.num_workers;
  rc.seed = derive_seed(wl.seed, 0x6F53);

  if (setup.warmup_ops > 0) {
    const auto warm = generate_ops(warmup_config(wl, setup.warmup_ops));
    rc.flush_cache_before = true;
    (void)run_gfsl_paired(sl, warm, rc, mem);
    rc.flush_cache_before = false;
  }

  const auto ops = generate_ops(wl);
  rc.metrics = setup.metrics;  // telemetry covers only the measured run
  rc.trace = setup.trace;
  RunResult rr = run_gfsl_paired(sl, ops, rc, mem);
  if (setup.metrics != nullptr) sample_structure_gauges(*setup.metrics, sl);

  const model::Occupancy occ_calc;
  const auto occ = occ_calc.compute(model::kGfslKernel, setup.warps_per_block);
  apply_gfsl_contention(rr.kernel, occ, contention_inputs(wl),
                        setup.team_size);
  const model::CostModel cm;
  m.detail = cm.throughput(rr.kernel, occ, /*teams_per_warp=*/2);
  m.model_mops = m.detail.mops;
  m.sim_mops = rr.sim_wall_seconds > 0
                   ? static_cast<double>(ops.size()) / rr.sim_wall_seconds / 1e6
                   : 0.0;
  m.oom = rr.out_of_memory;
  m.kernel = rr.kernel;
  m.team_totals = rr.team_totals;
  m.avg_chunks_per_traversal = sl.avg_chunks_per_traversal();
  return m;
}

namespace {

/// Per-repetition seeds chain from the previous repetition's seed.
Repeated repeat(WorkloadConfig wl, const StructureSetup& setup, int reps,
                Measurement (*measure)(const WorkloadConfig&,
                                       const StructureSetup&)) {
  Repeated out;
  RunStats stats;
  for (int r = 0; r < reps; ++r) {
    wl.seed = derive_seed(wl.seed, static_cast<std::uint64_t>(r) + 1);
    const auto m = measure(wl, setup);
    out.oom = out.oom || m.oom;
    stats.add(m.model_mops);
    out.samples.push_back(m.model_mops);
  }
  out.mops = stats.summarize();
  return out;
}

}  // namespace

Repeated repeat_gfsl_dual(WorkloadConfig wl, const StructureSetup& setup,
                          int reps) {
  return repeat(wl, setup, reps, measure_gfsl_dual);
}

Repeated repeat_gfsl(WorkloadConfig wl, const StructureSetup& setup,
                     int reps) {
  return repeat(wl, setup, reps, measure_gfsl);
}

Repeated repeat_mc(WorkloadConfig wl, const StructureSetup& setup, int reps) {
  return repeat(wl, setup, reps, measure_mc);
}

}  // namespace gfsl::harness
