// google-benchmark micro suite: costs of the cooperative primitives, chunk
// kernels and traversal building blocks in the simulator.  These measure
// *simulator* speed (host nanoseconds), useful for keeping the simulation
// itself fast; the modeled-GPU numbers come from the fig_*/table_* benches.
#include <benchmark/benchmark.h>

#include "baseline/mc_skiplist.h"
#include "harness/stack.h"
#include "simt/team.h"

namespace {

using namespace gfsl;

void BM_Ballot(benchmark::State& state) {
  simt::Team team(32, 0, 1);
  simt::LaneVec<bool> p(false);
  p[13] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(team.ballot(p));
  }
}
BENCHMARK(BM_Ballot);

void BM_Shfl(benchmark::State& state) {
  simt::Team team(32, 0, 1);
  simt::LaneVec<std::uint64_t> v;
  for (int i = 0; i < 32; ++i) v[i] = static_cast<std::uint64_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(team.shfl(v, 17));
  }
}
BENCHMARK(BM_Shfl);

struct GfslBench {
  explicit GfslBench(Key prefill, harness::StackOptions opts = {})
      : stack(config(), opts), team(32, 0, 1) {
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 1; k <= prefill; ++k) pairs.emplace_back(k * 2, k);
    stack.gfsl().bulk_load(pairs);
  }
  static core::GfslConfig config() {
    core::GfslConfig cfg;
    cfg.team_size = 32;
    cfg.pool_chunks = 1u << 16;
    return cfg;
  }
  core::Gfsl& sl() { return stack.gfsl(); }
  harness::GfslStack stack;
  simt::Team team;
};

// The detached loops.  Their A/B partners with metrics, the flight recorder,
// leases, a durable region or integrity seals attached are the arms of the
// micro_ops, persist_overhead and integrity_overhead campaigns
// (harness/campaign.cpp), which interleave the arms per rep and report
// per-rep ratios against these loops.
void BM_GfslContains(benchmark::State& state) {
  GfslBench b(10'000);
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.sl().contains(b.team, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_GfslContains);

void BM_GfslInsertErase(benchmark::State& state) {
  GfslBench b(10'000);
  Key k = 50'001;
  for (auto _ : state) {
    b.sl().insert(b.team, k, 0);
    b.sl().erase(b.team, k);
    ++k;
  }
}
BENCHMARK(BM_GfslInsertErase);

// A/B partners with epoch reclamation attached: every op pins/unpins an
// epoch slot, traversal reads verify generation stamps, and erase-side
// merges retire chunks to limbo.  The delta against the detached loops is
// the fault-free EBR overhead (DESIGN.md §9 budgets it within noise for
// reads and a few percent for updates).
void BM_GfslInsertEraseWithEpochs(benchmark::State& state) {
  GfslBench b(10'000, {.epochs = true});
  Key k = 50'001;
  for (auto _ : state) {
    b.sl().insert(b.team, k, 0);
    b.sl().erase(b.team, k);
    ++k;
  }
}
BENCHMARK(BM_GfslInsertEraseWithEpochs);

void BM_GfslContainsWithEpochs(benchmark::State& state) {
  GfslBench b(10'000, {.epochs = true});
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.sl().contains(b.team, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_GfslContainsWithEpochs);

void BM_GfslContainsNoAccounting(benchmark::State& state) {
  GfslBench b(10'000);
  b.stack.mem().set_accounting(false);
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.sl().contains(b.team, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_GfslContainsNoAccounting);

void BM_McContains(benchmark::State& state) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 1u << 22;
  baseline::McSkiplist sl(cfg, &mem);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 1; k <= 10'000; ++k) pairs.emplace_back(k * 2, k);
  sl.bulk_load(pairs, 1);
  baseline::McContext ctx(0);
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sl.contains(ctx, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_McContains);

void BM_GfslScan(benchmark::State& state) {
  GfslBench b(20'000);
  const auto width = static_cast<Key>(state.range(0));
  Key lo = 2;
  std::vector<std::pair<Key, Value>> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(b.sl().scan(b.team, lo, lo + width, out));
    lo = (lo % 30'000) + 2;
  }
  state.SetItemsProcessed(state.iterations() * (width / 2));
}
BENCHMARK(BM_GfslScan)->Arg(64)->Arg(1024);

void BM_GfslValidate(benchmark::State& state) {
  GfslBench b(static_cast<Key>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.sl().validate().ok);
  }
}
BENCHMARK(BM_GfslValidate)->Arg(1'000)->Arg(10'000);

void BM_CacheSimAccess(benchmark::State& state) {
  device::CacheSim cache;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr += 128;
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_BulkLoad(benchmark::State& state) {
  const auto n = static_cast<Key>(state.range(0));
  for (auto _ : state) {
    GfslBench b(n);
    benchmark::DoNotOptimize(b.sl().size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BulkLoad)->Arg(1'000)->Arg(10'000);

}  // namespace
