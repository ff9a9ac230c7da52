// gfsl_perfbench — the repository's end-to-end benchmark driver.
//
//   gfsl_perfbench --workload lookup_large|write_churn|scan_ingest
//                  --seed N --seconds S --trace 0|1
//                  [--scale full|tiny] [--out-dir DIR]
//
// The driver generates every input from the seed (prefill pairs and op
// arrays), builds the structure through the public API of core::Gfsl, drives
// it closed-loop from at most three busy threads for the requested wall
// time, checks every output against an oracle, and prints one report line
// per metric ("metric <name> <value> <unit>") followed by a JSON result line.
//
// An untimed warm-up (min(3 s, 0.3 x --seconds)) precedes the measured time.
// --trace 0 measures one untraced window (the end-to-end metrics).
// --trace 1 splits the time into three windows on the same structure and
// op streams: A untraced, B with device accounting off (diagnostic only; its
// model numbers are discarded), C traced.  A per-layer metric of a layer the
// workload never calls (e.g. sched.* on a per-op workload) reads 0.  Spans are recorded by this file
// around each public call into the library — never inside it — kept in
// memory and written to --out-dir at exit.  Per-layer metrics come from the
// spans, from the library's public counters read from outside, and (window C
// only) from an attached obs::MetricsRegistry.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "core/gfsl.h"
#include "harness/experiment.h"
#include "model/cost_model.h"
#include "model/occupancy.h"
#include "obs/metrics.h"
#include "sched/batch_dispatch.h"
#include "simt/team.h"

namespace {

using namespace gfsl;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool batched = false;      // kernel-style batches instead of per-op calls
  int clients = 3;           // per-op client teams, or batch writer teams
  bool scanner = false;      // one extra snapshot-scan thread
  std::uint64_t range = 0;   // keys are 1..range
  std::uint64_t prefill = 0; // expected keys bulk-loaded before the run
  int insert_pct = 0;
  int erase_pct = 0;
  bool foresight = false;
  bool snapshots = false;
  int setup_reps = 1;        // set-ups timed; setup_s is their median
  std::size_t pool_ops = 0;  // per-client op array length (cycled)
};

constexpr std::size_t kBatchOps = 4096;
constexpr std::size_t kBatchPool = 256;  // pre-generated batches (cycled)
constexpr int kScansPerRound = 4;
constexpr std::size_t kScanLimit = 4096;
constexpr int kTeamSize = 32;
constexpr double kWarmupSeconds = 3.0;

WorkloadSpec make_spec(const std::string& name, bool tiny) {
  WorkloadSpec s;
  s.name = name;
  if (name == "lookup_large") {
    s.clients = 3;
    s.range = 8'000'000;
    s.prefill = 4'000'000;
    s.insert_pct = 1;
    s.erase_pct = 1;
    s.foresight = true;
    s.setup_reps = 3;
  } else if (name == "write_churn") {
    s.clients = 3;
    s.range = 100'000;
    s.prefill = 50'000;
    s.insert_pct = 45;
    s.erase_pct = 45;
    s.setup_reps = 9;
  } else if (name == "scan_ingest") {
    s.batched = true;
    s.clients = 2;
    s.scanner = true;
    s.range = 1'000'000;
    s.prefill = 500'000;
    s.insert_pct = 20;
    s.erase_pct = 20;
    s.snapshots = true;
    s.setup_reps = 5;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  s.pool_ops = std::size_t{1} << 20;
  if (tiny) {
    s.range /= 64;
    s.prefill /= 64;
    s.setup_reps = 1;
    s.pool_ops = std::size_t{1} << 14;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Latency samples (raw, so percentiles are exact order statistics)
// ---------------------------------------------------------------------------

class Latencies {
 public:
  void record(std::uint64_t ns) {
    ns_.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, UINT32_MAX)));
  }
  void merge(const Latencies& o) {
    ns_.insert(ns_.end(), o.ns_.begin(), o.ns_.end());
  }
  void clear() { ns_.clear(); }
  std::uint64_t count() const { return ns_.size(); }

  /// Nearest-rank value at quantile q in [0, 1], in ns; 0 when empty.
  double quantile(double q) const {
    if (ns_.empty()) return 0.0;
    const std::size_t n = ns_.size();
    const std::size_t rank =
        std::clamp<std::size_t>(
            static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1,
            n) -
        1;
    std::vector<std::uint32_t> v = ns_;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                     v.end());
    return static_cast<double>(v[rank]);
  }

  /// The highest of p99.99/p99.9/p99/p90 with at least ten samples beyond
  /// it (p50 when even p90 has fewer).
  double tail_percentile() const {
    for (const double p : {99.99, 99.9, 99.0, 90.0}) {
      if (static_cast<double>(ns_.size()) * (1.0 - p / 100.0) >= 10.0) return p;
    }
    return 50.0;
  }

 private:
  std::vector<std::uint32_t> ns_;
};

// ---------------------------------------------------------------------------
// Spans: recorded around public library calls, per thread, in memory
// ---------------------------------------------------------------------------

enum SpanName : std::uint8_t {
  kSpContains,
  kSpInsert,
  kSpErase,
  kSpBatch,
  kSpPlanShards,
  kSpExecuteShard,
  kSpScanRound,
  kSpSnapshot,
  kSpScanAt,
  kSpReleaseSnapshot,
  kSpSetup,
  kSpBulkLoad,
  kSpForesightPrime,
  kSpVerify,
  kSpanNames,
};

const char* const kSpanNameStr[kSpanNames] = {
    "contains",   "insert",      "erase",        "batch",
    "plan_shards", "execute_shard", "scan_round", "snapshot",
    "scan_at",    "release_snapshot", "setup",   "bulk_load",
    "foresight_prime", "verify"};

constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

struct Span {
  std::uint64_t parent = kNoSpan;
  std::uint64_t req = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  SpanName name = kSpContains;
};

/// One thread's span buffer.  Span ids are (thread << 40) | index, so a
/// child recorded on another thread can name its parent.
class SpanLog {
 public:
  static constexpr std::size_t kCap = std::size_t{3} << 20;

  explicit SpanLog(std::uint64_t thread) : thread_(thread) {}

  std::uint64_t begin(SpanName n, std::uint64_t parent, std::uint64_t req,
                      std::int64_t t0) {
    if (spans_.size() >= kCap) {
      ++dropped_;
      return kNoSpan;
    }
    spans_.push_back({parent, req, t0, t0, n});
    return (thread_ << 40) | (spans_.size() - 1);
  }
  void end(std::uint64_t id, std::int64_t t1) {
    if (id != kNoSpan) spans_[id & ((std::uint64_t{1} << 40) - 1)].t1 = t1;
  }
  std::uint64_t add(SpanName n, std::uint64_t parent, std::uint64_t req,
                    std::int64_t t0, std::int64_t t1) {
    const std::uint64_t id = begin(n, parent, req, t0);
    end(id, t1);
    return id;
  }

  std::uint64_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint64_t thread_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

struct SpanSummary {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Per-name totals with self time = duration − union of child intervals.
std::vector<SpanSummary> summarize_spans(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != kNoSpan) children[s.parent].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<SpanSummary> out(kSpanNames);
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.t1 - s.t0);
      double covered = 0.0;
      const auto it = children.find((log->thread() << 40) | i);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
          a = std::max(a, s.t0);
          b = std::min(b, s.t1);
          if (b <= a) continue;
          if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
          } else {
            if (open) covered += static_cast<double>(cur_hi - cur_lo);
            cur_lo = a;
            cur_hi = b;
            open = true;
          }
        }
        if (open) covered += static_cast<double>(cur_hi - cur_lo);
      }
      SpanSummary& sum = out[s.name];
      ++sum.count;
      sum.total_ns += dur;
      sum.self_ns += dur - covered;
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "name\tid\tparent\treq\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\t%llu\t%lld\t%llu\t%lld\t%lld\n", kSpanNameStr[s.name],
                   static_cast<unsigned long long>((log->thread() << 40) | i),
                   s.parent == kNoSpan ? -1LL
                                       : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1));
    }
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Inputs (all derived from the seed)
// ---------------------------------------------------------------------------

Value nonzero_value(std::uint64_t x) {
  return static_cast<Value>(x | 1u);
}

struct Inputs {
  std::vector<std::pair<Key, Value>> prefill;  // sorted, distinct
  std::vector<std::vector<Op>> client_ops;     // per-op workloads
  std::vector<std::vector<Op>> batches;        // batched workload
};

Op random_op(Xoshiro256ss& rng, const WorkloadSpec& spec, Key k) {
  const auto roll = static_cast<int>(rng.below(100));
  Op op{OpKind::Contains, k, 0, 0};
  if (roll < spec.insert_pct) {
    op.kind = OpKind::Insert;
    op.value = nonzero_value(rng.next());
  } else if (roll < spec.insert_pct + spec.erase_pct) {
    op.kind = OpKind::Delete;
  }
  return op;
}

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  Xoshiro256ss pre(derive_seed(seed, 1));
  const double p = static_cast<double>(spec.prefill) /
                   static_cast<double>(spec.range);
  in.prefill.reserve(spec.prefill + spec.prefill / 64 + 64);
  for (std::uint64_t k = 1; k <= spec.range; ++k) {
    if (pre.uniform() < p) {
      in.prefill.emplace_back(static_cast<Key>(k), nonzero_value(pre.next()));
    }
  }
  if (spec.batched) {
    Xoshiro256ss rng(derive_seed(seed, 2));
    in.batches.resize(kBatchPool);
    for (auto& b : in.batches) {
      b.reserve(kBatchOps);
      for (std::size_t i = 0; i < kBatchOps; ++i) {
        b.push_back(random_op(rng, spec,
                              static_cast<Key>(1 + rng.below(spec.range))));
      }
    }
  } else {
    // Client c owns the keys k with (k - 1) mod clients == c, so its return
    // values depend only on its own history and can be replayed exactly.
    const auto nc = static_cast<std::uint64_t>(spec.clients);
    in.client_ops.resize(static_cast<std::size_t>(spec.clients));
    for (std::uint64_t c = 0; c < nc; ++c) {
      Xoshiro256ss rng(derive_seed(seed, 16 + c));
      const std::uint64_t owned = (spec.range - c + nc - 1) / nc;
      auto& ops = in.client_ops[c];
      ops.reserve(spec.pool_ops);
      for (std::size_t i = 0; i < spec.pool_ops; ++i) {
        const std::uint64_t j = c + nc * rng.below(owned);
        ops.push_back(random_op(rng, spec, static_cast<Key>(j + 1)));
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Structure set-up
// ---------------------------------------------------------------------------

struct Structure {
  std::unique_ptr<device::DeviceMemory> mem;
  std::unique_ptr<device::EpochManager> epochs;
  std::unique_ptr<core::SnapshotManager> snaps;
  std::unique_ptr<core::ForesightIndex> foresight;
  std::unique_ptr<core::Gfsl> sl;
  double bulk_load_s = 0.0;
  double foresight_prime_s = 0.0;
};

std::uint32_t pool_chunks(const WorkloadSpec& spec) {
  return static_cast<std::uint32_t>(spec.prefill * 2 / (kTeamSize - 2) +
                                    16384);
}

/// Construction + bulk_load + foresight_prime: the set-up that setup_s times.
Structure build_structure(const WorkloadSpec& spec, const Inputs& in,
                          SpanLog* spans, std::uint64_t rep) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t setup_span =
      spans != nullptr ? spans->begin(kSpSetup, kNoSpan, rep, t0) : kNoSpan;
  Structure s;
  core::GfslConfig cfg;
  cfg.team_size = kTeamSize;
  cfg.pool_chunks = pool_chunks(spec);
  s.mem = std::make_unique<device::DeviceMemory>();
  s.epochs = std::make_unique<device::EpochManager>();
  if (spec.snapshots) {
    s.snaps = std::make_unique<core::SnapshotManager>(cfg.pool_chunks);
  }
  if (spec.foresight) {
    s.foresight = std::make_unique<core::ForesightIndex>(cfg.pool_chunks);
  }
  s.sl = std::make_unique<core::Gfsl>(cfg, s.mem.get(), nullptr, nullptr,
                                      s.epochs.get(), nullptr, s.snaps.get(),
                                      s.foresight.get(), nullptr);
  const std::int64_t b0 = now_ns();
  s.sl->bulk_load(in.prefill);
  const std::int64_t b1 = now_ns();
  s.bulk_load_s = static_cast<double>(b1 - b0) * 1e-9;
  if (spans != nullptr) spans->add(kSpBulkLoad, setup_span, rep, b0, b1);
  if (spec.foresight) {
    simt::Team primer(kTeamSize, spec.clients + 1, 0xF0E5);
    const std::int64_t f0 = now_ns();
    s.sl->foresight_prime(primer);
    const std::int64_t f1 = now_ns();
    s.foresight_prime_s = static_cast<double>(f1 - f0) * 1e-9;
    if (spans != nullptr) spans->add(kSpForesightPrime, setup_span, rep, f0, f1);
  }
  if (spans != nullptr) spans->end(setup_span, now_ns());
  return s;
}

/// Give each busy thread a CPU of its own (CPU 0 stays with the sampling
/// main thread) when the machine has enough; unpinned threads migrate and
/// flip the run between two throughput modes of the simulated L2's lock.
void pin_to_cpu(int cpu) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0 || static_cast<unsigned>(cpu) >= n) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Tear down in dependency order: the structure before what it points at.
void release(Structure& s) {
  s.sl.reset();
  s.foresight.reset();
  s.snaps.reset();
  s.epochs.reset();
  s.mem.reset();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// The closed-loop drivers
// ---------------------------------------------------------------------------

constexpr std::uint8_t kSkippedOp = 2;  // result-log code: op never applied

struct BatchCounters {
  std::uint64_t shards = 0, steals = 0, shard_ops = 0;
  std::uint64_t reuses = 0, fulls = 0, pins = 0;

  BatchCounters& operator+=(const BatchCounters& o) {
    shards += o.shards;
    steals += o.steals;
    shard_ops += o.shard_ops;
    reuses += o.reuses;
    fulls += o.fulls;
    pins += o.pins;
    return *this;
  }
};

struct Client {
  std::unique_ptr<simt::Team> team;
  std::uint64_t next = 0;             // ops issued so far (cyclic pool index)
  std::vector<std::uint8_t> results;  // per issued op: 0/1 or kSkippedOp
  Latencies lat[3];                   // per-op call wall ns, by OpKind
  std::unique_ptr<SpanLog> spans;
  BatchCounters bc;                   // batch writers only
  double shard_ns = 0.0;              // batch writers only
};

struct WindowStats {
  double wall_s = 0.0;
  std::uint64_t ops = 0;      // data-structure ops completed (not scans)
  std::uint64_t updates = 0;  // inserts + erases among them
  Latencies op_lat;
  Latencies kind_lat[3];
  Latencies batch_lat;
  Latencies scan_lat;      // snapshot + scans + release, per round
  Latencies snapshot_lat;  // snapshot() alone
  std::uint64_t batches = 0;
  std::uint64_t scan_calls = 0, scan_keys = 0, scans_expired = 0;
  double scan_at_ns = 0.0;
  double plan_ns = 0.0;
  double shard_ns = 0.0;
  BatchCounters bc;
  device::MemStats mem;
  simt::TeamCounters team;
  double epoch_lag_mean = 0.0;
  double records_live_mean = 0.0;
  obs::MetricsShard lib;  // library counters (traced window only)

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Inputs& in, Structure& st,
        std::uint64_t seed)
      : spec_(spec), in_(in), st_(st) {
    const int threads = spec.clients + (spec.scanner ? 1 : 0);
    for (int c = 0; c < threads; ++c) {
      auto cl = std::make_unique<Client>();
      cl->team = std::make_unique<simt::Team>(
          kTeamSize, c, derive_seed(seed, 100 + static_cast<std::uint64_t>(c)));
      cl->spans = std::make_unique<SpanLog>(static_cast<std::uint64_t>(c));
      clients_.push_back(std::move(cl));
    }
    scan_rng_ = std::make_unique<Xoshiro256ss>(derive_seed(seed, 3));
  }

  /// Run every client closed-loop for `seconds`; `traced` records spans and
  /// attaches a metrics registry to the teams.
  WindowStats run_window(double seconds, bool traced) {
    WindowStats w;
    const int nthreads = static_cast<int>(clients_.size());
    obs::MetricsRegistry reg(nthreads);
    std::vector<simt::TeamCounters> before;
    for (int c = 0; c < nthreads; ++c) {
      Client& cl = *clients_[static_cast<std::size_t>(c)];
      for (auto& h : cl.lat) h.clear();
      cl.bc = BatchCounters{};
      cl.shard_ns = 0.0;
      before.push_back(cl.team->counters());
      if (traced) cl.team->set_metrics(&reg.shard(c));
    }
    traced_ = traced;
    stop_.store(false);
    go_.store(false);
    published_.store(0);
    ready_.store(0);
    batch_lat_.clear();
    scan_lat_.clear();
    snapshot_lat_.clear();
    batches_ = scan_calls_ = scan_keys_ = scans_expired_ = 0;
    scan_at_ns_ = plan_ns_ = 0.0;
    const device::MemStats mem0 = st_.mem->snapshot();

    std::vector<std::thread> threads;
    abort_.store(false);
    std::string error;
    std::mutex error_mu;
    for (int c = 0; c < nthreads; ++c) {
      threads.emplace_back([&, c] {
        try {
          pin_to_cpu(c + 1);
          ready_.fetch_add(1);
          while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
          if (spec_.scanner && c == spec_.clients) {
            scanner_loop(c);
          } else if (spec_.batched) {
            writer_loop(c);
          } else {
            client_loop(c);
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> g(error_mu);
          error = e.what();
          abort_.store(true);
          stop_.store(true);
        }
      });
    }
    while (ready_.load() < nthreads) std::this_thread::yield();

    const auto t0 = Clock::now();
    go_.store(true, std::memory_order_release);
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    // Sample the gauges that only exist while the clients run.
    double lag_sum = 0.0, rec_sum = 0.0;
    std::uint64_t samples = 0;
    for (auto now = t0; now < deadline && !stop_.load(); now = Clock::now()) {
      std::this_thread::sleep_until(
          std::min(now + std::chrono::milliseconds(100), deadline));
      lag_sum += static_cast<double>(st_.epochs->epoch_lag());
      if (st_.snaps) rec_sum += static_cast<double>(st_.snaps->records_live());
      ++samples;
    }
    stop_.store(true);
    for (auto& t : threads) t.join();
    const auto t1 = Clock::now();
    if (abort_.load()) throw std::runtime_error("client failed: " + error);

    w.wall_s = std::chrono::duration<double>(t1 - t0).count();
    w.mem = st_.mem->snapshot() - mem0;
    w.epoch_lag_mean = samples ? lag_sum / static_cast<double>(samples) : 0.0;
    w.records_live_mean = samples ? rec_sum / static_cast<double>(samples) : 0.0;
    for (int c = 0; c < nthreads; ++c) {
      Client& cl = *clients_[static_cast<std::size_t>(c)];
      if (traced) cl.team->set_metrics(nullptr);
      if (c >= spec_.clients) continue;  // the scanner is not a writer team
      simt::TeamCounters d = cl.team->counters();
      const simt::TeamCounters& b = before[static_cast<std::size_t>(c)];
      d.instructions -= b.instructions;
      d.ballots -= b.ballots;
      d.shfls -= b.shfls;
      d.divergent_branches -= b.divergent_branches;
      d.lock_acquires -= b.lock_acquires;
      d.lock_spins -= b.lock_spins;
      d.restarts -= b.restarts;
      w.team += d;
      for (int k = 0; k < 3; ++k) {
        w.kind_lat[k].merge(cl.lat[k]);
        w.op_lat.merge(cl.lat[k]);
      }
      w.bc += cl.bc;
      w.shard_ns += cl.shard_ns;
    }
    if (spec_.batched) {
      w.ops = batches_ * kBatchOps;
      w.updates = 0;
      for (std::uint64_t b = batches_done_ - batches_; b < batches_done_; ++b) {
        for (const Op& op : in_.batches[b % in_.batches.size()]) {
          if (op.kind != OpKind::Contains) ++w.updates;
        }
      }
    } else {
      w.ops = w.op_lat.count();
      w.updates = w.kind_lat[0].count() + w.kind_lat[1].count();
    }
    w.batch_lat = batch_lat_;
    w.scan_lat = scan_lat_;
    w.snapshot_lat = snapshot_lat_;
    w.batches = batches_;
    w.scan_calls = scan_calls_;
    w.scan_keys = scan_keys_;
    w.scans_expired = scans_expired_;
    w.scan_at_ns = scan_at_ns_;
    w.plan_ns = plan_ns_;
    if (traced) w.lib = reg.merged();
    return w;
  }

  /// Replay every recorded outcome against the oracle and compare the final
  /// contents.  Returns wrong + skipped outcomes; `structure_ok` reports the
  /// collect() comparison and validate().
  std::uint64_t verify(bool* structure_ok, std::string* why) {
    std::vector<Value> table(spec_.range + 1, 0);
    for (const auto& [k, v] : in_.prefill) table[k] = v;
    std::uint64_t bad = 0;
    auto apply = [&](const Op& op, std::uint8_t got) {
      Value& cur = table[op.key];
      bool expect = false;
      switch (op.kind) {
        case OpKind::Insert: expect = cur == 0; break;
        case OpKind::Delete: expect = cur != 0; break;
        case OpKind::Contains: expect = cur != 0; break;
      }
      if (got == kSkippedOp) {
        ++bad;  // never applied: the structure is unchanged, so is the oracle
        return;
      }
      if ((got != 0) != expect) {
        if (++bad <= 8) {
          static constexpr const char* kKind[3] = {"insert", "erase", "contains"};
          std::printf("wrong outcome: %s(%u) returned %d, oracle %d\n",
                      kKind[static_cast<int>(op.kind)], op.key, got,
                      expect ? 1 : 0);
        }
      }
      if (expect && op.kind == OpKind::Insert) cur = op.value;
      if (expect && op.kind == OpKind::Delete) cur = 0;
    };
    if (spec_.batched) {
      // Ops on distinct keys commute and ops on one key run in submission
      // order, so submission-order replay equals (key, index)-order replay.
      for (std::uint64_t b = 0; b < batches_done_; ++b) {
        const auto& ops = in_.batches[b % in_.batches.size()];
        const std::uint8_t* out = outcomes_log_.data() + b * kBatchOps;
        for (std::size_t i = 0; i < ops.size(); ++i) apply(ops[i], out[i]);
      }
    } else {
      for (int c = 0; c < spec_.clients; ++c) {
        const Client& cl = *clients_[static_cast<std::size_t>(c)];
        const auto& ops = in_.client_ops[static_cast<std::size_t>(c)];
        for (std::uint64_t i = 0; i < cl.next; ++i) {
          apply(ops[i % ops.size()], cl.results[i]);
        }
      }
    }
    *structure_ok = true;
    const auto pairs = st_.sl->collect();
    std::uint64_t live = 0;
    for (const Value v : table) live += v != 0 ? 1 : 0;
    if (pairs.size() != live) {
      *structure_ok = false;
      *why = "collect() holds " + std::to_string(pairs.size()) +
             " keys, oracle " + std::to_string(live);
    }
    for (const auto& [k, v] : pairs) {
      if (k > spec_.range || table[k] != v) {
        *structure_ok = false;
        *why = "collect() disagrees with the oracle at key " + std::to_string(k);
        break;
      }
    }
    const core::ValidationReport vr = st_.sl->validate(/*strict=*/false);
    if (!vr.ok) {
      *structure_ok = false;
      *why = "validate(): " + vr.error;
    }
    return bad;
  }

  std::uint64_t scan_failures() const { return scan_bad_total_; }
  std::uint64_t scans_expired_total() const { return scans_expired_total_; }
  std::uint64_t scan_calls_total() const { return scan_calls_total_; }
  std::uint64_t ops_issued() const {
    if (spec_.batched) return batches_done_ * kBatchOps;
    std::uint64_t n = 0;
    for (int c = 0; c < spec_.clients; ++c) {
      n += clients_[static_cast<std::size_t>(c)]->next;
    }
    return n;
  }
  std::vector<const SpanLog*> span_logs() const {
    std::vector<const SpanLog*> out;
    for (const auto& c : clients_) out.push_back(c->spans.get());
    return out;
  }

 private:
  void client_loop(int c) {
    Client& cl = *clients_[static_cast<std::size_t>(c)];
    simt::Team& team = *cl.team;
    core::Gfsl& sl = *st_.sl;
    const auto& ops = in_.client_ops[static_cast<std::size_t>(c)];
    SpanLog* spans = traced_ ? cl.spans.get() : nullptr;
    while (!stop_.load(std::memory_order_relaxed)) {
      const Op& op = ops[cl.next % ops.size()];
      std::uint8_t r = 0;
      const std::int64_t t0 = now_ns();
      try {
        switch (op.kind) {
          case OpKind::Insert: r = sl.insert(team, op.key, op.value); break;
          case OpKind::Delete: r = sl.erase(team, op.key); break;
          case OpKind::Contains: r = sl.contains(team, op.key); break;
        }
      } catch (const std::bad_alloc&) {
        r = kSkippedOp;  // pool exhaustion: the insert left no trace
      }
      const std::int64_t t1 = now_ns();
      const auto kind = static_cast<std::size_t>(op.kind);
      cl.lat[kind].record(static_cast<std::uint64_t>(t1 - t0));
      if (spans != nullptr) {
        static constexpr SpanName kNames[3] = {kSpInsert, kSpErase, kSpContains};
        spans->add(kNames[kind], kNoSpan,
                   (static_cast<std::uint64_t>(c) << 48) | cl.next, t0, t1);
      }
      cl.results.push_back(r);
      ++cl.next;
    }
  }

  void drain_shards(int c, core::Rev rev) {
    Client& cl = *clients_[static_cast<std::size_t>(c)];
    SpanLog* spans = traced_ ? cl.spans.get() : nullptr;
    const auto& ops = in_.batches[cur_batch_ % in_.batches.size()];
    const std::uint64_t parent = batch_span_.load(std::memory_order_relaxed);
    int s;
    bool stolen = false;
    while ((s = queue_->pop(c, &stolen)) >= 0) {
      const auto& sh = plan_.shards[static_cast<std::size_t>(s)];
      const std::int64_t t0 = now_ns();
      const core::ShardExecStats ex = st_.sl->execute_shard(
          *cl.team, ops.data(), plan_.order.data(), sh.begin, sh.end,
          outcomes_.data(), nullptr, rev);
      const std::int64_t t1 = now_ns();
      if (spans != nullptr) {
        spans->add(kSpExecuteShard, parent, cur_batch_, t0, t1);
      }
      cl.shard_ns += static_cast<double>(t1 - t0);
      ++cl.bc.shards;
      cl.bc.steals += stolen ? 1 : 0;
      cl.bc.shard_ops += sh.end - sh.begin;
      cl.bc.reuses += ex.reuses;
      cl.bc.fulls += ex.fulls;
      cl.bc.pins += ex.pins;
    }
  }

  /// Writer 0 leads: it plans each batch, opens the whole-batch revision,
  /// publishes the batch, drains shards with the other writers, waits for
  /// them and closes the revision.  Others only drain.
  void writer_loop(int c) {
    constexpr std::uint64_t kQuit = ~std::uint64_t{0};
    Client& cl = *clients_[static_cast<std::size_t>(c)];
    if (c != 0) {
      std::uint64_t seen = 0;  // run_window resets the sequence to 0
      for (;;) {
        std::uint64_t s;
        while ((s = published_.load(std::memory_order_acquire)) == seen &&
               !abort_.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        if (s == kQuit || s == seen) break;
        seen = s;
        drain_shards(c, rev_);
        finished_.fetch_add(1, std::memory_order_acq_rel);
      }
      return;
    }
    SpanLog* spans = traced_ ? cl.spans.get() : nullptr;
    core::SnapshotManager* snaps = st_.sl->snapshots();
    std::uint64_t seq = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      cur_batch_ = batches_done_;
      const auto& ops = in_.batches[cur_batch_ % in_.batches.size()];
      const std::int64_t t0 = now_ns();
      const std::uint64_t bspan =
          spans != nullptr ? spans->begin(kSpBatch, kNoSpan, cur_batch_, t0)
                           : kNoSpan;
      batch_span_.store(bspan, std::memory_order_relaxed);
      plan_ = sched::plan_shards(ops, spec_.clients);
      const std::int64_t tp = now_ns();
      if (spans != nullptr) spans->add(kSpPlanShards, bspan, cur_batch_, t0, tp);
      plan_ns_ += static_cast<double>(tp - t0);
      queue_ = std::make_unique<sched::ShardQueue>(plan_);
      outcomes_.assign(kBatchOps,
                       static_cast<std::uint8_t>(core::BatchOpStatus::kSkipped));
      int slot = -1;
      rev_ = 0;
      if (snaps != nullptr) {
        slot = snaps->acquire_batch_slot();
        if (slot >= 0) rev_ = snaps->begin_commit(slot);
      }
      finished_.store(0, std::memory_order_relaxed);
      published_.store(++seq, std::memory_order_release);
      drain_shards(0, rev_);
      finished_.fetch_add(1, std::memory_order_acq_rel);
      while (finished_.load(std::memory_order_acquire) < spec_.clients) {
        if (abort_.load(std::memory_order_relaxed)) return;
        std::this_thread::yield();
      }
      if (slot >= 0) {
        snaps->end_commit(slot);
        snaps->release_batch_slot(slot);
      }
      const std::int64_t t1 = now_ns();
      if (spans != nullptr) spans->end(bspan, t1);
      batch_lat_.record(static_cast<std::uint64_t>(t1 - t0));
      outcomes_log_.insert(outcomes_log_.end(), outcomes_.begin(),
                           outcomes_.end());
      ++batches_done_;
      ++batches_;
    }
    published_.store(kQuit, std::memory_order_release);
  }

  void scanner_loop(int c) {
    Client& cl = *clients_[static_cast<std::size_t>(c)];
    simt::Team& team = *cl.team;
    core::Gfsl& sl = *st_.sl;
    SpanLog* spans = traced_ ? cl.spans.get() : nullptr;
    Xoshiro256ss& rng = *scan_rng_;
    const std::uint64_t span = std::max<std::uint64_t>(spec_.range / 64, 2);
    std::vector<std::pair<Key, Value>> out;
    out.reserve(kScanLimit);
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t round = scan_rounds_++;
      const std::int64_t t0 = now_ns();
      const std::uint64_t rspan =
          spans != nullptr ? spans->begin(kSpScanRound, kNoSpan, round, t0)
                           : kNoSpan;
      std::int64_t busy = 0;  // wall in library calls, excluding checks
      core::Snapshot snap = sl.snapshot();
      std::int64_t t = now_ns();
      busy += t - t0;
      if (spans != nullptr) spans->add(kSpSnapshot, rspan, round, t0, t);
      snapshot_lat_.record(static_cast<std::uint64_t>(t - t0));
      for (int i = 0; i < kScansPerRound; ++i) {
        const std::uint64_t lo64 = 1 + rng.below(spec_.range - span + 1);
        const Key lo = static_cast<Key>(lo64);
        const Key hi = static_cast<Key>(lo64 + span - 1);
        out.clear();
        const std::int64_t s0 = now_ns();
        // The scanner keeps its epoch pinned across each scan_at call, so
        // scan_at skips its own every-64-chunks pin refresh.  That refresh
        // re-descends from the head; after reclaim has pointed a stale down
        // pointer at the level-below head, the re-descent can land more than
        // 64 chunks before the window on every retry, and the scan loops.
        st_.epochs->pin(team.id());
        const core::ScanAtStatus stt =
            sl.scan_at(team, snap, lo, hi, out, kScanLimit);
        st_.epochs->unpin(team.id());
        const std::int64_t s1 = now_ns();
        busy += s1 - s0;
        scan_at_ns_ += static_cast<double>(s1 - s0);
        if (spans != nullptr) spans->add(kSpScanAt, rspan, round, s0, s1);
        ++scan_calls_;
        ++scan_calls_total_;
        if (stt != core::ScanAtStatus::kOk) {
          ++scans_expired_;
          ++scans_expired_total_;
          break;
        }
        bool ok = out.size() <= kScanLimit;
        for (std::size_t j = 0; ok && j < out.size(); ++j) {
          if (out[j].first < lo || out[j].first > hi ||
              (j > 0 && out[j - 1].first >= out[j].first)) {
            ok = false;
          }
        }
        if (!ok) ++scan_bad_total_;
        scan_keys_ += out.size();
      }
      const std::int64_t r0 = now_ns();
      sl.release_snapshot(snap);
      const std::int64_t r1 = now_ns();
      busy += r1 - r0;
      if (spans != nullptr) {
        spans->add(kSpReleaseSnapshot, rspan, round, r0, r1);
        spans->end(rspan, r1);
      }
      scan_lat_.record(static_cast<std::uint64_t>(busy));
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  Structure& st_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<Xoshiro256ss> scan_rng_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_{false};  // a client threw: release every waiter
  std::atomic<bool> go_{false};
  std::atomic<int> ready_{0};
  bool traced_ = false;

  // Batch engine hand-off (writer 0 -> other writers).
  std::atomic<std::uint64_t> published_{0};
  std::atomic<int> finished_{0};
  std::atomic<std::uint64_t> batch_span_{kNoSpan};
  sched::ShardPlan plan_;
  std::unique_ptr<sched::ShardQueue> queue_;
  std::vector<std::uint8_t> outcomes_;
  core::Rev rev_ = 0;
  std::uint64_t cur_batch_ = 0;
  std::uint64_t batches_done_ = 0;  // over all windows (verification)
  std::vector<std::uint8_t> outcomes_log_;

  // Per-window aggregates written by one thread each.
  Latencies batch_lat_, scan_lat_, snapshot_lat_;
  std::uint64_t batches_ = 0;
  std::uint64_t scan_calls_ = 0, scan_keys_ = 0, scans_expired_ = 0;
  std::uint64_t scan_rounds_ = 0;
  double scan_at_ns_ = 0.0, plan_ns_ = 0.0;
  // Over all windows.
  std::uint64_t scan_calls_total_ = 0, scans_expired_total_ = 0;
  std::uint64_t scan_bad_total_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
    std::printf("metric %s %.9g %s\n", name.c_str(), value, unit.c_str());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void print_latency(const char* what, const Latencies& h, double scale,
                   const char* unit) {
  const double tail = h.tail_percentile();
  std::printf("latency %s: p50=%.4g %s p%g=%.4g %s (n=%llu)\n", what,
              h.quantile(0.5) * scale, unit, tail,
              h.quantile(tail / 100.0) * scale, unit,
              static_cast<unsigned long long>(h.count()));
}

model::ModelResult model_window(const WorkloadSpec& spec,
                                const WindowStats& w) {
  model::KernelRun k;
  k.ops = w.ops;
  k.mem = w.mem;
  k.mem_epochs = w.mem.warp_reads + w.mem.atomics;
  k.warp_steps = w.team.instructions;
  k.lock_spins = w.team.lock_spins;
  const model::Occupancy occ_calc;
  const auto occ = occ_calc.compute(model::kGfslKernel, 16);
  harness::ContentionInputs ci;
  ci.structure_keys = static_cast<double>(spec.prefill);
  ci.update_fraction = static_cast<double>(spec.insert_pct + spec.erase_pct) / 100.0;
  harness::apply_gfsl_contention(k, occ, ci, kTeamSize);
  const model::CostModel cm;
  return cm.throughput(k, occ);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scale") {
      if (v != "full" && v != "tiny") throw std::invalid_argument("bad --scale");
      a.tiny = v == "tiny";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const WorkloadSpec spec = make_spec(args.workload, args.tiny);
  const Inputs in = generate_inputs(spec, args.seed);
  std::printf("workload %s: %s, %d %s%s, range %llu, prefill %zu, mix %d/%d/%d\n",
              spec.name.c_str(), spec.batched ? "batched" : "per-op",
              spec.clients, spec.batched ? "writer teams" : "client teams",
              spec.scanner ? " + 1 scanner" : "",
              static_cast<unsigned long long>(spec.range), in.prefill.size(),
              spec.insert_pct, spec.erase_pct,
              100 - spec.insert_pct - spec.erase_pct);

  // Set-up, timed several times; the last structure is the one measured.
  SpanLog setup_spans(64);
  SpanLog* sp = args.trace ? &setup_spans : nullptr;
  std::vector<double> setup_s, bulk_s, prime_s;
  Structure st;
  for (int r = 0; r < spec.setup_reps; ++r) {
    release(st);  // free the previous set-up before timing the next
    const auto t0 = Clock::now();
    st = build_structure(spec, in, sp, static_cast<std::uint64_t>(r));
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    bulk_s.push_back(st.bulk_load_s);
    prime_s.push_back(st.foresight_prime_s);
  }
  std::printf("structure: %u chunks allocated of %u, height %d\n",
              st.sl->chunks_allocated(), st.sl->config().pool_chunks,
              st.sl->current_height());

  Bench bench(spec, in, st, args.seed);
  // Untimed warm-up on the same op streams (its outcomes are verified too):
  // a freshly bulk-loaded structure runs up to twice as fast for its first
  // second or two, before updates reshape it.
  const double warmup_s = std::min(kWarmupSeconds, 0.3 * args.seconds);
  (void)bench.run_window(warmup_s, false);
  WindowStats a, off, traced;
  if (!args.trace) {
    a = bench.run_window(args.seconds, false);
  } else {
    a = bench.run_window(args.seconds / 3.0, false);
    st.mem->set_accounting(false);
    off = bench.run_window(args.seconds / 3.0, false);
    st.mem->set_accounting(true);
    traced = bench.run_window(args.seconds / 3.0, true);
  }

  // Verification walk, outside every timed window.
  const std::int64_t v0 = now_ns();
  bool structure_ok = true;
  std::string why;
  const std::uint64_t wrong = bench.verify(&structure_ok, &why);
  const std::int64_t v1 = now_ns();
  if (sp != nullptr) sp->add(kSpVerify, kNoSpan, 0, v0, v1);

  const core::ValidationReport vr = st.sl->validate(false);
  const std::uint64_t attempted =
      bench.ops_issued() + bench.scan_calls_total();
  const std::uint64_t failed =
      wrong + bench.scans_expired_total() + bench.scan_failures();
  const bool correct = structure_ok && failed == 0;
  if (!structure_ok) std::printf("verification failed: %s\n", why.c_str());
  std::printf("verify: %llu ops + %llu scans checked, %llu wrong/skipped, "
              "%llu scans expired, %llu scans malformed (%.3f s)\n",
              static_cast<unsigned long long>(bench.ops_issued()),
              static_cast<unsigned long long>(bench.scan_calls_total()),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(bench.scans_expired_total()),
              static_cast<unsigned long long>(bench.scan_failures()),
              static_cast<double>(v1 - v0) * 1e-9);

  Report rep;
  const model::ModelResult mr = model_window(spec, a);
  const double in_use_bytes =
      static_cast<double>(st.sl->chunks_allocated() - vr.free_chunks) *
      kTeamSize * sizeof(KV);

  // End-to-end metrics (window A = the untraced window).
  rep.add("ops_per_s", a.ops_per_s(), "ops/s");
  const Latencies& req = spec.batched ? a.batch_lat : a.op_lat;
  rep.add("latency_p50_us", req.quantile(0.50) / 1e3, "us");
  rep.add("latency_p90_us", req.quantile(0.90) / 1e3, "us");
  rep.add("latency_p99_us", req.quantile(0.99) / 1e3, "us");
  rep.add("model_mops", mr.mops, "Mops");
  rep.add("bytes_per_key", ratio(in_use_bytes, static_cast<double>(vr.bottom_keys)),
          "B/key");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("setup_s", median(setup_s), "s");
  rep.add("failed_op_share", ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)), "fraction");
  if (spec.batched) {
    rep.add("batch_p50_ms", a.batch_lat.quantile(0.50) / 1e6, "ms");
    rep.add("batch_p99_ms", a.batch_lat.quantile(0.99) / 1e6, "ms");
    rep.add("scan_keys_per_s", ratio(static_cast<double>(a.scan_keys), a.wall_s),
            "keys/s");
    rep.add("scan_p50_us", a.scan_lat.quantile(0.50) / 1e3, "us");
    rep.add("scan_p99_us", a.scan_lat.quantile(0.99) / 1e3, "us");
    print_latency("batch", a.batch_lat, 1e-6, "ms");
    print_latency("scan_round", a.scan_lat, 1e-3, "us");
  } else {
    rep.add("op_p50_us", a.op_lat.quantile(0.50) / 1e3, "us");
    rep.add("op_p99_us", a.op_lat.quantile(0.99) / 1e3, "us");
    print_latency("op", a.op_lat, 1e-3, "us");
  }
  std::printf("window: %.3f s, %llu ops\n", a.wall_s,
              static_cast<unsigned long long>(a.ops));

  if (args.trace) {
    const WindowStats& t = traced;
    const double ops_a = static_cast<double>(a.ops);
    const double ops_t = static_cast<double>(t.ops);
    const double upd_a = static_cast<double>(a.updates);
    const auto& lib = t.lib;
    // core search / foresight
    rep.add("core.contains_us_p50", t.kind_lat[2].quantile(0.5) / 1e3, "us");
    rep.add("core.chunks_per_traversal", st.sl->avg_chunks_per_traversal(),
            "chunks");
    const double hits = static_cast<double>(lib.counter(obs::kForesightHits));
    const double falls =
        static_cast<double>(lib.counter(obs::kForesightFallbacks));
    rep.add("core.foresight_hit_rate", ratio(hits, hits + falls), "fraction");
    rep.add("core.restarts_per_op",
            ratio(static_cast<double>(a.team.restarts), ops_a), "1/op");
    // core update
    rep.add("core.insert_us_p50", t.kind_lat[0].quantile(0.50) / 1e3, "us");
    rep.add("core.insert_us_p99", t.kind_lat[0].quantile(0.99) / 1e3, "us");
    rep.add("core.erase_us_p50", t.kind_lat[1].quantile(0.50) / 1e3, "us");
    rep.add("core.erase_us_p99", t.kind_lat[1].quantile(0.99) / 1e3, "us");
    rep.add("core.lock_acquires_per_update",
            ratio(static_cast<double>(a.team.lock_acquires), upd_a), "1/update");
    rep.add("core.lock_spins_per_update",
            ratio(static_cast<double>(a.team.lock_spins), upd_a), "1/update");
    // core reclaim + device epoch
    rep.add("core.chunks_reclaimed_per_kop",
            ratio(static_cast<double>(st.sl->chunks_reclaimed()),
                  static_cast<double>(bench.ops_issued()) / 1e3),
            "chunks/kop");
    rep.add("core.limbo_chunks", static_cast<double>(vr.limbo_chunks), "chunks");
    rep.add("core.zombie_share",
            ratio(static_cast<double>(vr.zombie_chunks),
                  static_cast<double>(vr.live_chunks + vr.zombie_chunks)),
            "fraction");
    rep.add("core.chunk_occupancy",
            ratio(static_cast<double>(vr.data_entries),
                  static_cast<double>(vr.live_chunks) * (kTeamSize - 2)),
            "fraction");
    rep.add("device.epoch_lag", t.epoch_lag_mean, "epochs");
    // core batch + sched
    const double shard_ops = static_cast<double>(t.bc.shard_ops);
    rep.add("core.batch.execute_shard_us_per_op",
            ratio(t.shard_ns / 1e3, shard_ops), "us");
    rep.add("core.batch.descent_reuse_rate",
            ratio(static_cast<double>(t.bc.reuses),
                  static_cast<double>(t.bc.reuses + t.bc.fulls)),
            "fraction");
    rep.add("core.batch.epoch_pins_per_kop",
            ratio(static_cast<double>(t.bc.pins), shard_ops / 1e3), "pins/kop");
    rep.add("sched.plan_shards_us_per_batch",
            ratio(t.plan_ns / 1e3, static_cast<double>(t.batches)), "us");
    rep.add("sched.steal_share",
            ratio(static_cast<double>(t.bc.steals),
                  static_cast<double>(t.bc.shards)),
            "fraction");
    rep.add("sched.shard_ops_mean",
            ratio(shard_ops, static_cast<double>(t.bc.shards)), "ops");
    // core snapshot
    rep.add("core.snapshot.scan_at_us_per_key",
            ratio(t.scan_at_ns / 1e3, static_cast<double>(t.scan_keys)), "us");
    rep.add("core.snapshot.snapshot_us_p50", t.snapshot_lat.quantile(0.5) / 1e3,
            "us");
    rep.add("core.snapshot.scan_expired_share",
            ratio(static_cast<double>(t.scans_expired),
                  static_cast<double>(t.scan_calls)),
            "fraction");
    rep.add("core.snapshot.records_live", t.records_live_mean, "records");
    // simt (window A counts)
    rep.add("simt.instructions_per_op",
            ratio(static_cast<double>(a.team.instructions), ops_a), "1/op");
    rep.add("simt.ballots_per_op", ratio(static_cast<double>(a.team.ballots), ops_a),
            "1/op");
    rep.add("simt.shfls_per_op", ratio(static_cast<double>(a.team.shfls), ops_a),
            "1/op");
    // device memory / L2 model
    rep.add("device.transactions_per_op",
            ratio(static_cast<double>(a.mem.transactions), ops_a), "1/op");
    rep.add("device.dram_tx_per_op",
            ratio(static_cast<double>(a.mem.dram_transactions), ops_a), "1/op");
    rep.add("device.l2_hit_rate",
            ratio(static_cast<double>(a.mem.l2_hits),
                  static_cast<double>(a.mem.transactions)),
            "fraction");
    rep.add("device.atomics_per_op",
            ratio(static_cast<double>(a.mem.atomics), ops_a), "1/op");
    rep.add("device.accounting_wall_share",
            1.0 - ratio(a.ops_per_s(), off.ops_per_s()), "fraction");
    // model
    rep.add("model.epoch_latency_cycles", mr.avg_epoch_latency, "cycles");
    rep.add("model.bandwidth_bound", mr.bandwidth_bound ? 1.0 : 0.0, "bool");
    // setup
    rep.add("core.bulk_load_s", median(bulk_s), "s");
    rep.add("core.foresight_prime_s", median(prime_s), "s");
    // tracing
    rep.add("trace.overhead_share", 1.0 - ratio(t.ops_per_s(), a.ops_per_s()),
            "fraction");
    rep.add("core.snapshot.redescents_per_scan",
            ratio(static_cast<double>(lib.counter(obs::kScanAtRedescents)),
                  static_cast<double>(t.scan_calls)),
            "1/scan");
    std::printf("windows: A %.1f ops/s untraced, B %.1f ops/s accounting off, "
                "C %.1f ops/s traced (%.0f ops)\n",
                a.ops_per_s(), off.ops_per_s(), t.ops_per_s(), ops_t);

    std::vector<const SpanLog*> logs = bench.span_logs();
    logs.push_back(&setup_spans);
    const auto sums = summarize_spans(logs);
    std::uint64_t dropped = 0;
    for (const SpanLog* l : logs) dropped += l->dropped();
    std::printf("spans (name count total_ms self_ms):\n");
    for (int n = 0; n < kSpanNames; ++n) {
      const SpanSummary& s = sums[static_cast<std::size_t>(n)];
      if (s.count == 0) continue;
      std::printf("  span %-16s %10llu %12.3f %12.3f\n", kSpanNameStr[n],
                  static_cast<unsigned long long>(s.count), s.total_ns / 1e6,
                  s.self_ns / 1e6);
    }
    const std::string path =
        args.out_dir + "/spans-" + spec.name + ".tsv";
    write_spans(path, logs);
    std::printf("spans written to %s (%llu dropped)\n", path.c_str(),
                static_cast<unsigned long long>(dropped));
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const auto& ms = rep.metrics();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gfsl_perfbench: %s\n", e.what());
    return 2;
  }
}
