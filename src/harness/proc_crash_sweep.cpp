#include "harness/proc_crash_sweep.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <vector>

#include "harness/history.h"
#include "harness/postmortem.h"
#include "harness/runner.h"
#include "harness/stack.h"
#include "harness/workload.h"

namespace gfsl::harness {

namespace {

// One journal record; a single write() under O_APPEND, so a SIGKILL can
// truncate the file only at a record boundary (a torn trailing record is
// discarded by the reader).  The record's file index is its logical tick.
struct JournalRec {
  std::uint8_t tag;     // 'B' = op begin, 'E' = op end
  std::uint8_t worker;
  std::uint8_t kind;    // OpKind
  std::uint8_t result;  // 'E' only
  std::uint32_t opid;   // index into the generated op array
  std::uint64_t key;
};
static_assert(sizeof(JournalRec) == 16);

std::string region_path(const ProcCrashSweepConfig& cfg) {
  return cfg.work_dir + "/proc_crash_region.gfsl";
}
std::string journal_path(const ProcCrashSweepConfig& cfg) {
  return cfg.work_dir + "/proc_crash_journal.bin";
}

void jwrite(int fd, const JournalRec& r) {
  // Best-effort: a record the kill raced past is simply absent, which the
  // checker treats as "op never invoked" ('B' missing) or "op crashed"
  // ('E' missing) — both sound.
  (void)!::write(fd, &r, sizeof r);
}

core::GfslConfig gfsl_config(const ProcCrashSweepConfig& cfg) {
  core::GfslConfig gcfg;
  gcfg.team_size = cfg.team_size;
  gcfg.pool_chunks = cfg.pool_chunks;
  return gcfg;
}

/// Child and parent build the same sidecars over the same region file.
StackOptions stack_options(const ProcCrashSweepConfig& cfg) {
  StackOptions so;
  so.persist_path = region_path(cfg);
  so.epochs = cfg.with_epochs;
  so.snapshots = cfg.with_snapshots;
  return so;
}

std::vector<Op> sweep_ops(const ProcCrashSweepConfig& cfg) {
  WorkloadConfig wl;
  wl.mix = kMix_20_20_60;  // update-heavy: splits, merges, reclaim traffic
  wl.key_range = cfg.key_range;
  wl.num_ops = cfg.ops;
  wl.seed = cfg.wl_seed;
  return generate_ops(wl);
}

/// Journals the ops one child worker runs: a 'B' record as an op begins and
/// an 'E' record with its result as it returns.
class JournalObserver final : public core::BatchOpObserver {
 public:
  JournalObserver(int fd, int worker)
      : fd_(fd), w_(static_cast<std::uint8_t>(worker)) {}

  void on_begin(std::uint32_t idx, const Op& op) override {
    jwrite(fd_, {'B', w_, static_cast<std::uint8_t>(op.kind), 0, idx, op.key});
  }
  void on_end(std::uint32_t idx, const Op& op, bool result) override {
    jwrite(fd_, {'E', w_, static_cast<std::uint8_t>(op.kind),
                 static_cast<std::uint8_t>(result), idx, op.key});
  }

 private:
  int fd_;
  std::uint8_t w_;
};

/// Child body: fresh region, deterministic threaded workload, journal every
/// op, die at the armed barrier or exit(0) through mark_clean().  Never
/// returns.
[[noreturn]] void child_run(const ProcCrashSweepConfig& cfg,
                            std::uint64_t kill_at) {
  ::alarm(cfg.alarm_seconds);  // livelock guard: SIGALRM terminates us
  try {
    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                               cfg.sched_seed, cfg.workers);
    StackOptions so = stack_options(cfg);
    so.scheduler = &sched;
    GfslStack stack(gfsl_config(cfg), so);
    // The constructor crosses no persist point, so barrier n is still the
    // n-th one the workload crosses.
    if (kill_at != 0) stack.region()->arm_kill_at(kill_at);
    core::Gfsl& sl = stack.gfsl();

    const auto ops = sweep_ops(cfg);
    const int jfd = ::open(journal_path(cfg).c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (jfd < 0) ::_exit(3);

    std::vector<JournalObserver> journal;
    for (int w = 0; w < cfg.workers; ++w) journal.emplace_back(jfd, w);
    RunConfig rc;
    rc.num_workers = cfg.workers;
    rc.seed = 3;
    rc.scheduler = &sched;
    for (auto& j : journal) rc.observers.push_back(&j);
    (void)run_gfsl(sl, ops, rc, stack.mem());
    ::close(jfd);
    stack.region()->mark_clean();
    ::_exit(0);
  } catch (...) {
    ::_exit(3);
  }
}

std::vector<JournalRec> read_journal(const std::string& path) {
  std::vector<JournalRec> out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return out;
  JournalRec r;
  while (::read(fd, &r, sizeof r) == static_cast<ssize_t>(sizeof r)) {
    out.push_back(r);
  }
  ::close(fd);
  return out;
}

struct VerifyOutcome {
  bool ok = true;
  std::string error;
  std::uint64_t recorded_points = 0;  // superblock count (clean exits only)
  core::RecoveryReport recovery;
};

/// Parent-side verification of one child image: attach, recover, check the
/// journal history against the recovered contents.
VerifyOutcome verify_image(const ProcCrashSweepConfig& cfg,
                           std::uint64_t kill_at) {
  VerifyOutcome out;
  StackOptions so = stack_options(cfg);
  so.persist_mode = device::PersistRegion::Mode::kAttach;
  // Fresh epochs: limbo is rebuilt by classification.
  GfslStack stack(gfsl_config(cfg), so);
  out.recorded_points = stack.region()->recorded_persist_points();
  core::Gfsl& sl = stack.gfsl();
  out.recovery = sl.recover();

  auto fail = [&](const std::string& msg,
                  const std::string& reason = "recovery_failure") {
    if (out.ok) {
      out.ok = false;
      out.error = msg;
    }
    if (!cfg.postmortem_dir.empty()) {
      PostmortemContext ctx;
      ctx.reason = reason;
      ctx.detail = msg;
      ctx.gfsl = &sl;
      ctx.info = {
          {"harness", "proc_crash_sweep"},
          {"kill_point", std::to_string(kill_at)},
          {"wl_seed", std::to_string(cfg.wl_seed)},
          {"sched_seed", std::to_string(cfg.sched_seed)},
          {"workers", std::to_string(cfg.workers)},
          {"team_size", std::to_string(cfg.team_size)},
          {"ops", std::to_string(cfg.ops)},
          {"key_range", std::to_string(cfg.key_range)},
          {"with_epochs", cfg.with_epochs ? "1" : "0"},
          {"with_snapshots", cfg.with_snapshots ? "1" : "0"},
      };
      (void)dump_postmortem(cfg.postmortem_dir,
                            "postmortem_proc_crash_k" + std::to_string(kill_at),
                            ctx);
    }
  };

  if (!out.recovery.ok) {
    fail("recover() failed: " + out.recovery.error);
    return out;
  }

  // Journal -> per-key linearizable history.  Record index = logical tick;
  // a 'B' without an 'E' is the crashed (optional-effect) op.
  const auto recs = read_journal(journal_path(cfg));
  const auto ops = sweep_ops(cfg);
  std::vector<HistoryEvent> events;
  std::map<std::uint32_t, std::uint64_t> open;  // opid -> begin tick
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const JournalRec& r = recs[i];
    if (r.opid >= ops.size() ||
        static_cast<OpKind>(r.kind) != ops[r.opid].kind ||
        r.key != ops[r.opid].key) {
      fail("journal record " + std::to_string(i) +
           " does not match the generated workload");
      return out;
    }
    if (r.tag == 'B') {
      open[r.opid] = i;
    } else {
      const auto it = open.find(r.opid);
      if (it == open.end()) {
        fail("journal end-record " + std::to_string(i) + " without a begin");
        return out;
      }
      events.push_back(HistoryEvent{it->second, i,
                                    static_cast<OpKind>(r.kind),
                                    ops[r.opid].key, r.result != 0, r.worker});
      open.erase(it);
    }
  }
  for (const auto& [opid, tick] : open) {
    events.push_back(HistoryEvent{tick, UINT64_MAX, ops[opid].kind,
                                  ops[opid].key, false,
                                  static_cast<int>(opid %
                                      static_cast<std::uint32_t>(cfg.workers)),
                                  /*crashed=*/true});
  }

  const auto contents = sl.collect();
  std::vector<Key> final_keys;
  for (const auto& [k, v] : contents) final_keys.push_back(k);
  const auto check = check_history(events, {}, final_keys);
  if (!check.ok) {
    fail("history violation after recovery: " + check.error);
    return out;
  }

  // Single-worker runs are sequential programs: tighten to an exact replay.
  // Every completed op's result must match a std::map model, and the
  // recovered contents must equal the model with the one crashed op either
  // applied or not.
  if (cfg.workers == 1) {
    MapOracle model;
    for (const JournalRec& r : recs) {
      if (r.tag != 'E') continue;
      const Op& op = ops[r.opid];
      const bool expect = model.apply(op);
      if (expect != (r.result != 0)) {
        fail("oracle mismatch at op " + std::to_string(r.opid) +
             " (key " + std::to_string(op.key) + "): journal says " +
             std::to_string(r.result) + ", model says " +
             std::to_string(expect));
        return out;
      }
    }
    const std::uint32_t crashed_opid =
        open.empty() ? UINT32_MAX : open.begin()->first;
    bool matches = contents == model.collect();
    if (!matches && crashed_opid != UINT32_MAX) {
      (void)model.apply(ops[crashed_opid]);
      matches = contents == model.collect();
    }
    if (!matches) {
      fail("recovered contents match neither replay model (crashed op " +
           (crashed_opid == UINT32_MAX ? std::string("none")
                                       : std::to_string(crashed_opid)) +
           ")");
      return out;
    }
  }

  // Post-recovery MVCC coherence: the child's version chains died with it,
  // so a fresh snapshot must see the recovered contents verbatim (every
  // surviving key resolves as a legacy, pre-history key), and its revision
  // must sit at or above the durable clock the child pushed — a regressed
  // clock would let post-restart commits reuse pre-crash revisions.
  if (cfg.with_snapshots) {
    const std::uint64_t durable =
        static_cast<std::atomic<std::uint64_t>*>(stack.region()->durable_rev())
            ->load(std::memory_order_acquire);
    core::Snapshot fresh = sl.snapshot();
    if (!fresh.open()) {
      fail("post-recovery snapshot acquisition failed", "snapshot_mismatch");
      return out;
    }
    if (fresh.rev < durable) {
      fail("post-recovery snapshot rev " + std::to_string(fresh.rev) +
               " below the durable revision " + std::to_string(durable),
           "snapshot_mismatch");
      return out;
    }
    simt::Team team(cfg.team_size, 0, 7);
    std::vector<std::pair<Key, Value>> got;
    const auto st = sl.scan_at(team, fresh, MIN_USER_KEY, MAX_USER_KEY, got);
    if (st != core::ScanAtStatus::kOk) {
      fail("post-recovery scan_at failed with status " +
               std::to_string(static_cast<int>(st)),
           "snapshot_mismatch");
      return out;
    }
    if (got != contents) {
      fail("post-recovery snapshot scan (" + std::to_string(got.size()) +
               " pairs) disagrees with recovered contents (" +
               std::to_string(contents.size()) + ")",
           "snapshot_mismatch");
      return out;
    }
    sl.release_snapshot(fresh);
  }
  return out;
}

enum class ChildExit { kClean, kKilled, kHang, kError };

ChildExit run_child(const ProcCrashSweepConfig& cfg, std::uint64_t kill_at,
                    std::string* error) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed: " + std::string(std::strerror(errno));
    return ChildExit::kError;
  }
  if (pid == 0) child_run(cfg, kill_at);  // never returns
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    *error = "waitpid failed: " + std::string(std::strerror(errno));
    return ChildExit::kError;
  }
  if (WIFEXITED(status)) {
    if (WEXITSTATUS(status) == 0) return ChildExit::kClean;
    *error = "child exited with code " + std::to_string(WEXITSTATUS(status));
    return ChildExit::kError;
  }
  if (WIFSIGNALED(status)) {
    if (WTERMSIG(status) == SIGKILL) return ChildExit::kKilled;
    if (WTERMSIG(status) == SIGALRM) {
      *error = "child hit its alarm (livelock)";
      return ChildExit::kHang;
    }
    *error = "child died on signal " + std::to_string(WTERMSIG(status));
    return ChildExit::kError;
  }
  *error = "child neither exited nor was signaled";
  return ChildExit::kError;
}

}  // namespace

ProcCrashSweepResult run_proc_crash_sweep(const ProcCrashSweepConfig& cfg,
                                          std::FILE* progress) {
  ProcCrashSweepResult res;
  auto fail = [&res](std::uint64_t point, const std::string& msg) {
    res.ok = false;
    res.failed_at_point = point;
    res.error = msg;
  };

  // Baseline: nothing armed; the clean exit records the workload's total
  // persist-point count in the superblock.
  std::string cerr;
  ++res.runs;
  if (run_child(cfg, 0, &cerr) != ChildExit::kClean) {
    fail(0, "baseline child failed: " + cerr);
    return res;
  }
  {
    const auto v = verify_image(cfg, 0);
    if (!v.ok) {
      fail(0, "baseline image failed verification: " + v.error);
      return res;
    }
    res.persist_points = v.recorded_points;
    res.locks_released += static_cast<std::uint64_t>(v.recovery.locks_released);
    res.intents_replayed +=
        static_cast<std::uint64_t>(v.recovery.intents_repaired);
    res.chunks_freed += v.recovery.chunks_freed;
  }
  if (res.persist_points == 0) {
    fail(0, "baseline run crossed no persist points (nothing to sweep)");
    return res;
  }

  const std::uint64_t stride = cfg.stride == 0 ? 1 : cfg.stride;
  const std::uint64_t report_every =
      (res.persist_points / stride) / 10 + 1;  // ~10 progress lines
  std::uint64_t since_report = 0;
  for (std::uint64_t k = 1; k <= res.persist_points; k += stride) {
    ++res.runs;
    const ChildExit ce = run_child(cfg, k, &cerr);
    if (ce == ChildExit::kKilled) {
      ++res.kills_landed;
    } else if (ce != ChildExit::kClean) {
      // kClean can only mean the armed point was never reached — the
      // deterministic schedule makes that a sweep bug, not a tolerance.
      fail(k, cerr.empty() ? "armed child exited cleanly before its kill point"
                           : cerr);
      return res;
    } else {
      fail(k, "armed child exited cleanly before its kill point");
      return res;
    }
    const auto v = verify_image(cfg, k);
    if (!v.ok) {
      fail(k, v.error);
      return res;
    }
    res.locks_released += static_cast<std::uint64_t>(v.recovery.locks_released);
    res.intents_replayed +=
        static_cast<std::uint64_t>(v.recovery.intents_repaired);
    res.chunks_freed += v.recovery.chunks_freed;
    if (progress != nullptr && ++since_report >= report_every) {
      since_report = 0;
      std::fprintf(progress,
                   "  proc-crash-sweep %llu/%llu points (%llu kills, "
                   "%llu locks released, %llu intents replayed)\n",
                   static_cast<unsigned long long>(k),
                   static_cast<unsigned long long>(res.persist_points),
                   static_cast<unsigned long long>(res.kills_landed),
                   static_cast<unsigned long long>(res.locks_released),
                   static_cast<unsigned long long>(res.intents_replayed));
      std::fflush(progress);
    }
  }
  ::unlink(region_path(cfg).c_str());
  ::unlink(journal_path(cfg).c_str());
  return res;
}

}  // namespace gfsl::harness
