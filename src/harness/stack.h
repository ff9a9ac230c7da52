// GfslStack — one owning object for a GFSL structure and its sidecars.
//
// core::Gfsl takes its optional sidecars (lease table, epoch manager,
// durable region, MVCC snapshots, foresight hint table, integrity seals) as
// pointers the caller must keep alive and wire consistently.  The stack
// builds the device memory, the sidecars a StackOptions record asks for and
// the structure, and it alone owns the wiring rules:
//
//   * a durable region brings a LeaseTable backed by the region's lease
//     slots — adopted from the image on attach, zeroed on create;
//   * a created region takes its geometry from the config; an attached image
//     supplies team size and pool from its own geometry;
//   * the snapshot and foresight sidecars are sized from the pool;
//   * a caller's StepScheduler gets the lease table whenever both exist, so
//     kill_at marks the victim's lease crashed at the kill step.
//
// A default StackOptions builds exactly Gfsl(cfg, &mem): no sidecar, the
// seed's bit-identical detached path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/foresight.h"
#include "core/gfsl.h"
#include "core/integrity.h"
#include "core/snapshot.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "device/persist.h"
#include "sched/lease.h"
#include "sched/step_scheduler.h"

namespace gfsl::harness {

struct StackOptions {
  /// Non-empty: back the chunk arena with a file-backed device::PersistRegion
  /// at this path (DESIGN.md §12).  The region brings a LeaseTable.
  std::string persist_path{};
  /// kAttach maps the stored image instead of creating a fresh one; the
  /// caller must run gfsl().recover() before any operation.
  device::PersistRegion::Mode persist_mode =
      device::PersistRegion::Mode::kCreate;
  /// Lease words on every lock (crash tolerance) without a durable region.
  bool leases = false;
  /// Epoch-based reclamation (DESIGN.md §9).
  bool epochs = false;
  /// MVCC version records for snapshot()/scan_at() (DESIGN.md §13).
  bool snapshots = false;
  /// Deterministic scheduler the structure yields to; null = free-running.
  sched::StepScheduler* scheduler = nullptr;
  /// Foresight hint table (DESIGN.md §14) and its constructor arguments.
  bool foresight = false;
  std::uint32_t foresight_stride = 2;
  std::uint64_t foresight_rebuild_threshold = 256;
  /// Integrity seals (DESIGN.md §15) and their algorithm.
  bool integrity = false;
  core::SealAlgo seal = core::SealAlgo::kCrc32c;
};

class GfslStack {
 public:
  /// Throws std::invalid_argument on an inconsistent record (attach without
  /// a path) and whatever the region or the structure throws on bad input.
  explicit GfslStack(const core::GfslConfig& cfg,
                     const StackOptions& opts = {});

  GfslStack(const GfslStack&) = delete;
  GfslStack& operator=(const GfslStack&) = delete;

  core::Gfsl& gfsl() { return *gfsl_; }
  const core::Gfsl& gfsl() const { return *gfsl_; }
  device::DeviceMemory& mem() { return mem_; }
  /// Null unless StackOptions::persist_path was set.
  device::PersistRegion* region() const { return region_.get(); }

 private:
  // Declaration order is teardown order reversed: the structure goes first,
  // then the sidecars it points into, then the region backing them.
  device::DeviceMemory mem_;
  std::unique_ptr<device::PersistRegion> region_;
  std::unique_ptr<sched::LeaseTable> leases_;
  std::unique_ptr<device::EpochManager> epochs_;
  std::unique_ptr<core::SnapshotManager> snaps_;
  std::unique_ptr<core::ForesightIndex> foresight_;
  std::unique_ptr<core::IntegritySidecar> integrity_;
  std::unique_ptr<core::Gfsl> gfsl_;
};

}  // namespace gfsl::harness
