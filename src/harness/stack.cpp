#include "harness/stack.h"

#include <atomic>
#include <stdexcept>

namespace gfsl::harness {

GfslStack::GfslStack(const core::GfslConfig& cfg_in, const StackOptions& opts) {
  using Mode = device::PersistRegion::Mode;
  core::GfslConfig cfg = cfg_in;
  if (opts.persist_path.empty()) {
    if (opts.persist_mode == Mode::kAttach) {
      throw std::invalid_argument("attaching a region requires a path");
    }
  } else {
    region_ = std::make_unique<device::PersistRegion>(
        opts.persist_path, opts.persist_mode,
        device::PersistGeometry{static_cast<std::uint32_t>(cfg.team_size),
                                cfg.pool_chunks});
    cfg.team_size = static_cast<int>(region_->geometry().entries_per_chunk);
    cfg.pool_chunks = region_->geometry().capacity;
  }
  if (opts.leases || region_) {
    leases_ = std::make_unique<sched::LeaseTable>();
    if (region_) {
      leases_->attach(
          static_cast<std::atomic<std::uint32_t>*>(region_->lease_slots()),
          /*adopt=*/!region_->fresh());
    }
    if (opts.scheduler != nullptr) opts.scheduler->attach_leases(leases_.get());
  }
  if (opts.epochs) epochs_ = std::make_unique<device::EpochManager>();
  if (opts.snapshots) {
    snaps_ = std::make_unique<core::SnapshotManager>(cfg.pool_chunks);
  }
  if (opts.foresight) {
    foresight_ = std::make_unique<core::ForesightIndex>(
        cfg.pool_chunks, opts.foresight_stride,
        opts.foresight_rebuild_threshold);
  }
  if (opts.integrity) {
    integrity_ = std::make_unique<core::IntegritySidecar>(opts.seal);
  }
  gfsl_ = std::make_unique<core::Gfsl>(
      cfg, &mem_, opts.scheduler, leases_.get(), epochs_.get(), region_.get(),
      snaps_.get(), foresight_.get(), integrity_.get());
}

}  // namespace gfsl::harness
