// GfslStack: the wiring rules the stack owns (harness/stack.h).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/stack.h"
#include "simt/team.h"

namespace gfsl::harness {
namespace {

using device::PersistRegion;

core::GfslConfig small_cfg(int team_size = 8, std::uint32_t pool = 1u << 12) {
  core::GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = pool;
  return cfg;
}

std::string tmp_region(const std::string& name) {
  return testing::TempDir() + "gfsl_stack_" + name + ".region";
}

StackOptions attach(const std::string& path) {
  return {.persist_path = path, .persist_mode = PersistRegion::Mode::kAttach};
}

TEST(Stack, DefaultBuildsNoSidecar) {
  GfslStack stack(small_cfg());
  const core::Gfsl& sl = stack.gfsl();
  EXPECT_EQ(stack.region(), nullptr);
  EXPECT_EQ(sl.leases(), nullptr);
  EXPECT_EQ(sl.epochs(), nullptr);
  EXPECT_EQ(sl.region(), nullptr);
  EXPECT_EQ(sl.snapshots(), nullptr);
  EXPECT_EQ(sl.foresight(), nullptr);
  EXPECT_EQ(sl.integrity(), nullptr);
}

TEST(Stack, RequestedSidecarsGetTheirArguments) {
  GfslStack stack(small_cfg(16, 1u << 10),
                  {.epochs = true,
                   .snapshots = true,
                   .foresight = true,
                   .foresight_stride = 1,
                   .integrity = true,
                   .seal = core::SealAlgo::kXorFold});
  const core::Gfsl& sl = stack.gfsl();
  EXPECT_EQ(sl.leases(), nullptr);
  ASSERT_NE(sl.epochs(), nullptr);
  ASSERT_NE(sl.snapshots(), nullptr);
  EXPECT_EQ(sl.snapshots()->pool_chunks(), 1u << 10);
  ASSERT_NE(sl.foresight(), nullptr);
  EXPECT_EQ(sl.foresight()->stride(), 1u);
  ASSERT_NE(sl.integrity(), nullptr);
  EXPECT_EQ(sl.integrity()->algo(), core::SealAlgo::kXorFold);
}

TEST(Stack, CreateCloseAttachRecoverAdoptsLeasesAndContents) {
  const auto path = tmp_region("roundtrip");
  std::vector<std::pair<Key, Value>> written;
  std::uint32_t revived_word = 0;
  {
    GfslStack stack(small_cfg(), {.persist_path = path});
    ASSERT_NE(stack.region(), nullptr);
    // Building the structure crosses no persist point, so a kill armed
    // after construction still counts the workload's barriers only.
    EXPECT_EQ(stack.region()->persist_points(), 0u);
    sched::LeaseTable* leases = stack.gfsl().leases();
    ASSERT_NE(leases, nullptr) << "a durable region brings a lease table";
    simt::Team team(8, 0, 3);
    for (Key k = 1; k <= 200; ++k) stack.gfsl().insert(team, k * 7, k);
    for (Key k = 1; k <= 200; k += 3) stack.gfsl().erase(team, k * 7);
    leases->revive(3);  // lease state lives in the region's lease slots
    revived_word = leases->word(3);
    written = stack.gfsl().collect();
    stack.region()->mark_clean();
  }
  ASSERT_NE(revived_word, sched::LeaseTable().word(3));

  GfslStack stack(small_cfg(32, 64), attach(path));
  ASSERT_NE(stack.gfsl().leases(), nullptr);
  EXPECT_EQ(stack.gfsl().leases()->word(3), revived_word)
      << "attach must adopt the image's lease words, not zero them";
  const core::RecoveryReport rep = stack.gfsl().recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(stack.gfsl().collect(), written);
}

TEST(Stack, AttachTakesTeamSizeAndPoolFromTheImage) {
  const auto path = tmp_region("geometry");
  {
    GfslStack stack(small_cfg(16, 1u << 10), {.persist_path = path});
    stack.region()->mark_clean();
  }
  // The config asks for a different geometry, and a pool too small for the
  // image; the snapshot sidecar must still cover every chunk of the image.
  StackOptions so = attach(path);
  so.snapshots = true;
  GfslStack stack(small_cfg(32, 64), so);
  EXPECT_EQ(stack.gfsl().team_size(), 16);
  EXPECT_EQ(stack.gfsl().config().pool_chunks, 1u << 10);
  EXPECT_EQ(stack.gfsl().snapshots()->pool_chunks(), 1u << 10);
  EXPECT_TRUE(stack.gfsl().recover().ok);
}

TEST(Stack, SchedulerGetsTheLeaseTableSoKillsMarkTheVictimCrashed) {
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 7, 1);
  sched.kill_at(0, 40);
  GfslStack stack(small_cfg(), {.leases = true, .scheduler = &sched});
  const sched::LeaseTable* leases = stack.gfsl().leases();
  ASSERT_NE(leases, nullptr);
  bool killed = false;
  std::thread t([&] {
    simt::Team team(8, 0, 3);
    sched.enter(0);
    try {
      for (Key k = 1; k <= 1000; ++k) stack.gfsl().insert(team, k, k);
      sched.leave(0);
    } catch (const sched::TeamKilled&) {
      killed = true;
    }
  });
  t.join();
  ASSERT_TRUE(killed);
  EXPECT_TRUE(leases->crashed(0));
}

TEST(Stack, RejectsInvalidInput) {
  EXPECT_THROW(GfslStack(small_cfg(),
                         {.persist_mode = PersistRegion::Mode::kAttach}),
               std::invalid_argument);
  EXPECT_THROW(GfslStack(small_cfg(12)), std::invalid_argument);
  EXPECT_THROW(GfslStack(small_cfg(), attach(tmp_region("never_created"))),
               std::runtime_error);
}

}  // namespace
}  // namespace gfsl::harness
