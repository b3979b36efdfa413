// Tests for the paper's optional/extension features: rolling spin-up
// (§III-B), plus ClientLib edge cases around mounting.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/power_sequencer.h"

namespace ustore::core {
namespace {

// --- PowerSequencer -----------------------------------------------------------

class PowerSequencerTest : public ::testing::Test {
 protected:
  PowerSequencerTest() {
    fabric::FabricManager::Options options;
    options.disks_start_powered = false;
    manager_ = std::make_unique<fabric::FabricManager>(
        &sim_, fabric::BuildPrototypeFabric(), options, Rng(3));
    sim_.RunFor(sim::Seconds(1));
  }

  sim::Simulator sim_;
  std::unique_ptr<fabric::FabricManager> manager_;
};

TEST_F(PowerSequencerTest, ColdUnitStartsPoweredOff) {
  for (fabric::NodeIndex node : manager_->fabric().disks) {
    EXPECT_EQ(manager_->disk(node)->state(), hw::DiskState::kPoweredOff);
  }
  EXPECT_NEAR(manager_->DisksPower(), 0.0, 0.01);
}

TEST_F(PowerSequencerTest, RollingBringsEveryDiskUp) {
  PowerSequencer sequencer(&sim_, manager_.get(), 0, {.max_concurrent_spinups = 4});
  Status status = InternalError("pending");
  sequencer.PowerOnAll([&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(120));
  ASSERT_TRUE(status.ok()) << status;
  for (fabric::NodeIndex node : manager_->fabric().disks) {
    EXPECT_EQ(manager_->disk(node)->state(), hw::DiskState::kIdle);
  }
}

TEST_F(PowerSequencerTest, RollingBoundsPeakPower) {
  PowerSequencer rolling(&sim_, manager_.get(), 0,
                         {.max_concurrent_spinups = 2});
  Status status = InternalError("pending");
  rolling.PowerOnAll([&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(200));
  ASSERT_TRUE(status.ok());
  // Peak must stay well under stacking all 16 surges (~25 W each incl.
  // bridge); 2 concurrent surges + idle tail.
  EXPECT_LT(rolling.peak_power(), 200.0);
  EXPECT_GT(rolling.peak_power(), 2 * 20.0);
}

TEST_F(PowerSequencerTest, AllAtOnceStacksSurges) {
  PowerSequencer at_once(&sim_, manager_.get(), 0, {});
  Status status = InternalError("pending");
  at_once.PowerOnAllAtOnce([&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(60));
  ASSERT_TRUE(status.ok());
  EXPECT_GT(at_once.peak_power(), 16 * 20.0);
}

TEST_F(PowerSequencerTest, RollingIsSlowerThanAllAtOnce) {
  sim::Time rolling_done = 0, at_once_done = 0;
  {
    sim::Simulator sim;
    fabric::FabricManager::Options options;
    options.disks_start_powered = false;
    fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                  options, Rng(3));
    sim.RunFor(sim::Seconds(1));
    PowerSequencer sequencer(&sim, &manager, 0,
                             {.max_concurrent_spinups = 2});
    bool done = false;
    sequencer.PowerOnAll([&](Status) { done = true; });
    while (!done) sim.RunFor(sim::Seconds(1));
    rolling_done = sim.now();
  }
  {
    sim::Simulator sim;
    fabric::FabricManager::Options options;
    options.disks_start_powered = false;
    fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                  options, Rng(3));
    sim.RunFor(sim::Seconds(1));
    PowerSequencer sequencer(&sim, &manager, 0, {});
    bool done = false;
    sequencer.PowerOnAllAtOnce([&](Status) { done = true; });
    while (!done) sim.RunFor(sim::Seconds(1));
    at_once_done = sim.now();
  }
  EXPECT_GT(rolling_done, at_once_done);
}

// --- ClientLib edges ------------------------------------------------------------------

class ClientLibEdgeTest : public ::testing::Test {
 protected:
  ClientLibEdgeTest() {
    cluster_.Start();
    client_ = cluster_.MakeClient("edge-client");
    owner_ = cluster_.MakeClient("svc-owner", /*locality=*/1);
    owner_->AllocateAndMount("svc", GiB(4),
                             [&](Result<ClientLib::Volume*> r) {
                               if (r.ok()) volume_ = *r;
                             });
    cluster_.RunFor(sim::Seconds(10));
  }

  core::Cluster cluster_;
  std::unique_ptr<ClientLib> client_;
  std::unique_ptr<ClientLib> owner_;
  ClientLib::Volume* volume_ = nullptr;
};

TEST_F(ClientLibEdgeTest, MountUnknownSpaceFails) {
  AllocatedSpace ghost;
  ghost.id = SpaceId{0, "disk-0", 999};
  ghost.host = "host-0";
  ghost.length = GiB(1);
  Result<ClientLib::Volume*> result = InternalError("pending");
  client_->Mount(ghost, [&](Result<ClientLib::Volume*> r) { result = r; });
  cluster_.RunFor(sim::Seconds(5));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client_->volume(ghost.id), nullptr);
}

TEST_F(ClientLibEdgeTest, UnmountForgetsVolume) {
  ASSERT_NE(volume_, nullptr);
  // volume_ was mounted by its owner, not client_; mount here too.
  Result<ClientLib::Volume*> mine = InternalError("pending");
  client_->Mount(volume_->space(),
                 [&](Result<ClientLib::Volume*> r) { mine = r; });
  cluster_.RunFor(sim::Seconds(5));
  ASSERT_TRUE(mine.ok());
  const SpaceId id = (*mine)->id();
  EXPECT_NE(client_->volume(id), nullptr);
  client_->Unmount(id);
  EXPECT_EQ(client_->volume(id), nullptr);
}

}  // namespace
}  // namespace ustore::core
