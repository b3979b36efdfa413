#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/disk.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore::hw {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : disk_(&sim_, "d0", DiskModel(DiskParams{}, SataInterface())) {}

  Status SubmitAndRun(const IoRequest& req) {
    Status out = InternalError("never completed");
    disk_.SubmitIo(req, [&](Status s) { out = s; });
    sim_.Run();
    return out;
  }

  sim::Simulator sim_;
  Disk disk_;
};

TEST_F(DiskTest, StartsIdle) {
  EXPECT_EQ(disk_.state(), DiskState::kIdle);
  EXPECT_EQ(disk_.capacity(), TB(3));
}

TEST_F(DiskTest, CompletesReadAtModelledServiceTime) {
  IoRequest req{KiB(4), IoDirection::kRead, AccessPattern::kSequential};
  EXPECT_TRUE(SubmitAndRun(req).ok());
  const sim::Duration expected =
      disk_.model().ServiceTime(req, IoDirection::kRead);
  EXPECT_EQ(sim_.now(), expected);
  EXPECT_EQ(disk_.ios_completed(), 1u);
  EXPECT_EQ(disk_.bytes_read(), KiB(4));
}

TEST_F(DiskTest, QueueServicesFifo) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    disk_.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                   [&, i](Status s) {
                     EXPECT_TRUE(s.ok());
                     order.push_back(i);
                   });
  }
  EXPECT_EQ(disk_.queue_depth(), 5u);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(disk_.ios_completed(), 5u);
}

TEST_F(DiskTest, ActiveWhileServing) {
  disk_.SubmitIo({MiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [](Status) {});
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(disk_.state(), DiskState::kActive);
  sim_.Run();
  EXPECT_EQ(disk_.state(), DiskState::kIdle);
}

TEST_F(DiskTest, SpinDownAndImplicitSpinUp) {
  disk_.SpinDown();
  EXPECT_EQ(disk_.state(), DiskState::kSpunDown);

  Status status = InternalError("pending");
  disk_.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [&](Status s) { status = s; });
  EXPECT_EQ(disk_.state(), DiskState::kSpinningUp);
  sim_.Run();
  EXPECT_TRUE(status.ok());
  EXPECT_GE(sim_.now(), DiskParams{}.spin_up_time);
  EXPECT_EQ(disk_.spin_cycles(), 1);
}

TEST_F(DiskTest, PowerOffFailsIo) {
  disk_.PowerOff();
  EXPECT_EQ(disk_.state(), DiskState::kPoweredOff);
  Status s = SubmitAndRun({KiB(4), IoDirection::kRead,
                           AccessPattern::kSequential});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST_F(DiskTest, PowerOffMidIoFailsInFlight) {
  Status status;
  disk_.SubmitIo({MiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [&](Status s) { status = s; });
  sim_.Schedule(sim::Millis(1), [&] { disk_.PowerOff(); });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(DiskTest, PowerOnLeavesSpunDown) {
  disk_.PowerOff();
  disk_.PowerOn();
  EXPECT_EQ(disk_.state(), DiskState::kSpunDown);  // rolling spin-up support
}

TEST_F(DiskTest, FailAndRepair) {
  disk_.Fail();
  EXPECT_TRUE(disk_.failed());
  Status s = SubmitAndRun({KiB(4), IoDirection::kRead,
                           AccessPattern::kSequential});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);

  disk_.Repair();
  EXPECT_FALSE(disk_.failed());
  disk_.SpinUp();
  sim_.Run();
  s = SubmitAndRun({KiB(4), IoDirection::kRead, AccessPattern::kSequential});
  EXPECT_TRUE(s.ok());
}

TEST_F(DiskTest, IdleTimeoutSpinsDown) {
  disk_.SetIdleSpinDown(sim::Seconds(10));
  EXPECT_TRUE(SubmitAndRun({KiB(4), IoDirection::kRead,
                            AccessPattern::kSequential}).ok());
  sim_.RunFor(sim::Seconds(11));
  EXPECT_EQ(disk_.state(), DiskState::kSpunDown);
}

TEST_F(DiskTest, FrequentSpinCyclesBackOffTimeout) {
  disk_.SetIdleSpinDown(sim::Seconds(10));
  const sim::Duration initial = disk_.effective_idle_timeout();
  // Ping the disk immediately after each spin-down, several times: cycles
  // arrive faster than 4x the idle timeout, so the host backs off.
  for (int i = 0; i < 3; ++i) {
    for (int step = 0; step < 10000 && disk_.state() != DiskState::kSpunDown;
         ++step) {
      sim_.RunFor(sim::Seconds(1));
    }
    ASSERT_EQ(disk_.state(), DiskState::kSpunDown);
    Status status;
    disk_.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                   [&](Status s) { status = s; });
    sim_.Run();
    EXPECT_TRUE(status.ok());
  }
  EXPECT_GT(disk_.effective_idle_timeout(), initial);
}

TEST_F(DiskTest, PowerByState) {
  const DiskParams p;
  EXPECT_DOUBLE_EQ(disk_.current_power(), p.power_idle);
  disk_.SpinDown();
  EXPECT_DOUBLE_EQ(disk_.current_power(), p.power_spun_down);
  disk_.PowerOff();
  EXPECT_DOUBLE_EQ(disk_.current_power(), 0.0);
}

TEST_F(DiskTest, UsbBridgePowerAddsToDiskPower) {
  Disk usb_disk(&sim_, "d1", DiskModel(DiskParams{}, UsbBridgeInterface()));
  const DiskParams p;
  const InterfaceParams i = UsbBridgeInterface();
  // Table III USB row: idle 5.76 W.
  EXPECT_NEAR(usb_disk.current_power(), p.power_idle + i.power_idle, 1e-9);
  EXPECT_NEAR(usb_disk.current_power(), 5.76, 0.01);
  usb_disk.SpinDown();
  EXPECT_NEAR(usb_disk.current_power(), 1.56, 0.01);
}

TEST_F(DiskTest, FingerprintRoundTrip) {
  disk_.WriteFingerprint(0, 0xABCD);
  disk_.WriteFingerprint(KiB(4), 0x1234);
  EXPECT_EQ(disk_.ReadFingerprint(0), 0xABCDu);
  EXPECT_EQ(disk_.ReadFingerprint(100), 0xABCDu);  // same 4 KiB block
  EXPECT_EQ(disk_.ReadFingerprint(KiB(4)), 0x1234u);
  EXPECT_EQ(disk_.ReadFingerprint(MiB(1)), 0u);  // never written
}

TEST_F(DiskTest, MixedStreamSlowerThanPureStream) {
  // Direction switches should show up in actual queue service, not just the
  // analytic model: alternate read/write vs all-read.
  sim::Time pure_done, mixed_done;
  {
    sim::Simulator sim;
    Disk d(&sim, "p", DiskModel(DiskParams{}, SataInterface()));
    for (int i = 0; i < 20; ++i) {
      d.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [](Status) {});
    }
    sim.Run();
    pure_done = sim.now();
  }
  {
    sim::Simulator sim;
    Disk d(&sim, "m", DiskModel(DiskParams{}, SataInterface()));
    for (int i = 0; i < 20; ++i) {
      d.SubmitIo({KiB(4),
                  i % 2 == 0 ? IoDirection::kRead : IoDirection::kWrite,
                  AccessPattern::kSequential},
                 [](Status) {});
    }
    sim.Run();
    mixed_done = sim.now();
  }
  EXPECT_GT(mixed_done, pure_done);
}

// --- disk.state.<state> population gauges -----------------------------------------

// A fresh registry per test: the population gauges count every live disk
// of the bound registry, so the fixture disks of other tests stay out.
class DiskStateGaugeTest : public ::testing::Test {
 protected:
  DiskStateGaugeTest() : binding_(&metrics_, &trace_) {
    obs::BindSimulator(&sim_);
  }
  ~DiskStateGaugeTest() override {
    disks_.clear();
    obs::BindSimulator(nullptr);
  }

  void AddDisk(bool powered) {
    disks_.push_back(std::make_unique<Disk>(
        &sim_, "d" + std::to_string(disks_.size()),
        DiskModel(DiskParams{}, SataInterface()), powered));
  }

  // Gauge name -> population, for the disk.state.* gauges only.
  std::map<std::string, double> Populations() {
    std::map<std::string, double> out;
    for (const auto& [name, gauge] : metrics_.Snapshot().gauges) {
      if (name.rfind("disk.state.", 0) == 0) out[name] = gauge.value;
    }
    return out;
  }
  double Population(DiskState state) {
    return metrics_.GetGauge("disk.state." + std::string(DiskStateName(state)))
        .value();
  }
  void ExpectSumIsLiveDisks() {
    double sum = 0;
    for (const auto& [name, value] : Populations()) sum += value;
    EXPECT_EQ(sum, static_cast<double>(disks_.size()));
  }

  // The disk.state.* gauges a step sampled, each with its sample count;
  // the trails are cleared first so only the step's samples count.
  template <typename Step>
  std::map<std::string, std::size_t> SamplesLeftBy(Step step) {
    metrics_.Snapshot(/*reset=*/true);
    step();
    std::map<std::string, std::size_t> out;
    for (const auto& [name, gauge] : metrics_.Snapshot().gauges) {
      if (name.rfind("disk.state.", 0) == 0 && !gauge.samples.empty()) {
        out[name] = gauge.samples.size();
      }
    }
    return out;
  }

  obs::MetricsRegistry metrics_;
  obs::TraceBuffer trace_;
  obs::ScopedObsBinding binding_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<Disk>> disks_;
};

TEST_F(DiskStateGaugeTest, PopulationsSumToLiveDisksThroughTransitions) {
  for (int i = 0; i < 3; ++i) AddDisk(/*powered=*/true);
  AddDisk(/*powered=*/false);
  EXPECT_EQ(Population(DiskState::kIdle), 3);
  EXPECT_EQ(Population(DiskState::kPoweredOff), 1);
  ExpectSumIsLiveDisks();

  disks_[0]->SpinDown();
  EXPECT_EQ(Population(DiskState::kSpunDown), 1);
  EXPECT_EQ(Population(DiskState::kIdle), 2);
  ExpectSumIsLiveDisks();

  disks_[0]->SpinUp();
  EXPECT_EQ(Population(DiskState::kSpinningUp), 1);
  EXPECT_EQ(Population(DiskState::kSpunDown), 0);
  ExpectSumIsLiveDisks();
  sim_.Run();
  EXPECT_EQ(Population(DiskState::kSpinningUp), 0);
  EXPECT_EQ(Population(DiskState::kIdle), 3);
  ExpectSumIsLiveDisks();

  disks_[1]->Fail();  // failure is a flag, not a spin state
  EXPECT_EQ(Population(DiskState::kIdle), 3);
  ExpectSumIsLiveDisks();

  disks_[2]->PowerOff();
  EXPECT_EQ(Population(DiskState::kPoweredOff), 2);
  EXPECT_EQ(Population(DiskState::kIdle), 2);
  ExpectSumIsLiveDisks();

  disks_.pop_back();  // a destroyed disk leaves its state's population
  EXPECT_EQ(Population(DiskState::kPoweredOff), 1);
  ExpectSumIsLiveDisks();
}

TEST_F(DiskStateGaugeTest, EachTransitionSamplesEachGaugeItChangesOnce) {
  AddDisk(/*powered=*/true);
  AddDisk(/*powered=*/true);
  Disk& disk = *disks_[0];
  using Samples = std::map<std::string, std::size_t>;

  EXPECT_EQ(SamplesLeftBy([&] { disk.SpinDown(); }),
            (Samples{{"disk.state.idle", 1}, {"disk.state.spun-down", 1}}));
  EXPECT_EQ(SamplesLeftBy([&] { disk.SpinUp(); }),
            (Samples{{"disk.state.spinning-up", 1},
                     {"disk.state.spun-down", 1}}));
  EXPECT_EQ(SamplesLeftBy([&] { sim_.Run(); }),
            (Samples{{"disk.state.idle", 1}, {"disk.state.spinning-up", 1}}));
  EXPECT_EQ(SamplesLeftBy([&] { disk.Fail(); }), Samples{});
  EXPECT_EQ(SamplesLeftBy([&] { disk.PowerOff(); }),
            (Samples{{"disk.state.idle", 1}, {"disk.state.powered-off", 1}}));
  EXPECT_EQ(SamplesLeftBy([&] { disk.PowerOff(); }), Samples{});  // no-op
  EXPECT_EQ(SamplesLeftBy([&] { AddDisk(/*powered=*/false); }),
            (Samples{{"disk.state.powered-off", 1}}));

  // The sample carries the new population at the transition's sim time.
  const sim::Time before = sim_.now();
  SamplesLeftBy([&] { disks_[1]->SpinDown(); });
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  const auto& spun_down = snapshot.gauges.at("disk.state.spun-down").samples;
  ASSERT_EQ(spun_down.size(), 1u);
  EXPECT_EQ(spun_down[0].at, before);
  EXPECT_EQ(spun_down[0].value, 1);
}

}  // namespace
}  // namespace ustore::hw
