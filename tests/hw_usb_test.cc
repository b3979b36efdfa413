#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "hw/usb.h"
#include "sim/simulator.h"

namespace ustore::hw {
namespace {

UsbTreeEntry DiskEntry(const std::string& name, const std::string& parent,
                       int tier) {
  return UsbTreeEntry{name, parent, tier, /*is_hub=*/false};
}

class UsbHostStackTest : public ::testing::Test {
 protected:
  UsbHostStackTest() : stack_(&sim_, "host-0") {
    stack_.set_attach_listener(
        [this](const std::string& device, UsbDeviceStatus status) {
          attach_events_.emplace_back(device, status);
          recognized_at_[device] = sim_.now();
        });
    stack_.set_detach_listener(
        [this](const std::string& device) { detached_.push_back(device); });
  }

  sim::Simulator sim_;
  UsbHostStack stack_;
  std::vector<std::pair<std::string, UsbDeviceStatus>> attach_events_;
  std::map<std::string, sim::Time> recognized_at_;
  std::vector<std::string> detached_;
};

TEST_F(UsbHostStackTest, SingleDeviceRecognizedAfterBaseDelay) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub-0", 2));
  sim_.Run();
  ASSERT_EQ(attach_events_.size(), 1u);
  EXPECT_EQ(attach_events_[0].second, UsbDeviceStatus::kRecognized);
  const auto& p = stack_.params();
  EXPECT_EQ(recognized_at_["disk-0"],
            p.recognition_base + p.recognition_serial);
  EXPECT_TRUE(stack_.IsRecognized("disk-0"));
}

TEST_F(UsbHostStackTest, BatchAttachIsSerialized) {
  // Fig. 6 part 1: recognition time grows with the number of disks switched
  // simultaneously.
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    stack_.OnDeviceAttached(DiskEntry("disk-" + std::to_string(i), "hub", 2));
  }
  sim_.Run();
  const auto& p = stack_.params();
  EXPECT_EQ(recognized_at_["disk-3"],
            p.recognition_base + n * p.recognition_serial);
  EXPECT_EQ(stack_.recognized_count(), n);
}

TEST_F(UsbHostStackTest, DetachDuringEnumerationCancelsRecognition) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.RunFor(sim::MillisD(100));
  stack_.OnDeviceDetached("disk-0");
  sim_.Run();
  EXPECT_FALSE(stack_.IsRecognized("disk-0"));
  for (const auto& [device, status] : attach_events_) {
    EXPECT_NE(status, UsbDeviceStatus::kRecognized);
  }
}

TEST_F(UsbHostStackTest, DetachNotifiesAfterNoticeDelay) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  const sim::Time before = sim_.now();
  stack_.OnDeviceDetached("disk-0");
  sim_.Run();
  ASSERT_EQ(detached_.size(), 1u);
  EXPECT_EQ(detached_[0], "disk-0");
  EXPECT_EQ(sim_.now() - before, stack_.params().detach_notice);
}

TEST_F(UsbHostStackTest, DeviceLimitQuirk) {
  // The Intel xHCI quirk: only ~15 devices enumerate (§V-B).
  for (int i = 0; i < 20; ++i) {
    stack_.OnDeviceAttached(DiskEntry("disk-" + std::to_string(i), "hub", 2));
  }
  sim_.Run();
  EXPECT_EQ(stack_.recognized_count(), stack_.params().max_devices);
  int failed = 0;
  for (const auto& [device, status] : attach_events_) {
    if (status == UsbDeviceStatus::kEnumerationFailed) ++failed;
  }
  EXPECT_EQ(failed, 20 - stack_.params().max_devices);
}

TEST_F(UsbHostStackTest, TierLimitRejectsDeepDevices) {
  stack_.OnDeviceAttached(DiskEntry("deep", "hub", 6));
  sim_.Run();
  ASSERT_EQ(attach_events_.size(), 1u);
  EXPECT_EQ(attach_events_[0].second, UsbDeviceStatus::kEnumerationFailed);
}

TEST_F(UsbHostStackTest, ReattachAfterDetachWorks) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  stack_.OnDeviceDetached("disk-0");
  sim_.Run();
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  EXPECT_TRUE(stack_.IsRecognized("disk-0"));
}

TEST_F(UsbHostStackTest, ReattachOfARecognizedDeviceEnumeratesAfresh) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub-a", 2));
  sim_.Run();
  ASSERT_TRUE(stack_.IsRecognized("disk-0"));
  // Re-routed to another parent: invisible until it enumerates again, then
  // reported at its new position.
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub-b", 3));
  EXPECT_FALSE(stack_.IsRecognized("disk-0"));
  EXPECT_EQ(stack_.recognized_count(), 0);
  EXPECT_TRUE(stack_.TreeReport().empty());
  sim_.Run();
  ASSERT_EQ(stack_.TreeReport().size(), 1u);
  EXPECT_EQ(stack_.TreeReport()[0].parent, "hub-b");
  EXPECT_EQ(stack_.TreeReport()[0].tier, 3);
}

TEST_F(UsbHostStackTest, RecognizedQueriesAgreeUnderTheDeviceLimit) {
  // 20 attaches, 5 over the limit; then detaching recognized devices frees
  // slots that re-attached devices take. Every recognized query must list
  // the same name-ordered set.
  for (int i = 0; i < 20; ++i) {
    stack_.OnDeviceAttached(DiskEntry("disk-" + std::to_string(i), "hub", 2));
  }
  sim_.Run();
  for (int i = 0; i < 4; ++i) {
    stack_.OnDeviceDetached("disk-" + std::to_string(i));
  }
  for (int i = 15; i < 20; ++i) {
    stack_.OnDeviceAttached(DiskEntry("disk-" + std::to_string(i), "hub", 2));
  }
  sim_.Run();
  const std::vector<std::string> names = stack_.RecognizedDevices();
  EXPECT_EQ(static_cast<int>(names.size()), stack_.params().max_devices);
  EXPECT_EQ(stack_.recognized_count(), stack_.params().max_devices);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const UsbTreeReport report = stack_.TreeReport();
  ASSERT_EQ(report.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(report[i].device, names[i]);
    EXPECT_TRUE(stack_.IsRecognized(names[i]));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(stack_.IsRecognized("disk-" + std::to_string(i)));
  }
}

TEST_F(UsbHostStackTest, ResetClearsEverything) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  stack_.Reset();
  EXPECT_EQ(stack_.recognized_count(), 0);
  EXPECT_TRUE(stack_.RecognizedDevices().empty());
}

TEST_F(UsbHostStackTest, TreeReportListsRecognizedDevices) {
  stack_.OnDeviceAttached(UsbTreeEntry{"hub-0", "", 1, true});
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub-0", 2));
  sim_.Run();
  UsbTreeReport report = stack_.TreeReport();
  ASSERT_EQ(report.size(), 2u);
  // Report is name-ordered (map iteration) for determinism.
  EXPECT_EQ(report[0].device, "disk-0");
  EXPECT_EQ(report[0].parent, "hub-0");
  EXPECT_EQ(report[1].device, "hub-0");
  EXPECT_TRUE(report[1].is_hub);
}

TEST_F(UsbHostStackTest, LinkParamDefaults) {
  UsbHostControllerParams p;
  EXPECT_DOUBLE_EQ(ToMBps(p.root_link.cap_per_direction), 300.0);
  EXPECT_DOUBLE_EQ(ToMBps(p.root_link.cap_duplex_total), 540.0);
  EXPECT_EQ(p.max_devices, 15);
  EXPECT_EQ(p.max_tiers, 5);
}

}  // namespace
}  // namespace ustore::hw
