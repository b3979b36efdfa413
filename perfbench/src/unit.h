// Pieces the workloads share: the 64-disk deploy unit, fabric-level
// probes and the per-layer counts read off a live core::Cluster.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "report.h"

namespace perfbench {

// The archive_io / stripes unit: 8 hosts, each with 2 leaf hubs of 4
// disks, so every host enumerates 1 mid hub + 2 leaf hubs + 8 disks,
// within the 15-device host limit.
ustore::core::ClusterOptions SmallUnitOptions(std::uint64_t seed);

// Fabric disk names in topology order.
std::vector<std::string> DiskNames(ustore::core::Cluster& cluster);

// Mean draw per disk right now, from hw::Disk::current_power.
double MeanDiskPower(ustore::core::Cluster& cluster,
                     const std::vector<std::string>& disks);

// Paper Table III, disk behind the USB bridge: the spun-down and the
// read/write draw bound any mean per-disk draw.
inline constexpr double kSpunDownWatts = 1.56;
inline constexpr double kActiveWatts = 7.56;

// fabric.nodes, hw.disk_ios, master.disks_known, usb.enumeration_failed.
void AddClusterCounts(ustore::core::Cluster& cluster, Report& report);

// Mean wall time of Topology::Find over `probes` disk names spread evenly
// over the disk list, in microseconds.
double FindMicros(ustore::core::Cluster& cluster, int probes);

// Host wall time of a standalone fabric build with the cluster's options.
double FabricBuildSeconds(const ustore::core::ClusterOptions& options);

}  // namespace perfbench
