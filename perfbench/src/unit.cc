#include "unit.h"

#include "fabric/builders.h"

namespace perfbench {

using namespace ustore;

core::ClusterOptions SmallUnitOptions(std::uint64_t seed) {
  core::ClusterOptions options;
  options.seed = seed;
  options.fabric.groups = 8;
  options.fabric.disks_per_leaf = 4;
  options.fabric.leaf_hubs_per_group = 2;
  return options;
}

std::vector<std::string> DiskNames(core::Cluster& cluster) {
  const fabric::Topology& topology = cluster.fabric().topology();
  std::vector<std::string> names;
  for (fabric::NodeIndex node : topology.Disks()) {
    names.push_back(topology.node(node).name);
  }
  return names;
}

double MeanDiskPower(core::Cluster& cluster,
                     const std::vector<std::string>& disks) {
  double watts = 0;
  for (const std::string& name : disks) {
    watts += cluster.fabric().disk(name)->current_power();
  }
  return disks.empty() ? 0 : watts / static_cast<double>(disks.size());
}

void AddClusterCounts(core::Cluster& cluster, Report& report) {
  fabric::FabricManager& manager = cluster.fabric();
  const fabric::BuiltFabric& built = manager.fabric();
  const fabric::Topology& topology = built.topology;
  core::Master* master = cluster.active_master();
  std::uint64_t ios = 0;
  std::uint64_t known = 0;
  std::uint64_t unenumerated = 0;
  for (fabric::NodeIndex node : built.disks) {
    const std::string& name = topology.node(node).name;
    ios += manager.disk(node)->ios_completed();
    if (master != nullptr && master->CurrentHostOfDisk(name) >= 0) ++known;
    // A disk whose active path reaches a host port but that host's USB
    // stack never recognized: the device-limit enumeration failure.
    const int host = built.HostOfDisk(node);
    if (host >= 0 && !manager.host_stack(host)->IsRecognized(name)) {
      ++unenumerated;
    }
  }
  report.Layer("fabric.nodes", topology.size());
  report.Layer("hw.disk_ios", static_cast<double>(ios));
  report.Layer("master.disks_known", static_cast<double>(known));
  report.Layer("usb.enumeration_failed", static_cast<double>(unenumerated));
}

double FindMicros(core::Cluster& cluster, int probes) {
  const fabric::BuiltFabric& built = cluster.fabric().fabric();
  const fabric::Topology& topology = built.topology;
  const std::size_t disks = built.disks.size();
  if (disks == 0 || probes <= 0) return 0;
  std::vector<std::string> names;
  for (int i = 0; i < probes; ++i) {
    const std::size_t index = static_cast<std::size_t>(i) * disks /
                              static_cast<std::size_t>(probes);
    names.push_back(topology.node(built.disks[index]).name);
  }
  std::uint64_t found = 0;
  const Clock::time_point start = Clock::now();
  for (const std::string& name : names) {
    if (topology.Find(name).ok()) ++found;
  }
  const double seconds = SecondsSince(start);
  return found == names.size() ? seconds * 1e6 / static_cast<double>(probes)
                               : 0;
}

double FabricBuildSeconds(const core::ClusterOptions& options) {
  const Clock::time_point start = Clock::now();
  fabric::BuiltFabric built = fabric::BuildPrototypeFabric(options.fabric);
  const double seconds = SecondsSince(start);
  return built.disks.empty() ? 0 : seconds;
}

}  // namespace perfbench
