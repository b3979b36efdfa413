// Wall-clock reads for engine and pump instrumentation (busy, barrier-wait
// and pump occupancy counters). Wall time never enters a digested report:
// every report stays a pure function of (options, seed).
#pragma once

#include <chrono>
#include <cstdint>

namespace ustore {

// Monotonic wall time in nanoseconds since an arbitrary epoch.
inline std::uint64_t WallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace ustore
