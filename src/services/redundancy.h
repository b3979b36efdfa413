// Erasure-coded redundancy with declustered, reallocation-free rebuild.
//
// UStore's $/TB story (Table I) only holds if durability does not lean on
// replication or on rebuild windows that grow with unit size. This module
// supplies the three missing pieces on top of the placement function
// (fabric/placement.h):
//
//   * Stripe tag code — the simulation models data as 64-bit tags; an
//     RS(k+m) stripe is modelled by one generator tag per stripe from
//     which every chunk's tag is derived (and inverted). Reading any
//     chunk recovers the generator, so reconstruction is exact in-model,
//     while the rebuild engine still pays for k real chunk reads and
//     cross-checks that all of them agree — disagreement is detected
//     corruption (kDataLoss), the in-model analogue of an RS syndrome
//     mismatch.
//
//   * Rebuild planner — given a layout and a failed disk, emits the
//     declustered schedule: per affected stripe, the k least-planned
//     surviving chunks to read and a spare location (PlaceSpare: fresh
//     failure domain, zero movement of any other chunk). The plan's
//     per-disk read/write op counts are the declustering claim made
//     concrete: max ops per disk falls as the unit grows.
//
//   * Rebuild time model + MTTDL — closed-form time for executing a plan
//     under per-disk bandwidth and a spin-group power budget (a cold unit
//     may only spin a fraction of its disks at once), for the declustered
//     engine and for a serial queue-depth-1 copier; and Thomasian
//     MTTDL estimates (PAPERS.md) for RS(k+m) declustered vs dedicated
//     groups vs the old single-failure re-attach baseline, with MTTR fed
//     from the rebuild model. bench_rebuild sweeps these 1k -> 10k disks;
//     EXPERIMENTS.md records the numbers.
//
// Everything here is a pure function of its arguments (layouts are pure
// functions of (options, seed, call order)), so plans, times and MTTDL
// figures are bit-identical across runs and machines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fabric/placement.h"
#include "sim/time.h"

namespace ustore::services::redundancy {

// --- Stripe tag code ----------------------------------------------------------

// Chunk tags are an invertible mix of the stripe's generator tag and the
// chunk index, so corruption of either shows up as generator disagreement.
std::uint64_t ChunkTag(std::uint64_t stripe_tag, int chunk_index);
std::uint64_t StripeTagFromChunk(std::uint64_t chunk_tag, int chunk_index);

// --- Stripe map ----------------------------------------------------------------

// A placed stripe: chunk index -> layout location, plus which layout
// epoch's stripe id it was created under.
struct Stripe {
  std::uint64_t id = 0;
  fabric::StripePlacement chunks;
};

// A populated layout: the placement state plus every stripe, with a
// disk -> (stripe, chunk) reverse index for rebuild planning.
class StripeMap {
 public:
  explicit StripeMap(fabric::PlacementOptions options);

  fabric::DeclusteredPlacement& layout() { return layout_; }
  const fabric::DeclusteredPlacement& layout() const { return layout_; }

  // Places and records the next stripe (id = count()).
  Result<const Stripe*> Append();
  // Appends `count` stripes; stops at the first error.
  Status AppendMany(int count);

  std::size_t count() const { return stripes_.size(); }
  const Stripe& stripe(std::uint64_t id) const { return stripes_.at(id); }
  const std::vector<Stripe>& stripes() const { return stripes_; }

  // (stripe id, chunk index) pairs resident on `disk`, in stripe order.
  struct ChunkRef {
    std::uint64_t stripe = 0;
    int chunk = 0;
  };
  const std::vector<ChunkRef>& ChunksOnDisk(int disk) const;

  // Applies a rebuild: chunk `ref.chunk` of each affected stripe moves to
  // the planned spare (the only mutation a disk failure ever causes).
  void ApplySpare(std::uint64_t stripe_id, int chunk_index,
                  const fabric::ChunkLocation& spare);

 private:
  fabric::DeclusteredPlacement layout_;
  std::vector<Stripe> stripes_;
  std::vector<std::vector<ChunkRef>> disk_chunks_;  // disk -> refs
};

// --- Rebuild planner -----------------------------------------------------------

// One lost chunk's reconstruction: read `reads`, write the decoded chunk
// to `spare`.
struct RebuildStripeOp {
  std::uint64_t stripe = 0;
  int lost_chunk = 0;
  std::vector<fabric::ChunkLocation> reads;  // k surviving chunk locations
  fabric::ChunkLocation spare;
};

struct RebuildPlan {
  int failed_disk = -1;
  std::vector<RebuildStripeOp> ops;   // stripe order (deterministic)
  std::vector<int> disk_reads;        // dense disk -> planned chunk reads
  std::vector<int> disk_writes;       // dense disk -> planned spare writes

  int total_chunk_reads = 0;
  int total_chunk_writes = 0;
  // Declustering quality: the busiest disk's planned ops. Rebuild time is
  // proportional to this, not to the failed disk's chunk count.
  int max_disk_ops = 0;
  int disks_touched = 0;
};

// Plans the rebuild of every chunk resident on `failed_disk`. Reads pick
// the k surviving chunks whose disks have the least planned work so far
// (ties -> lowest disk index) — the declustered fan-out. Spares come from
// PlaceSpare on a *copy* of the map's layout unless `apply` is set, in
// which case the map is updated in place (spares recorded, failed chunks
// released). Pure: identical inputs give identical plans.
Result<RebuildPlan> PlanRebuild(StripeMap& map, int failed_disk, bool apply);

// --- Rebuild time model ----------------------------------------------------------

struct RebuildTimeModel {
  Bytes chunk_size = MiB(4);
  BytesPerSec disk_read_bw = MBps(180);   // outer-track sequential, §II
  BytesPerSec disk_write_bw = MBps(160);
  sim::Duration per_chunk_overhead = sim::MillisD(8);  // seek + issue
  sim::Duration spin_up = sim::Seconds(8);
  // Spin-group power budget: fraction of the unit's disks that may spin
  // concurrently (the PSU is provisioned per shelf, so the cap scales
  // with the unit; §III-B rolling spin-up).
  double spin_budget_fraction = 0.25;
};

// Simulated duration of executing `plan` with unit-wide parallelism: every
// involved disk works its own queue concurrently, capped by the spin
// budget; one spin-up wave per throttle group. max(bottleneck disk,
// aggregate work / powered disks) + wave spin-ups.
sim::Duration DeclusteredRebuildTime(const RebuildPlan& plan,
                                     const RebuildTimeModel& model,
                                     int total_disks);

// A serial queue-depth-1 copier modelled in closed form (no executor runs
// it): `chunks` blocks copied from a replica, each a read leg then a write
// leg, plus one spin-up for the source/target pair — the pre-redundancy
// baseline bench_rebuild compares RebuildEngine's plans against. Grows
// linearly with the data the failure exposed.
sim::Duration SerialAgentRebuildTime(int chunks, const RebuildTimeModel& model);

// --- MTTDL (Thomasian, PAPERS.md) -----------------------------------------------

struct MttdlOptions {
  int total_disks = 1000;
  int data_chunks = 8;       // k
  int parity_chunks = 3;     // m
  double disk_mttf_hours = 1.2e6;  // ~7.3e5..1.4e6 h field AFR range
  double repair_hours = 8;   // MTTR: rebuild + detection + dispatch
};

// Expected hours to the first data loss.
//   * Declustered RS(k+m): loss needs m+1 overlapping failures inside one
//     repair window; any (m+1)-subset of the unit can co-host a stripe, so
//     the failure-combination count is the unit's, but MTTR shrinks with
//     unit size (fed from the rebuild model by the caller).
//   * Dedicated groups: the unit partitions into N/(k+m) independent
//     groups; combinations are per-group, MTTR is the serial agent's.
//   * Re-attach baseline: no redundancy — the first disk *hardware* loss
//     is data loss (fabric re-attach only covers host/path failures).
double MttdlDeclusteredHours(const MttdlOptions& options);
double MttdlDedicatedHours(const MttdlOptions& options);
double MttdlReattachHours(const MttdlOptions& options);

}  // namespace ustore::services::redundancy
