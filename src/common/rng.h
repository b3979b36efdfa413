// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulation (enumeration jitter, workload
// address streams, failure injection) draws from explicitly seeded Rng
// instances so that every experiment is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <string_view>

namespace ustore {

// splitmix64 (Steele, Lea & Flood): one step of the generator from state
// `x`, i.e. the finalizer applied to x + the golden-ratio increment. The one
// 64-bit mixer behind Rng seeding, fleet unit seeds and stripe probe starts.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// 64-bit FNV-1a over the bytes of `s`: the one string hash behind every
// digest (trace buffers, cluster and fleet reports) and SeedFromId.
inline std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// xoshiro256++ seeded via splitmix64. Small, fast, well distributed; not
// cryptographic (nothing here needs to be).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform over all 64-bit values.
  std::uint64_t NextU64();

  // Uniform in [0, n). Requires n > 0.
  std::uint64_t NextBelow(std::uint64_t n);

  // Uniform in [lo, hi]. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // Normal (Gaussian) with the given mean and stddev, via Box-Muller.
  double NextNormal(double mean, double stddev);

  // Derive an independent child generator (stable given call order).
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

// Stable 64-bit seed derived from a string id (FNV-1a). Components that
// need per-instance jitter (retry backoff, probe scheduling) derive their
// stream from their own node id, so distinct instances desynchronize while
// every run stays reproducible.
inline std::uint64_t SeedFromId(std::string_view id) { return Fnv1a(id); }

}  // namespace ustore
