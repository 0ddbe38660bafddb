// Deterministic, splittable random-number utilities.
//
// Every randomized component in the library (instance generators, the
// Cluster scheduler's Approach 2, the Star scheduler, benchmark sweeps)
// draws from a `dtm::Rng` seeded explicitly by the caller, so every result
// in EXPERIMENTS.md is reproducible from its recorded seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "util/error.hpp"

namespace dtm {

/// Thin wrapper over std::mt19937_64 with convenience draws and a `split()`
/// operation that derives an independent child stream (useful when handing
/// sub-seeds to parallel workers without sharing state).
///
/// The engine is seeded on the first draw, not at construction: seeding a
/// Mersenne Twister is a 312-step serial recurrence, and many owners (the
/// Cluster scheduler's greedy approach, the Star scheduler's deterministic
/// paths) never draw at all. Every stream, copies and `split()` included,
/// is the one `std::mt19937_64(seed)` would give.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : seed_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    DTM_REQUIRE(lo <= hi, "Rng::uniform: lo > hi");
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine());
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    DTM_REQUIRE(n > 0, "Rng::index: empty range");
    return static_cast<std::size_t>(uniform(0, n - 1));
  }

  /// Uniform real in [0, 1).
  double real() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine()); }

  /// Bernoulli draw with success probability p in [0, 1].
  bool chance(double p) { return real() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Sample `k` distinct indices uniformly from [0, n) (Floyd's algorithm);
  /// result is in ascending order. Requires k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derive an independent child generator. The child's stream does not
  /// overlap this one's for any practical draw count.
  Rng split() { return Rng(engine()() ^ 0xD1B54A32D192ED03ULL); }

  /// Raw 64-bit draw (satisfies UniformRandomBitGenerator).
  std::uint64_t operator()() { return engine()(); }
  static constexpr std::uint64_t min() { return std::mt19937_64::min(); }
  static constexpr std::uint64_t max() { return std::mt19937_64::max(); }

 private:
  // Every draw goes through here.
  std::mt19937_64& engine() {
    if (!engine_) engine_.emplace(seed_);
    return *engine_;
  }

  std::uint64_t seed_;
  std::optional<std::mt19937_64> engine_;
};

inline std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  DTM_REQUIRE(k <= n, "Rng::sample_indices: k > n");
  // Floyd's algorithm: k iterations, set membership via sorted vector since
  // k is small in all our workloads.
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = static_cast<std::size_t>(uniform(0, j));
    bool present = false;
    for (std::size_t x : out) {
      if (x == t) {
        present = true;
        break;
      }
    }
    out.push_back(present ? j : t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dtm
