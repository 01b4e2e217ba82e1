// Deterministic pseudo-random number generation for reproducible corpora.
//
// Every experiment in this repository is seeded; the same seed always
// produces the same synthetic filesystem, packet stream, and table. We
// use xoshiro256** (Blackman & Vigna) seeded via SplitMix64, both
// implemented here so the corpus does not depend on the standard
// library's unspecified engine implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace cksum::util {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
/// Also useful directly as a cheap stateless mixer.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG with 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Fill a buffer with uniform bytes.
  void fill(std::span<std::uint8_t> out) noexcept;

  /// Geometric-ish run length: 1 + Geometric(p) capped at `cap`.
  /// Used by generators that emit runs of repeated bytes.
  std::size_t run_length(double p_continue, std::size_t cap) noexcept;

  /// Pick an index from a discrete weight table (weights need not sum
  /// to anything in particular; all-zero weights pick index 0). Linear
  /// in the table size; WeightedIndex returns the same index from a
  /// prebuilt table in near-constant time.
  std::size_t pick_weighted(std::span<const double> weights) noexcept;

  /// UniformRandomBitGenerator interface (for std::shuffle etc.).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Derive an independent child generator (stable: depends only on
  /// the parent seed and the stream id, not on how much the parent has
  /// been consumed).
  Rng child(std::uint64_t stream_id) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_;
};

/// A fixed weight table prepared for repeated picks. pick(rng) returns
/// exactly what rng.pick_weighted(weights) would, and consumes the same
/// random draw, so swapping one for the other changes no generated
/// byte.
///
/// pick_weighted draws x0 = uniform01() * total and returns the first
/// i at which the rounded chain x0 - w[0] - ... - w[i] goes negative
/// (or the last index). Each rounded subtraction is monotone, so that
/// index is a non-decreasing step function of x0. The constructor
/// finds its exact steps: thresholds_[i] is the smallest double x0
/// whose chain gets past index i. A pick counts the thresholds <= x0,
/// starting from a guide entry for x0's equal-width bucket of
/// [0, total) and correcting in either direction, so any guide entry
/// gives the exact index and a good one gives it in a step or two.
class WeightedIndex {
 public:
  explicit WeightedIndex(std::span<const double> weights);

  std::size_t pick(Rng& rng) const noexcept;

  /// The index pick_weighted's chain reaches from a given x0 in
  /// [0, total]; pick(rng) is index_at(rng.uniform01() * total) when
  /// total > 0.
  std::size_t index_at(double x0) const noexcept;

 private:
  double total_ = 0.0;         ///< left-to-right sum, as pick_weighted forms it
  double bucket_scale_ = 0.0;  ///< guide_.size() / total_
  std::size_t last_ = 0;       ///< the fall-through index
  std::vector<double> thresholds_;     ///< one per index but the last
  std::vector<std::uint16_t> guide_;  ///< per bucket: thresholds <= its low edge
};

}  // namespace cksum::util
