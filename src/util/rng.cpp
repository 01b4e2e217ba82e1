#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace cksum::util {

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // xoshiro must not be seeded with all-zero state; SplitMix64 never
  // produces four consecutive zeros, but be defensive anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  // 53 top bits -> [0,1) with full double granularity.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

void Rng::fill(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t word = next();
    for (int b = 0; b < 8; ++b)
      out[i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(word >> (8 * b));
    i += 8;
  }
  if (i < out.size()) {
    std::uint64_t word = next();
    for (; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(word);
      word >>= 8;
    }
  }
}

std::size_t Rng::run_length(double p_continue, std::size_t cap) noexcept {
  std::size_t n = 1;
  while (n < cap && chance(p_continue)) ++n;
  return n;
}

std::size_t Rng::pick_weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return 0;
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

namespace {

// Doubles (NaN excluded) mapped to integers in the same order, so a
// search can step to the adjacent double. -0.0 and +0.0 get adjacent
// keys; every predicate below treats them alike.
constexpr std::uint64_t order_key(double d) noexcept {
  const auto b = std::bit_cast<std::uint64_t>(d);
  return (b >> 63) != 0 ? ~b : b | (1ULL << 63);
}

constexpr double from_order_key(std::uint64_t k) noexcept {
  return std::bit_cast<double>((k >> 63) != 0 ? k & ~(1ULL << 63) : ~k);
}

constexpr std::uint64_t kMinKey =
    order_key(-std::numeric_limits<double>::infinity());
constexpr std::uint64_t kMaxKey =
    order_key(std::numeric_limits<double>::infinity());

// Smallest y with fl(y - w) >= c. The rounded difference is
// non-decreasing in y and reaches +inf, so the set is [y*, +inf].
// y* is almost always the guess c + w, which two subtractions confirm.
// Otherwise gallop out from the guess and bisect the bracket:
// absorption (|w| far above c) can put y* many doubles away.
double min_preimage(double w, double c) noexcept {
  const auto ok = [&](std::uint64_t k) { return from_order_key(k) - w >= c; };
  std::uint64_t hi = order_key(c + w);
  if (hi != kMinKey && ok(hi) && !ok(hi - 1)) return from_order_key(hi);
  std::uint64_t lo = hi;  // !ok(lo), once the gallop stops
  std::uint64_t step = 1;
  if (ok(hi)) {
    for (;;) {
      if (hi == kMinKey) return from_order_key(hi);
      lo = hi - kMinKey <= step ? kMinKey : hi - step;
      if (!ok(lo)) break;
      hi = lo;
      step *= 2;
    }
  } else {
    for (;; step *= 2) {
      hi = kMaxKey - lo <= step ? kMaxKey : lo + step;
      if (ok(hi)) break;
      lo = hi;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (ok(mid) ? hi : lo) = mid;
  }
  return from_order_key(hi);
}

}  // namespace

WeightedIndex::WeightedIndex(std::span<const double> weights) {
  for (double w : weights) total_ += w;
  last_ = weights.empty() ? 0 : weights.size() - 1;
  // No table when pick() draws nothing (total <= 0), has one index to
  // return, or meets a chain that never goes negative: a NaN or
  // infinite total makes x0 NaN or infinite, and pick_weighted then
  // falls through to the last index.
  if (!(total_ > 0.0) || !std::isfinite(total_) || last_ == 0) return;

  // The chain gets past index i iff every partial x_j (j <= i) is
  // >= 0. Each of those conditions holds on an up-set [a_j, +inf] of
  // x0, found by inverting the chain from x_j >= 0 back to x0; the
  // threshold is the running maximum of the a_j.
  thresholds_.resize(weights.size() - 1);
  double running = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    double c = 0.0;
    for (std::size_t j = i + 1; j-- > 0;) c = min_preimage(weights[j], c);
    running = std::max(running, c);
    thresholds_[i] = running;
  }

  constexpr std::size_t kBuckets = 2048;
  guide_.resize(kBuckets);
  bucket_scale_ = static_cast<double>(kBuckets) / total_;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double edge = static_cast<double>(b) / bucket_scale_;
    const auto below = static_cast<std::size_t>(
        std::upper_bound(thresholds_.begin(), thresholds_.end(), edge) -
        thresholds_.begin());
    // Past 65,535 indices the entry saturates; the walk stays exact.
    guide_[b] = static_cast<std::uint16_t>(std::min<std::size_t>(below, 0xFFFF));
  }
}

std::size_t WeightedIndex::pick(Rng& rng) const noexcept {
  if (total_ <= 0.0) return 0;
  return index_at(rng.uniform01() * total_);
}

std::size_t WeightedIndex::index_at(double x0) const noexcept {
  if (thresholds_.empty()) return last_;
  const std::size_t bucket = std::min(
      static_cast<std::size_t>(x0 * bucket_scale_), guide_.size() - 1);
  std::size_t k = guide_[bucket];
  const std::size_t n = thresholds_.size();
  while (k < n && thresholds_[k] <= x0) ++k;
  while (k > 0 && thresholds_[k - 1] > x0) --k;
  return k;
}

Rng Rng::child(std::uint64_t stream_id) const noexcept {
  SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL + stream_id));
  return Rng(sm.next() ^ stream_id);
}

}  // namespace cksum::util
