// Fletcher checksum (mod 255 and mod 256): end-weighted definition,
// block composition, check-byte solving, and the congruence properties
// the paper's analysis turns on.
#include <gtest/gtest.h>

#include "checksum/fletcher.hpp"
#include "checksum/kernels/kernel.hpp"
#include "util/rng.hpp"

namespace cksum::alg {
namespace {

using util::ByteView;
using util::Bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

/// Reference: direct evaluation of the paper's definition — A = Σ dᵢ,
/// B = Σ (position from end) · dᵢ, both mod M.
FletcherPair reference_pair(ByteView data, FletcherMod mod) {
  const std::uint64_t m = modulus(mod);
  std::uint64_t a = 0, b = 0;
  const std::size_t n = data.size();
  for (std::size_t i = 0; i < n; ++i) {
    a += data[i];
    b += static_cast<std::uint64_t>(n - i) * data[i];
  }
  return {static_cast<std::uint32_t>(a % m), static_cast<std::uint32_t>(b % m)};
}

class FletcherBothMods : public ::testing::TestWithParam<FletcherMod> {};

TEST_P(FletcherBothMods, RunningFormMatchesEndWeightedDefinition) {
  const FletcherMod mod = GetParam();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Bytes data = random_bytes(seed, 48 + seed * 31);
    EXPECT_EQ(fletcher_block(ByteView(data), mod),
              reference_pair(ByteView(data), mod));
  }
}

TEST_P(FletcherBothMods, NaiveImplementationAgrees) {
  // The naive per-byte-modulo loop is the scalar kernel.
  const FletcherMod mod = GetParam();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Bytes data = random_bytes(seed + 40, 17 + seed * 101);
    EXPECT_EQ(kern::scalar_kernel().fletcher(ByteView(data), mod),
              fletcher_block(ByteView(data), mod));
  }
}

TEST_P(FletcherBothMods, EmptyBlockIsZero) {
  EXPECT_EQ(fletcher_block(ByteView{}, GetParam()), (FletcherPair{0, 0}));
}

TEST_P(FletcherBothMods, CombineMatchesConcatenation) {
  const FletcherMod mod = GetParam();
  util::Rng rng(77);
  for (int trial = 0; trial < 32; ++trial) {
    const Bytes x = random_bytes(100 + trial, rng.below(100) + 1);
    const Bytes y = random_bytes(200 + trial, rng.below(100) + 1);
    Bytes xy = x;
    xy.insert(xy.end(), y.begin(), y.end());
    const auto px = fletcher_block(ByteView(x), mod);
    const auto py = fletcher_block(ByteView(y), mod);
    EXPECT_EQ(fletcher_combine(px, py, y.size(), mod),
              fletcher_block(ByteView(xy), mod));
  }
}

TEST_P(FletcherBothMods, ShiftIsCombineWithZeroTail) {
  // A block followed by `t` zero bytes: the B term gains t·A (zeros
  // contribute nothing themselves).
  const FletcherMod mod = GetParam();
  const Bytes x = random_bytes(5, 48);
  for (std::size_t t : {0u, 1u, 48u, 100u, 255u, 256u, 1000u}) {
    Bytes padded = x;
    padded.insert(padded.end(), t, 0x00);
    EXPECT_EQ(fletcher_shift(fletcher_block(ByteView(x), mod), t, mod),
              fletcher_block(ByteView(padded), mod))
        << "t=" << t;
  }
}

TEST_P(FletcherBothMods, IncrementalMatchesOneShot) {
  const FletcherMod mod = GetParam();
  const Bytes data = random_bytes(9, 777);
  FletcherSum s(mod);
  s.update(ByteView(data).first(100));
  s.update(ByteView(data).subspan(100, 300));
  s.update(ByteView(data).subspan(400));
  EXPECT_EQ(s.pair(), fletcher_block(ByteView(data), mod));
}

/// Check bytes: all (message length, check position) combinations that
/// appear in the packet formats must produce sum-to-zero messages.
struct CheckBytesCase {
  std::size_t len;
  std::size_t pos;  // index of first check byte
};

class FletcherCheckBytes
    : public ::testing::TestWithParam<std::tuple<FletcherMod, int>> {};

TEST_P(FletcherCheckBytes, SolvedMessageSumsToZero) {
  const auto [mod, idx] = GetParam();
  static constexpr CheckBytesCase kCases[] = {
      {308, 28},   // header-placed transport check in the coverage string
      {310, 308},  // trailer-placed
      {100, 0},    // degenerate: checksum first
      {100, 98},   // checksum last
      {100, 50},   // middle
      {2, 0},      // nothing but the check bytes
      {53, 17},
  };
  const CheckBytesCase c = kCases[idx];
  Bytes msg = random_bytes(static_cast<std::uint64_t>(idx) * 7 + 1, c.len);
  msg[c.pos] = 0;
  msg[c.pos + 1] = 0;
  const FletcherPair rest = fletcher_block(ByteView(msg), mod);
  const std::size_t u = c.len - c.pos;
  const auto [x, y] = fletcher_check_bytes(rest, u, mod);
  msg[c.pos] = x;
  msg[c.pos + 1] = y;
  EXPECT_TRUE(fletcher_verify(ByteView(msg), mod))
      << "len=" << c.len << " pos=" << c.pos;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FletcherCheckBytes,
    ::testing::Combine(::testing::Values(FletcherMod::kOnes255,
                                         FletcherMod::kTwos256),
                       ::testing::Range(0, 7)));

TEST(Fletcher255, ZeroAndFFCongruent) {
  // The mod-255 pathology: 0x00 and 0xFF are both zero, so swapping
  // them anywhere leaves the checksum unchanged.
  Bytes a = {0x00, 0x12, 0xff, 0x34, 0x00, 0xff};
  Bytes b = {0xff, 0x12, 0x00, 0x34, 0xff, 0x00};
  EXPECT_EQ(fletcher_block(ByteView(a), FletcherMod::kOnes255),
            fletcher_block(ByteView(b), FletcherMod::kOnes255));
  // ...but mod 256 distinguishes them.
  EXPECT_NE(fletcher_block(ByteView(a), FletcherMod::kTwos256),
            fletcher_block(ByteView(b), FletcherMod::kTwos256));
}

TEST(Fletcher255, RunOf255sInvisible) {
  const Bytes base = random_bytes(3, 40);
  Bytes padded = base;
  padded.insert(padded.begin() + 20, 17, 0xff);
  // Inserting 0xFF bytes changes positions of earlier bytes, so B
  // changes... unless the inserted run is congruent-silent. Check the
  // A term only: A is unchanged because 255 ≡ 0 (mod 255).
  EXPECT_EQ(fletcher_block(ByteView(base), FletcherMod::kOnes255).a,
            fletcher_block(ByteView(padded), FletcherMod::kOnes255).a);
}

TEST(Fletcher256, PositionSensitivity) {
  // Unlike the Internet checksum, Fletcher detects word swaps.
  Bytes a = {0x12, 0x34, 0x56, 0x78};
  Bytes b = {0x56, 0x78, 0x12, 0x34};
  EXPECT_NE(fletcher_block(ByteView(a), FletcherMod::kTwos256),
            fletcher_block(ByteView(b), FletcherMod::kTwos256));
  EXPECT_NE(fletcher_block(ByteView(a), FletcherMod::kOnes255),
            fletcher_block(ByteView(b), FletcherMod::kOnes255));
}

TEST(Fletcher, CellShiftColouring) {
  // The paper's §5.2 observation: moving a 48-byte cell by a multiple
  // of 48 changes its B contribution by 48·A mod M; with A ≠ 0 the
  // same content at different cell offsets contributes differently
  // ("colouring").
  const Bytes cell = random_bytes(21, 48);
  const auto p255 = fletcher_block(ByteView(cell), FletcherMod::kOnes255);
  ASSERT_NE(p255.a, 0u);
  const auto shifted = fletcher_shift(p255, 48, FletcherMod::kOnes255);
  EXPECT_NE(p255.b, shifted.b);
}

TEST(Fletcher, Mod255CellShiftPeriodIs85) {
  // 48·k ≡ 0 (mod 255) first at k = 85; mod 256 first at k = 16 —
  // the paper's "85 and 16" cell-colouring periods.
  int k255 = 0, k256 = 0;
  for (int k = 1; k <= 512; ++k) {
    if (48 * k % 255 == 0) { k255 = k; break; }
  }
  for (int k = 1; k <= 512; ++k) {
    if (48 * k % 256 == 0) { k256 = k; break; }
  }
  EXPECT_EQ(k255, 85);
  EXPECT_EQ(k256, 16);
}

INSTANTIATE_TEST_SUITE_P(BothMods, FletcherBothMods,
                         ::testing::Values(FletcherMod::kOnes255,
                                           FletcherMod::kTwos256));

}  // namespace
}  // namespace cksum::alg
