// Adler-32 and the util substrate (RNG, hashing, byte helpers, math).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <set>
#include <vector>

#include "checksum/adler32.hpp"
#include "fsgen/generator.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"
#include "util/pcap.hpp"
#include "util/rng.hpp"

namespace cksum {
namespace {

using util::ByteView;
using util::Bytes;

TEST(Adler32, KnownVector) {
  const char* s = "Wikipedia";
  EXPECT_EQ(alg::adler32(ByteView(
                reinterpret_cast<const std::uint8_t*>(s), strlen(s))),
            0x11E60398u);
}

TEST(Adler32, EmptyIsOne) { EXPECT_EQ(alg::adler32(ByteView{}), 1u); }

TEST(Adler32, StreamingMatchesOneShot) {
  Bytes data(10000);
  util::Rng rng(1);
  rng.fill(data);
  std::uint32_t a = 1;
  a = alg::adler32(a, ByteView(data).first(1234));
  a = alg::adler32(a, ByteView(data).subspan(1234));
  EXPECT_EQ(a, alg::adler32(ByteView(data)));
}

TEST(Adler32, CombineMatchesConcatenation) {
  util::Rng rng(2);
  for (int t = 0; t < 16; ++t) {
    Bytes a(rng.below(300) + 1), b(rng.below(300) + 1);
    rng.fill(a);
    rng.fill(b);
    Bytes ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(alg::adler32_combine(alg::adler32(ByteView(a)),
                                   alg::adler32(ByteView(b)), b.size()),
              alg::adler32(ByteView(ab)));
  }
}

TEST(Rng, Deterministic) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  util::Rng rng(4);
  std::array<int, 10> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 - 1000);
    EXPECT_LT(c, kDraws / 10 + 1000);
  }
}

TEST(Rng, BetweenInclusive) {
  util::Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Range) {
  util::Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, FillCoversAllBytePositions) {
  util::Rng rng(8);
  Bytes buf(13);
  rng.fill(buf);
  // Probability of any byte being zero by chance is tiny but nonzero;
  // just check the buffer isn't left untouched as a whole.
  Bytes zero(13, 0);
  EXPECT_NE(buf, zero);
}

TEST(Rng, PickWeightedHonoursWeights) {
  util::Rng rng(9);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.pick_weighted(w), 1u);
}

// WeightedIndex must return pick_weighted's index from the same draw,
// or every generated text file would change.
void expect_same_picks(std::span<const double> w, std::size_t draws,
                       std::uint64_t seed) {
  util::Rng ref(seed);
  util::Rng rng(seed);
  const util::WeightedIndex index(w);
  for (std::size_t d = 0; d < draws; ++d) {
    const std::size_t want = ref.pick_weighted(w);
    const std::size_t got = index.pick(rng);
    if (got != want) {
      ADD_FAILURE() << "draw " << d << ": pick " << got << ", pick_weighted "
                    << want;
      return;
    }
  }
  EXPECT_EQ(rng.next(), ref.next()) << "the two consumed different draws";
}

// pick_weighted's chain from a given x0.
std::size_t chain_index(std::span<const double> w, double x) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    x -= w[i];
    if (x < 0.0) return i;
  }
  return w.size() - 1;
}

// Random draws almost never land on a step of the index function, so
// find every step in [0, total] by plain bisection on the chain and
// check WeightedIndex on both sides of it.
void expect_exact_steps(std::span<const double> w) {
  double total = 0.0;
  for (double x : w) total += x;
  ASSERT_GT(total, 0.0);
  const util::WeightedIndex index(w);
  const auto at = [](std::uint64_t bits) { return std::bit_cast<double>(bits); };
  const std::uint64_t top = std::bit_cast<std::uint64_t>(total);
  EXPECT_EQ(index.index_at(0.0), chain_index(w, 0.0));
  EXPECT_EQ(index.index_at(total), chain_index(w, total));
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    if (chain_index(w, 0.0) > i || chain_index(w, total) <= i) continue;
    std::uint64_t lo = 0;  // chain_index(at(lo)) <= i < chain_index(at(hi))
    std::uint64_t hi = top;
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      (chain_index(w, at(mid)) > i ? hi : lo) = mid;
    }
    for (const std::uint64_t b : {lo, hi})
      ASSERT_EQ(index.index_at(at(b)), chain_index(w, at(b)))
          << "step past index " << i << " at x0 = " << at(hi);
  }
}

TEST(Rng, WeightedIndexMatchesPickWeightedOnTextWords) {
  const std::span<const double> words = fsgen::text_word_weights();
  ASSERT_GT(words.size(), 400u);
  expect_same_picks(words, 1'000'000, 11);
  expect_exact_steps(words);
}

TEST(Rng, WeightedIndexMatchesPickWeightedOnEdgeVectors) {
  // Zeros at both ends and in the middle; decimal weights whose sums
  // round; weights far below the rounding unit of the running total,
  // which the chain absorbs.
  const std::vector<std::vector<double>> vectors = {
      {0.0, 0.0, 1.0, 0.0, 2.5, 0.0, 0.0},
      {3.5},
      {0.1, 0.2, 0.3, 0.7, 0.0, 1.1, 0.1},
      {1.0, 0x1p-60, 0x1p-60, 0x1p-55, 1e-300, 2.0, 0x1p-70},
      {0x1p-60, 0x1p-60, 1.0, 0x1p-60},
  };
  for (const auto& w : vectors) {
    SCOPED_TRACE(::testing::Message() << "vector of " << w.size());
    expect_same_picks(w, 20'000, 12);
    expect_exact_steps(w);
  }
}

TEST(Rng, WeightedIndexFollowsChainFallThrough) {
  // x0 + 2^53 rounds up to 2^53 + 2 for x0 > 1, after which the chain
  // never goes negative and falls through to the last (zero-weight)
  // index; a third of all draws do.
  const std::vector<double> w = {-0x1p53, 0x1p53, 1.5, 0.0};
  util::Rng rng(13);
  std::size_t fell_through = 0;
  for (int d = 0; d < 3000; ++d) fell_through += rng.pick_weighted(w) == 3;
  EXPECT_GT(fell_through, 500u);
  expect_same_picks(w, 20'000, 13);
  expect_exact_steps(w);
}

TEST(Rng, WeightedIndexWithoutPositiveTotalDrawsNothing) {
  const std::vector<std::vector<double>> vectors = {
      {}, {0.0}, {0.0, 0.0, 0.0}, {1.0, -2.0}};
  for (const auto& w : vectors) {
    util::Rng rng(14);
    util::Rng ref(14);
    const util::WeightedIndex index(w);
    EXPECT_EQ(index.pick(rng), 0u);
    EXPECT_EQ(ref.pick_weighted(w), 0u);
    EXPECT_EQ(rng.next(), util::Rng(14).next()) << "pick consumed a draw";
    EXPECT_EQ(ref.next(), util::Rng(14).next());
  }
}

TEST(Rng, WeightedIndexMatchesPickWeightedOnNonFiniteWeights) {
  // A NaN or +inf total falls through to the last index after one
  // draw; a -inf total returns 0 without one.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> vectors = {
      {1.0, inf, 2.0}, {1.0, std::nan(""), 2.0}, {1e308, 1e308, -1e308},
      {inf, -inf}, {-inf, 1.0}};
  for (const auto& w : vectors) expect_same_picks(w, 1000, 15);
}

TEST(Rng, ChildStreamsIndependentOfConsumption) {
  util::Rng a(10);
  util::Rng b(10);
  (void)a.next();  // consume from a only
  util::Rng ca = a.child(5);
  util::Rng cb = b.child(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ca.next(), cb.next());
}

TEST(Hash, DeterministicAndLengthSensitive) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3, 0};
  EXPECT_EQ(util::hash64(ByteView(a)), util::hash64(ByteView(a)));
  EXPECT_NE(util::hash64(ByteView(a)), util::hash64(ByteView(b)));
}

TEST(Hash, NoCollisionsOnSmallCorpus) {
  std::set<std::uint64_t> seen;
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    Bytes cell(48);
    rng.fill(cell);
    seen.insert(util::hash64(ByteView(cell)));
  }
  EXPECT_EQ(seen.size(), 20000u);
}

TEST(Bytes, BigEndianRoundTrip) {
  std::uint8_t buf[4];
  util::store_be16(buf, 0xBEEF);
  EXPECT_EQ(util::load_be16(buf), 0xBEEF);
  util::store_be32(buf, 0xDEADBEEF);
  EXPECT_EQ(util::load_be32(buf), 0xDEADBEEFu);
}

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x1f, 0xa0, 0xff};
  EXPECT_EQ(util::to_hex(ByteView(data)), "001fa0ff");
  EXPECT_EQ(util::from_hex("001fa0ff"), data);
  EXPECT_EQ(util::from_hex("00 1f A0 Ff"), data);
}

TEST(Bytes, FromHexRejectsGarbage) {
  EXPECT_THROW(util::from_hex("xyz"), std::invalid_argument);
  EXPECT_THROW(util::from_hex("abc"), std::invalid_argument);  // odd digits
}


TEST(Pcap, GlobalAndRecordHeaders) {
  std::ostringstream os;
  util::PcapWriter w(os);
  const Bytes pkt1 = {0x45, 0x00, 0x00, 0x04};
  const Bytes pkt2(64, 0xab);
  w.write_packet(ByteView(pkt1));
  w.write_packet(ByteView(pkt2));
  EXPECT_EQ(w.packets_written(), 2u);
  const std::string s = os.str();
  ASSERT_EQ(s.size(), 24 + (16 + 4) + (16 + 64));
  // Magic, version, linktype.
  EXPECT_EQ(static_cast<unsigned char>(s[0]), 0xd4);
  EXPECT_EQ(static_cast<unsigned char>(s[3]), 0xa1);
  EXPECT_EQ(static_cast<unsigned char>(s[4]), 2);  // version major
  EXPECT_EQ(static_cast<unsigned char>(s[20]), 101);  // LINKTYPE_RAW
  // First record: lengths 4.
  EXPECT_EQ(static_cast<unsigned char>(s[24 + 8]), 4);
  EXPECT_EQ(static_cast<unsigned char>(s[24 + 12]), 4);
  // Payload follows.
  EXPECT_EQ(static_cast<unsigned char>(s[24 + 16]), 0x45);
}

TEST(Math, BinomialKnownValues) {
  EXPECT_EQ(util::binomial(0, 0), 1u);
  EXPECT_EQ(util::binomial(6, 3), 20u);
  EXPECT_EQ(util::binomial(12, 6), 924u);
  EXPECT_EQ(util::binomial(11, 5), 462u);
  EXPECT_EQ(util::binomial(5, 9), 0u);
  EXPECT_EQ(util::binomial(52, 5), 2598960u);
}

TEST(Math, BinomialPascalIdentity) {
  for (std::uint64_t n = 1; n < 30; ++n)
    for (std::uint64_t k = 1; k <= n; ++k)
      EXPECT_EQ(util::binomial(n, k),
                util::binomial(n - 1, k - 1) + util::binomial(n - 1, k));
}

}  // namespace
}  // namespace cksum
