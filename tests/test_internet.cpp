// Internet (ones-complement) checksum: RFC 1071 behaviour, algebraic
// properties, and the combination rules the splice simulator relies on.
#include <gtest/gtest.h>

#include "checksum/internet.hpp"
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

TEST(OnesAdd, BasicIdentities) {
  EXPECT_EQ(ones_add(0, 0), 0);
  EXPECT_EQ(ones_add(0x1234, 0), 0x1234);
  EXPECT_EQ(ones_add(0xffff, 0x0001), 0x0001);  // end-around carry
  EXPECT_EQ(ones_add(0xffff, 0xffff), 0xffff);
  EXPECT_EQ(ones_add(0x8000, 0x8000), 0x0001);
}

TEST(OnesAdd, CommutativeAssociativeExhaustiveSample) {
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.below(65536));
    const auto b = static_cast<std::uint16_t>(rng.below(65536));
    const auto c = static_cast<std::uint16_t>(rng.below(65536));
    EXPECT_EQ(ones_add(a, b), ones_add(b, a));
    EXPECT_EQ(ones_add(ones_add(a, b), c), ones_add(a, ones_add(b, c)));
  }
}

TEST(OnesAdd, IsAdditionMod65535) {
  util::Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.below(65536));
    const auto b = static_cast<std::uint16_t>(rng.below(65536));
    const std::uint32_t mod = (static_cast<std::uint32_t>(a % 65535u) +
                               (b % 65535u)) % 65535u;
    EXPECT_EQ(ones_add(a, b) % 65535u, mod) << a << " " << b;
  }
}

TEST(OnesNeg, AdditiveInverse) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.below(65536));
    // a + ~a = 0xFFFF, the ones-complement zero.
    EXPECT_EQ(ones_add(a, ones_neg(a)), 0xffff);
  }
}

TEST(OnesCanonical, TwoZeros) {
  EXPECT_EQ(ones_canonical(0x0000), 0x0000);
  EXPECT_EQ(ones_canonical(0xffff), 0x0000);
  EXPECT_EQ(ones_canonical(0x1234), 0x1234);
}

TEST(InternetSum, EmptyIsZero) {
  EXPECT_EQ(internet_sum(ByteView{}), 0);
}

TEST(InternetSum, Rfc1071WorkedExample) {
  // RFC 1071 section 3 example: bytes 00 01 f2 03 f4 f5 f6 f7.
  const Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // 0001 + f203 + f4f5 + f6f7 = 2DDF0 -> DDF0 + 2 = DDF2.
  EXPECT_EQ(internet_sum(ByteView(data)), 0xddf2);
  EXPECT_EQ(internet_checksum(ByteView(data)), static_cast<std::uint16_t>(~0xddf2));
}

TEST(InternetSum, OddTrailingBytePaddedHigh) {
  const Bytes data = {0xab};
  EXPECT_EQ(internet_sum(ByteView(data)), 0xab00);
}

TEST(InternetSum, ByteOrderIndependenceOfVerification) {
  // RFC 1071: the sum is the same whether computed on big- or little-
  // endian machines modulo a byte swap; we only verify our canonical
  // big-endian form against a hand-rolled reference.
  const Bytes data = {0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(internet_sum(ByteView(data)), ones_add(0x1234, 0x5678));
}

TEST(InternetSum, AllZeroDataSumsToZero) {
  const Bytes data(100, 0x00);
  EXPECT_EQ(internet_sum(ByteView(data)), 0x0000);
}

TEST(InternetSum, AllOnesDataSumsToNegZero) {
  const Bytes data(96, 0xff);
  EXPECT_EQ(internet_sum(ByteView(data)), 0xffff);
}

TEST(InternetSum, ZeroWordInsertionInvariance) {
  // Appending zero bytes never changes the sum (zero is the additive
  // identity) — the property §6.1 of the paper discusses.
  const Bytes data = random_bytes(7, 64);
  Bytes padded = data;
  padded.insert(padded.end(), 32, 0x00);
  EXPECT_EQ(internet_sum(ByteView(data)), internet_sum(ByteView(padded)));
}

TEST(InternetSum, OrderInvariance) {
  // The major structural weakness: sums are invariant under 16-bit
  // word reordering.
  Bytes a = {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
  Bytes b = {0x9a, 0xbc, 0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(internet_sum(ByteView(a)), internet_sum(ByteView(b)));
}

class InternetSumSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InternetSumSplit, IncrementalMatchesOneShotAtEverySplit) {
  const Bytes data = random_bytes(42, 129);
  const std::size_t split = GetParam();
  ASSERT_LE(split, data.size());
  InternetSum s;
  s.update(ByteView(data).first(split));
  s.update(ByteView(data).subspan(split));
  EXPECT_EQ(s.fold(), internet_sum(ByteView(data))) << "split=" << split;
}

INSTANTIATE_TEST_SUITE_P(AllSplits, InternetSumSplit,
                         ::testing::Range<std::size_t>(0, 130));

class InternetCombine : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InternetCombine, BlockCombineWithParityRule) {
  const Bytes data = random_bytes(99, 201);
  const std::size_t split = GetParam();
  const auto a = internet_sum(ByteView(data).first(split));
  const auto b = internet_sum(ByteView(data).subspan(split));
  EXPECT_EQ(internet_combine(a, b, split % 2 == 1),
            internet_sum(ByteView(data)))
      << "split=" << split;
}

INSTANTIATE_TEST_SUITE_P(AllSplits, InternetCombine,
                         ::testing::Range<std::size_t>(0, 202));

TEST(InternetSum, UpdateSumTracksParityAcrossManyBlocks) {
  const Bytes data = random_bytes(5, 313);
  util::Rng rng(6);
  InternetSum s;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t len =
        std::min<std::size_t>(data.size() - off, rng.below(17) + 1);
    const ByteView block = ByteView(data).subspan(off, len);
    s.update_sum(internet_sum(block), len % 2 == 1);
    off += len;
  }
  EXPECT_EQ(s.fold(), internet_sum(ByteView(data)));
}

TEST(InternetSum, Rfc1141IncrementalWordUpdate) {
  Bytes data = random_bytes(11, 64);
  const std::uint16_t old_sum = internet_sum(ByteView(data));
  const std::size_t at = 10;  // even offset
  const std::uint16_t old_word = util::load_be16(data.data() + at);
  const std::uint16_t new_word = 0xbeef;
  util::store_be16(data.data() + at, new_word);
  const std::uint16_t expect = internet_sum(ByteView(data));
  EXPECT_EQ(ones_canonical(internet_update_word(old_sum, old_word, new_word)),
            ones_canonical(expect));
}


TEST(InternetSum, Rfc1624CornerCase) {
  // RFC 1624's motivating bug: updating a checksum incrementally must
  // not confuse the two zero representations. Build a message whose
  // checksum FIELD is 0xFFFF, update one word, and confirm the
  // incremental update stays congruent with a full recompute.
  Bytes data(64, 0);
  data[0] = 0x12;  // content sum 0x1200 -> checksum field would be 0xEDFF
  std::uint16_t sum = internet_sum(ByteView(data));
  // Drive the sum to 0x0000-class by appending its complement.
  util::store_be16(&data[62], ones_neg(sum));
  sum = internet_sum(ByteView(data));
  EXPECT_EQ(ones_canonical(sum), 0);  // the tricky congruence class

  // Replace word at offset 10 and compare incremental vs recompute
  // across many replacement values, including 0x0000 and 0xFFFF.
  for (const std::uint16_t nw : {0x0000, 0xFFFF, 0x0001, 0xEDCB, 0x8000}) {
    Bytes changed = data;
    const std::uint16_t ow = util::load_be16(changed.data() + 10);
    util::store_be16(changed.data() + 10, nw);
    const std::uint16_t incremental =
        internet_update_word(sum, ow, static_cast<std::uint16_t>(nw));
    const std::uint16_t full = internet_sum(ByteView(changed));
    EXPECT_EQ(ones_canonical(incremental), ones_canonical(full))
        << "new word " << nw;
  }
}

TEST(InternetSum, SwapRuleMatchesOddOffsetPlacement) {
  // A block placed at an odd offset contributes its byte-swapped sum.
  const Bytes block = random_bytes(13, 40);
  Bytes shifted;
  shifted.push_back(0x00);
  shifted.insert(shifted.end(), block.begin(), block.end());
  shifted.push_back(0x00);
  EXPECT_EQ(internet_sum(ByteView(shifted)),
            ones_swap(internet_sum(ByteView(block))));
}


TEST(InternetSum, OddTailAtEveryAlignmentPhase) {
  // Odd-length pieces starting at every byte offset: the trailing byte
  // is always padded on the right regardless of source alignment, and
  // the result matches a per-definition ones_add chain. This is the
  // exact behaviour the SWAR kernel's head/tail composition must
  // reproduce (see test_kernels.cpp for the differential check).
  const Bytes data = random_bytes(17, 64);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; off + len <= data.size(); ++len) {
      const ByteView piece = ByteView(data).subspan(off, len);
      std::uint16_t want = 0;
      for (std::size_t i = 0; i < len; i += 2) {
        const std::uint16_t word = static_cast<std::uint16_t>(
            (piece[i] << 8) | (i + 1 < len ? piece[i + 1] : 0));
        want = ones_add(want, word);
      }
      EXPECT_EQ(internet_sum(piece), want) << "off=" << off << " len=" << len;
    }
  }
}

TEST(InternetSum, OddOffsetOddLengthBlockChain) {
  // Blocks of odd length flip the accumulation parity: each following
  // block contributes byte-swapped. Compose blocks of every small odd
  // and even length and check against the one-shot sum.
  const Bytes data = random_bytes(23, 97);
  for (const std::size_t first : {1u, 3u, 5u, 48u}) {
    std::uint16_t sum = internet_sum(ByteView(data).first(first));
    bool odd = first % 2 == 1;
    std::size_t off = first;
    std::size_t next_len = 1;
    while (off < data.size()) {
      const std::size_t len = std::min(data.size() - off, next_len);
      sum = internet_combine(sum, internet_sum(ByteView(data).subspan(off, len)),
                             odd);
      odd ^= (len % 2 == 1);
      off += len;
      next_len = next_len % 7 + 1;  // cycle through lengths 1..7
    }
    EXPECT_EQ(sum, internet_sum(ByteView(data))) << "first=" << first;
  }
}

// The wide-word sum (8 bytes per 64-bit add) is the swar kernel; the
// scalar kernel's one-word-per-add loop is its reference.
std::uint16_t internet_sum_swar(ByteView data) {
  return kern::find_kernel("swar")->internet_sum(data);
}

std::uint16_t internet_sum_scalar(ByteView data) {
  return kern::scalar_kernel().internet_sum(data);
}

class InternetWide : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InternetWide, MatchesScalarAtEveryLength) {
  const std::size_t len = GetParam();
  const Bytes data = random_bytes(len * 31 + 5, len);
  EXPECT_EQ(internet_sum_swar(ByteView(data)),
            internet_sum_scalar(ByteView(data)))
      << "len=" << len;
}

INSTANTIATE_TEST_SUITE_P(Lengths, InternetWide,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 47, 48,
                                           296, 1500, 65536, 65543));

TEST(InternetWide, EdgePatternsMatchScalar) {
  for (const std::uint8_t fill : {0x00, 0xff, 0x80, 0x01}) {
    for (const std::size_t len : {8u, 24u, 296u}) {
      const Bytes data(len, fill);
      EXPECT_EQ(internet_sum_swar(ByteView(data)),
                internet_sum_scalar(ByteView(data)))
          << "fill=" << int(fill) << " len=" << len;
    }
  }
  // The class-zero representative: nonzero content summing to 0xFFFF.
  Bytes wrap = {0xff, 0xfe, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(internet_sum(ByteView(wrap)), 0xffff);
  EXPECT_EQ(internet_sum_swar(ByteView(wrap)), 0xffff);
}

TEST(InternetSum, LargeBufferNoOverflow) {
  const Bytes data(1 << 20, 0xff);
  EXPECT_EQ(internet_sum(ByteView(data)), 0xffff);
}

}  // namespace
}  // namespace cksum::alg
