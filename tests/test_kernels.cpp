// Kernel-conformance harness: every registered checksum kernel must be
// bitwise identical to the scalar reference on every input.
//
// Three sweeps, all deterministic (seeds in kernel_testgen.hpp):
//   * exhaustive small lengths 0..256, random and adversarial bytes;
//   * randomized large buffers (up to 64 KiB; 1 MiB in long mode) at
//     all 8 alignment phases of the same underlying data;
//   * every incremental resume split and every combine split of one
//     message, per algorithm.
// Set CKSUM_KERNEL_LONG=1 for the widened soak sweep.
//
// The registry itself is also pinned down: name lookup, "best"
// resolution, the CKSUM_KERNEL environment override (so a CI matrix
// typo fails the suite instead of silently testing the default
// kernel), and the per-kernel dispatch counters.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdlib>
#include <string>

#include "checksum/adler32.hpp"
#include "checksum/crc32.hpp"
#include "checksum/fletcher.hpp"
#include "checksum/fletcher32.hpp"
#include "checksum/internet.hpp"
#include "checksum/kernels/kernel.hpp"
#include "checksum/koopman.hpp"
#include "kernel_testgen.hpp"
#include "obs/registry.hpp"

namespace cksum::alg::kern {
namespace {

using util::Bytes;
using util::ByteView;

/// Compare one kernel against the scalar reference on one buffer, all
/// seven algorithms. The streaming entry points are started from their
/// conventional initial values (0 for CRC-32, 1 for Adler-32) and, to
/// cover resumed calls, from a nonzero prior state.
void expect_matches_scalar(const Kernel& k, ByteView data,
                           const std::string& context) {
  const Kernel& ref = scalar_kernel();
  EXPECT_EQ(k.internet_sum(data), ref.internet_sum(data)) << context;
  EXPECT_EQ(k.koopman_dual(data), ref.koopman_dual(data)) << context;
  EXPECT_EQ(k.koopman_single(data), ref.koopman_single(data)) << context;
  EXPECT_EQ(k.fletcher(data, FletcherMod::kOnes255),
            ref.fletcher(data, FletcherMod::kOnes255))
      << context;
  EXPECT_EQ(k.fletcher(data, FletcherMod::kTwos256),
            ref.fletcher(data, FletcherMod::kTwos256))
      << context;
  EXPECT_EQ(k.fletcher32(data), ref.fletcher32(data)) << context;
  EXPECT_EQ(k.adler32(1u, data), ref.adler32(1u, data)) << context;
  EXPECT_EQ(k.crc32(0u, data), ref.crc32(0u, data)) << context;
  // Resumed from a prior state: continuation must agree too.
  EXPECT_EQ(k.adler32(0x00070003u, data), ref.adler32(0x00070003u, data))
      << context;
  EXPECT_EQ(k.crc32(0xDEADBEEFu, data), ref.crc32(0xDEADBEEFu, data))
      << context;
}

class PerKernel : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    // Unavailable kernels degrade to a safe fallback when called, so
    // the sweep would pass while silently testing the fallback path —
    // skip loudly instead so the report shows what was actually
    // covered on this machine.
    const Kernel& k = kernel();
    if (!kernel_available(k)) {
      const char* why = kernel_unavailable_reason(k);
      GTEST_SKIP() << k.name
                   << " unavailable here: " << (why != nullptr ? why : "?");
    }
  }
  const Kernel& kernel() const { return kernels()[GetParam()]; }
  std::string kernel_name() const { return std::string(kernel().name); }
};

std::string kernel_param_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  return std::string(kernels()[info.param].name);
}

TEST_P(PerKernel, ExhaustiveSmallLengths) {
  for (std::size_t len = 0; len <= 256; ++len) {
    const Bytes data =
        testgen::random_bytes(testgen::kConformanceSeed + len, len);
    expect_matches_scalar(kernel(), ByteView(data),
                          kernel_name() + " len=" + std::to_string(len));
  }
}

TEST_P(PerKernel, EdgePatterns) {
  for (const std::size_t len : {1u, 8u, 48u, 255u, 256u, 510u, 4096u}) {
    for (const Bytes& data : testgen::edge_patterns(len)) {
      expect_matches_scalar(
          kernel(), ByteView(data),
          kernel_name() + " pattern len=" + std::to_string(len) +
              " first=" + std::to_string(data.empty() ? 0 : data[0]));
    }
  }
}

TEST_P(PerKernel, LargeBuffersAtAllAlignments) {
  const std::size_t cap = testgen::long_mode() ? (1u << 20) : (1u << 16);
  const testgen::AlignedPool pool(testgen::kConformanceSeed ^ 0xA11C, cap);
  for (const std::size_t len : testgen::sweep_lengths()) {
    if (len > pool.capacity()) continue;
    for (std::size_t align = 0; align < 8; ++align) {
      const ByteView data = pool.view(align, len);
      expect_matches_scalar(kernel(), data,
                            kernel_name() + " len=" + std::to_string(len) +
                                " align=" + std::to_string(align));
    }
  }
}

TEST_P(PerKernel, EveryResumeSplit) {
  const Kernel& k = kernel();
  const Kernel& ref = scalar_kernel();
  const std::size_t n = testgen::split_message_len();
  const Bytes data = testgen::random_bytes(testgen::kConformanceSeed ^ n, n);
  const ByteView whole(data);

  const std::uint32_t crc_whole = ref.crc32(0u, whole);
  const std::uint32_t adler_whole = ref.adler32(1u, whole);
  const std::uint16_t inet_whole = ref.internet_sum(whole);

  for (std::size_t split = 0; split <= n; ++split) {
    const ByteView x = whole.first(split);
    const ByteView y = whole.subspan(split);
    EXPECT_EQ(k.crc32(k.crc32(0u, x), y), crc_whole) << "split=" << split;
    EXPECT_EQ(k.adler32(k.adler32(1u, x), y), adler_whole)
        << "split=" << split;
    // The sum algorithms have no streaming state object in the kernel
    // interface; resuming is the combine rule, checked below.
    EXPECT_EQ(internet_combine(k.internet_sum(x), k.internet_sum(y),
                               split % 2 == 1),
              inet_whole)
        << "split=" << split;
  }
}

TEST_P(PerKernel, EveryCombineSplit) {
  const Kernel& k = kernel();
  const Kernel& ref = scalar_kernel();
  const std::size_t n = testgen::split_message_len();
  const Bytes data =
      testgen::random_bytes(testgen::kConformanceSeed ^ (n + 1), n);
  const ByteView whole(data);

  const std::uint32_t crc_whole = ref.crc32(0u, whole);
  const std::uint32_t adler_whole = ref.adler32(1u, whole);
  const FletcherPair f255_whole = ref.fletcher(whole, FletcherMod::kOnes255);
  const FletcherPair f256_whole = ref.fletcher(whole, FletcherMod::kTwos256);
  const Fletcher32Pair f32_whole = ref.fletcher32(whole);
  const KoopmanDualPair kd_whole = ref.koopman_dual(whole);
  const std::uint64_t ks_whole = ref.koopman_single(whole);

  for (std::size_t split = 0; split <= n; ++split) {
    const ByteView x = whole.first(split);
    const ByteView y = whole.subspan(split);
    EXPECT_EQ(crc32_combine(k.crc32(0u, x), k.crc32(0u, y), y.size()),
              crc_whole)
        << "split=" << split;
    EXPECT_EQ(adler32_combine(k.adler32(1u, x), k.adler32(1u, y), y.size()),
              adler_whole)
        << "split=" << split;
    for (const FletcherMod mod :
         {FletcherMod::kOnes255, FletcherMod::kTwos256}) {
      EXPECT_EQ(fletcher_combine(k.fletcher(x, mod), k.fletcher(y, mod),
                                 y.size(), mod),
                mod == FletcherMod::kOnes255 ? f255_whole : f256_whole)
          << "split=" << split;
    }
    // Fletcher-32 combines in 16-bit words, so the law only applies
    // when the suffix starts on a word boundary.
    if (split % 2 == 0) {
      EXPECT_EQ(fletcher32_combine(k.fletcher32(x), k.fletcher32(y),
                                   (y.size() + 1) / 2),
                f32_whole)
          << "split=" << split;
    }
    // The Koopman sums combine in zero-padded 64-bit blocks, so the
    // law is exact only when the suffix starts on a block boundary.
    if (split % kKoopmanBlockBytes == 0) {
      EXPECT_EQ(koopman_dual_value(koopman_dual_combine(
                    k.koopman_dual(x), k.koopman_dual(y),
                    koopman_block_count(y.size()))),
                koopman_dual_value(kd_whole))
          << "split=" << split;
      EXPECT_EQ(koopman_single_combine(k.koopman_single(x),
                                       k.koopman_single(y)),
                ks_whole)
          << "split=" << split;
    }
  }
}

TEST_P(PerKernel, InternetOddOffsetsAndTails) {
  // The SWAR kernel's composition rule must reproduce the byte-swapped
  // accumulation of blocks at odd source offsets, including the 0x0000
  // vs 0xFFFF representative at every offset/length phase.
  const Kernel& k = kernel();
  const Kernel& ref = scalar_kernel();
  const Bytes data =
      testgen::random_bytes(testgen::kConformanceSeed ^ 0x0DD, 1024);
  for (std::size_t off = 0; off < 16; ++off) {
    for (const std::size_t len : {0u, 1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u,
                                  255u, 256u, 1000u}) {
      const ByteView piece = ByteView(data).subspan(off, len);
      EXPECT_EQ(k.internet_sum(piece), ref.internet_sum(piece))
          << "off=" << off << " len=" << len;
    }
  }
  // Zero-class representatives at every alignment phase: all-zero
  // bytes must fold to 0x0000, all-ones to 0xFFFF, never swapped into
  // each other by the SWAR lane repair.
  const Bytes zeros(512, 0x00);
  const Bytes ones(512, 0xff);
  for (std::size_t off = 0; off < 8; ++off) {
    for (const std::size_t len : {8u, 16u, 64u, 504u}) {
      EXPECT_EQ(k.internet_sum(ByteView(zeros).subspan(off, len)), 0x0000)
          << "off=" << off << " len=" << len;
      EXPECT_EQ(k.internet_sum(ByteView(ones).subspan(off, len)), 0xffff)
          << "off=" << off << " len=" << len;
    }
  }
}

TEST_P(PerKernel, StreamingClassesFollowSelection) {
  // The alg:: streaming classes sum each chunk through the registry.
  // With this kernel selected they must reproduce the scalar kernel's
  // one-shot at every split of one message.
  const std::string before(active_kernel().name);
  ASSERT_TRUE(select_kernel(kernel().name));
  const Kernel& ref = scalar_kernel();
  const Bytes data =
      testgen::random_bytes(testgen::kConformanceSeed ^ 129, 129);
  const ByteView whole(data);
  const std::uint16_t inet_whole = ref.internet_sum(whole);
  const KoopmanDualPair kd_whole = ref.koopman_dual(whole);
  const std::uint64_t ks_whole = ref.koopman_single(whole);

  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const ByteView x = whole.first(split);
    const ByteView y = whole.subspan(split);
    InternetSum inet;
    inet.update(x);
    inet.update(y);
    EXPECT_EQ(inet.fold(), inet_whole) << "split=" << split;
    for (const FletcherMod mod :
         {FletcherMod::kOnes255, FletcherMod::kTwos256}) {
      FletcherSum f(mod);
      f.update(x);
      f.update(y);
      EXPECT_EQ(f.pair(), ref.fletcher(whole, mod))
          << "split=" << split << " mod=" << modulus(mod);
    }
    KoopmanDualSum kd;
    kd.update(x);
    kd.update(y);
    EXPECT_EQ(kd.pair(), kd_whole) << "split=" << split;
    KoopmanSingleSum ks;
    ks.update(x);
    ks.update(y);
    EXPECT_EQ(ks.value(), ks_whole) << "split=" << split;
  }

#ifndef OBS_DISABLE
  // The bytes really ran on the selected kernel.
  register_kernel_metrics();
  const std::string bytes_metric = "kernel." + kernel_name() + ".bytes";
  const auto bytes = [&]() -> std::uint64_t {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::MetricValue* m = snap.find(bytes_metric);
    return m != nullptr ? m->value : 0;
  };
  const std::uint64_t bytes_before = bytes();
  InternetSum inet;
  inet.update(whole);
  EXPECT_EQ(bytes(), bytes_before + whole.size());
#endif

  ASSERT_TRUE(select_kernel(before));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PerKernel,
                         ::testing::Range<std::size_t>(0, kernels().size()),
                         kernel_param_name);

TEST(KernelCombineProperty, FletcherMod255EdgeCases) {
  // When |Y| is a multiple of 255 the y_len·A(X) term of the combine
  // law vanishes mod 255 — exactly the regime where a combine
  // implementation that reduced y_len incorrectly (or dropped the
  // term) would still *look* right on random splits. Pin it down for
  // every kernel, including zero-length halves on either side.
  for (const std::size_t x_len : {0u, 1u, 254u, 255u, 256u, 300u}) {
    for (const std::size_t y_len : {0u, 1u, 255u, 510u, 1020u}) {
      Bytes data = testgen::random_bytes(
          testgen::kConformanceSeed ^ (x_len * 4099 + y_len), x_len + y_len);
      const ByteView whole(data);
      const ByteView x = whole.first(x_len);
      const ByteView y = whole.subspan(x_len);
      for (const Kernel& k : kernels()) {
        for (const FletcherMod mod :
             {FletcherMod::kOnes255, FletcherMod::kTwos256}) {
          EXPECT_EQ(fletcher_combine(k.fletcher(x, mod), k.fletcher(y, mod),
                                     y_len, mod),
                    scalar_kernel().fletcher(whole, mod))
              << k.name << " |x|=" << x_len << " |y|=" << y_len << " mod "
              << modulus(mod);
        }
      }
    }
  }
}

TEST(KernelRegistry, LookupAndBestResolution) {
  ASSERT_GE(kernels().size(), 5u);
  EXPECT_NE(find_kernel("scalar"), nullptr);
  EXPECT_NE(find_kernel("slicing"), nullptr);
  EXPECT_NE(find_kernel("swar"), nullptr);
  EXPECT_NE(find_kernel("chorba"), nullptr);
  EXPECT_NE(find_kernel("clmul"), nullptr);
  EXPECT_EQ(find_kernel("no-such-kernel"), nullptr);
  EXPECT_EQ(find_kernel(""), nullptr);

  // "best" is the highest tier *available on this machine*: clmul
  // with carry-less-multiply hardware, else chorba. Unavailable
  // kernels stay listed but never win the resolution.
  const Kernel* best = find_kernel("best");
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(kernel_available(*best));
  for (const Kernel& k : kernels()) {
    if (kernel_available(k)) {
      EXPECT_LE(k.tier, best->tier) << k.name;
    }
  }
  const Kernel* clmul = find_kernel("clmul");
  EXPECT_EQ(best->name, kernel_available(*clmul) ? "clmul" : "chorba");

  // The portable tiers carry no availability probe at all, and any
  // unavailable kernel must explain itself.
  for (const char* portable : {"scalar", "slicing", "swar", "chorba"})
    EXPECT_TRUE(kernel_available(*find_kernel(portable))) << portable;
  for (const Kernel& k : kernels()) {
    if (!kernel_available(k)) {
      EXPECT_NE(kernel_unavailable_reason(k), nullptr) << k.name;
    }
  }

  EXPECT_EQ(scalar_kernel().name, "scalar");
  EXPECT_EQ(scalar_kernel().tier, 0);
  for (const Kernel& k : kernels()) {
    EXPECT_NE(k.internet_sum, nullptr);
    EXPECT_NE(k.fletcher, nullptr);
    EXPECT_NE(k.fletcher32, nullptr);
    EXPECT_NE(k.adler32, nullptr);
    EXPECT_NE(k.crc32, nullptr);
    EXPECT_NE(k.koopman_dual, nullptr);
    EXPECT_NE(k.koopman_single, nullptr);
  }
}

TEST(KernelRegistry, EnvSelectionHonored) {
  // When the CI matrix exports CKSUM_KERNEL, the active kernel must be
  // exactly that one — a typo in the matrix must fail here rather than
  // silently testing the default.
  const char* env = std::getenv(kKernelEnv);
  if (env == nullptr) {
    EXPECT_EQ(active_kernel().tier, find_kernel("best")->tier);
    return;
  }
  const Kernel* want = find_kernel(env);
  ASSERT_NE(want, nullptr) << "CKSUM_KERNEL names unknown kernel '" << env
                           << "'";
  if (!kernel_available(*want)) {
    // A CI leg exporting CKSUM_KERNEL=clmul on hardware without the
    // instructions: the lazy resolution falls back to best rather
    // than crashing or pinning an unrunnable kernel. (The clmul CI
    // leg probes first and skips, so reaching this branch there means
    // the probe and the registry disagree — worth the failure.)
    EXPECT_EQ(active_kernel().name, find_kernel("best")->name)
        << "unavailable CKSUM_KERNEL value must fall back to best";
    return;
  }
  EXPECT_EQ(active_kernel().name, want->name);
}

TEST(KernelRegistry, SelectKernelSwitchesDispatch) {
  const std::string before(active_kernel().name);
  const Bytes data = testgen::random_bytes(testgen::kConformanceSeed, 777);
  const std::uint32_t want = scalar_kernel().crc32(0u, ByteView(data));
  std::string last;
  for (const Kernel& k : kernels()) {
    if (!kernel_available(k)) {
      // Selecting an unavailable kernel must refuse and leave the
      // current selection alone.
      EXPECT_FALSE(select_kernel(k.name)) << k.name;
      continue;
    }
    ASSERT_TRUE(select_kernel(k.name));
    EXPECT_EQ(active_kernel().name, k.name);
    EXPECT_EQ(crc32(ByteView(data)), want) << k.name;
    EXPECT_EQ(internet_sum(ByteView(data)),
              scalar_kernel().internet_sum(ByteView(data)))
        << k.name;
    last = std::string(k.name);
  }
  EXPECT_FALSE(select_kernel("no-such-kernel"));
  // Refused names leave the selection unchanged (still the last
  // selectable kernel of the loop), and the original is restorable.
  EXPECT_EQ(active_kernel().name, last);
  ASSERT_TRUE(select_kernel(before));
  EXPECT_EQ(active_kernel().name, before);
}

TEST(KernelRegistry, SelectionReasonIsNonEmptyAndTracksExplicitPicks) {
  const std::string before(active_kernel().name);
  // Whatever the current source (env, default, explicit), the reason
  // must be a non-empty sentence.
  EXPECT_FALSE(kernel_selection_reason().empty());
  ASSERT_TRUE(select_kernel("scalar"));
  EXPECT_NE(kernel_selection_reason().find("explicit"), std::string::npos);
  ASSERT_TRUE(select_kernel(before));
}

TEST(ChorbaKernel, SparseMultipleDividesGenerator) {
  // Re-prove from scratch that the chorba kernel's convolution
  // polynomial M = x^274 + x^93 + x^75 + x^19 + x^11 + 1 (see
  // scripts/find_sparse_multiple.py) is a multiple of the CRC-32
  // generator G = 0x104C11DB7 over GF(2) — the entire correctness
  // argument for eliminating words with it. (That the kernel's shift
  // constants implement *this* M is what the differential sweeps
  // establish; this test pins the algebra those constants encode.)
  std::bitset<275> m;
  for (const int e : {274, 93, 75, 19, 11, 0}) m.set(e);
  std::bitset<275> g;
  for (int i = 0; i <= 32; ++i)
    if ((0x104C11DB7ull >> i) & 1) g.set(i);
  for (int d = 274; d >= 32; --d)
    if (m.test(static_cast<std::size_t>(d)))
      m ^= g << static_cast<std::size_t>(d - 32);
  EXPECT_TRUE(m.none()) << "remainder of M / G is nonzero";
}

TEST(ChorbaKernel, ConvolutionBlockBoundary) {
  // Crafted inputs spanning the convolution's structural boundaries:
  // the switch from the bitwise small path to the word convolution at
  // 64 bytes (8 words = carry window + first eliminable word), and
  // the first few advances of the five-word carry window. Random and
  // all-ones payloads at every length across the region, from both a
  // fresh and a resumed CRC state.
  const Kernel* chorba = find_kernel("chorba");
  ASSERT_NE(chorba, nullptr);
  const Kernel& ref = scalar_kernel();
  for (std::size_t len = 40; len <= 176; ++len) {
    const Bytes rnd = testgen::random_bytes(
        testgen::kConformanceSeed ^ (0xCB0 + len), len);
    const Bytes ones(len, 0xFF);
    for (const Bytes* data : {&rnd, &ones}) {
      const ByteView v(*data);
      EXPECT_EQ(chorba->crc32(0u, v), ref.crc32(0u, v)) << "len=" << len;
      EXPECT_EQ(chorba->crc32(0xDEADBEEFu, v), ref.crc32(0xDEADBEEFu, v))
          << "len=" << len;
    }
  }
  // Single-byte impulses walking across three full window advances:
  // each position exercises a distinct combination of the multiple's
  // tap shifts (including the one-bit spills w<<63 and w>>57) and the
  // carry handoff into the bitwise tail.
  for (const std::size_t len : {64u, 65u, 127u, 128u, 160u}) {
    Bytes data(len, 0x00);
    for (std::size_t pos = 0; pos < len; ++pos) {
      for (const std::uint8_t impulse : {0x01, 0x80}) {
        data[pos] = impulse;
        const ByteView v(data);
        EXPECT_EQ(chorba->crc32(0u, v), ref.crc32(0u, v))
            << "len=" << len << " pos=" << pos << " impulse=" << int(impulse);
        data[pos] = 0x00;
      }
    }
  }
}

#ifndef OBS_DISABLE
TEST(KernelRegistry, DispatchCountsIntoActiveKernelCounters) {
  register_kernel_metrics();
  const std::string name(active_kernel().name);
  const std::string calls_metric = "kernel." + name + ".calls";
  const std::string bytes_metric = "kernel." + name + ".bytes";

  const auto value = [&](const std::string& metric) -> std::uint64_t {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::MetricValue* m = snap.find(metric);
    return m != nullptr ? m->value : 0;
  };

  const std::uint64_t calls_before = value(calls_metric);
  const std::uint64_t bytes_before = value(bytes_metric);
  const Bytes data(1000, 0xAB);
  (void)crc32(ByteView(data));
  (void)internet_sum(ByteView(data));
  EXPECT_EQ(value(calls_metric), calls_before + 2);
  EXPECT_EQ(value(bytes_metric), bytes_before + 2000);

  // The TLS batching must stay exact for tiny frames too: counts
  // reach the snapshot through the registered snapshot source, not
  // per-call registry traffic.
  const Bytes tiny(3, 0x5A);
  for (int i = 0; i < 10; ++i) (void)crc32(ByteView(tiny));
  EXPECT_EQ(value(calls_metric), calls_before + 12);
  EXPECT_EQ(value(bytes_metric), bytes_before + 2030);

  // Availability gauges: 0/1 per kernel, 1 for the active one.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  for (const Kernel& k : kernels()) {
    const obs::MetricValue* m =
        snap.find("kernel." + std::string(k.name) + ".available");
    ASSERT_NE(m, nullptr) << k.name;
    EXPECT_EQ(m->gauge, kernel_available(k) ? 1 : 0) << k.name;
  }
}
#endif

}  // namespace
}  // namespace cksum::alg::kern
