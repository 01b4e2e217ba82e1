// Block-storage integrity subsystem (docs/STORAGE.md): commit-record
// layout, the faulty block device's determinism discipline, the
// frontier's thread-count invariance, the byte-level oracle property,
// and the relocated Fletcher-255 run pathology.
#include <gtest/gtest.h>

#include <algorithm>

#include "storage/device.hpp"
#include "storage/frontier.hpp"
#include "storage/layout.hpp"
#include "util/rng.hpp"

namespace cksum::storage {
namespace {

using util::Bytes;
using util::ByteView;

Bytes random_payload(std::uint64_t seed, std::size_t n) {
  Bytes p(n);
  util::Rng(seed).fill(p);
  return p;
}

TEST(StorageLayout, SealVerifyRoundTrip) {
  const std::size_t B = 4096;
  const Bytes payload = random_payload(11, B - kCheckFieldSize);
  const WriteContext ctx{0x1122334455667788ull, 7};
  for (const Algo a : kAllAlgos) {
    const Bytes block = seal_block(a, ctx, ByteView(payload), B);
    ASSERT_EQ(block.size(), B);
    EXPECT_TRUE(verify_block(a, ctx, ByteView(block))) << name(a);
    // The stored payload is the sealed one.
    const ByteView pl = block_payload(ByteView(block));
    EXPECT_TRUE(std::equal(pl.begin(), pl.end(), payload.begin())) << name(a);
    // Any single-bit flip, in the check field or the payload, must be
    // caught: a one-bit delta is never congruent to zero under any of
    // these moduli, and CRC-32's minimum distance covers it.
    for (const std::size_t bit : {0u, 63u, 64u, 64u + 7u, 8u * 2048u,
                                  8u * static_cast<unsigned>(B) - 1u}) {
      Bytes flipped = block;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(verify_block(a, ctx, ByteView(flipped)))
          << name(a) << " bit=" << bit;
    }
  }
}

TEST(StorageLayout, ContextIsCoveredButNotStored) {
  const std::size_t B = 2048;
  const Bytes payload = random_payload(12, B - kCheckFieldSize);
  const WriteContext ctx{42, 3};
  for (const Algo a : kAllAlgos) {
    const Bytes block = seal_block(a, ctx, ByteView(payload), B);
    EXPECT_TRUE(verify_block(a, ctx, ByteView(block))) << name(a);
    // A reader expecting a different address (misdirected write) or a
    // different generation (lost write) must reject the block even
    // though its bytes are pristine.
    EXPECT_FALSE(verify_block(a, WriteContext{43, 3}, ByteView(block)))
        << name(a);
    EXPECT_FALSE(verify_block(a, WriteContext{42, 4}, ByteView(block)))
        << name(a);
    // Runts never verify.
    EXPECT_FALSE(verify_block(a, ctx, ByteView(block).first(4))) << name(a);
  }
}

TEST(StorageDevice, SameSeedSameSchedule) {
  StoragePlan plan;
  plan.torn_rate = 0.3;
  plan.misdirect_rate = 0.2;
  plan.lost_rate = 0.1;
  plan.corrupt_rate = 0.2;
  const std::size_t B = 1024;
  BlockDevice d1(B, plan, 99);
  BlockDevice d2(B, plan, 99);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Bytes block = random_payload(1000 + i, B);
    const std::uint64_t addr = i % 16;
    const WriteEvent e1 = d1.write(addr, ByteView(block));
    const WriteEvent e2 = d2.write(addr, ByteView(block));
    EXPECT_EQ(static_cast<int>(e1.kind), static_cast<int>(e2.kind)) << i;
    EXPECT_EQ(e1.tear_sectors, e2.tear_sectors) << i;
    EXPECT_EQ(e1.victim, e2.victim) << i;
  }
  EXPECT_EQ(d1.stats(), d2.stats());
  ASSERT_EQ(d1.addresses(), d2.addresses());
  for (const std::uint64_t a : d1.addresses()) {
    const ByteView b1 = d1.read(a);
    const ByteView b2 = d2.read(a);
    ASSERT_EQ(b1.size(), b2.size());
    EXPECT_TRUE(std::equal(b1.begin(), b1.end(), b2.begin())) << a;
  }
  // Accounting: every write lands in exactly one class.
  EXPECT_EQ(d1.stats().writes, 200u);
  EXPECT_EQ(d1.stats().committed + d1.stats().total_injected(), 200u);
}

TEST(StorageDevice, FaultClassSemantics) {
  const std::size_t B = 2048;
  const Bytes old_block = random_payload(21, B);
  const Bytes new_block = random_payload(22, B);

  {  // torn: sector-aligned prefix of new over suffix of old
    StoragePlan p;
    p.torn_rate = 1.0;
    BlockDevice dev(B, p, 5);
    dev.format(0, ByteView(old_block));
    const WriteEvent ev = dev.write(0, ByteView(new_block));
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(WriteEvent::Kind::kTorn));
    ASSERT_GE(ev.tear_sectors, 1u);
    ASSERT_LT(ev.tear_sectors, B / kSectorSize);
    const ByteView got = dev.read(0);
    const std::size_t cut = ev.tear_sectors * kSectorSize;
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + cut,
                           new_block.begin()));
    EXPECT_TRUE(std::equal(got.begin() + cut, got.end(),
                           old_block.begin() + cut));
  }
  {  // misdirected: victim hit, target untouched
    StoragePlan p;
    p.misdirect_rate = 1.0;
    BlockDevice dev(B, p, 6);
    dev.format(0, ByteView(old_block));
    dev.format(1, ByteView(old_block));
    const WriteEvent ev = dev.write(0, ByteView(new_block));
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(WriteEvent::Kind::kMisdirected));
    EXPECT_EQ(ev.victim, 1u);
    const ByteView target = dev.read(0);
    const ByteView victim = dev.read(1);
    EXPECT_TRUE(std::equal(target.begin(), target.end(), old_block.begin()));
    EXPECT_TRUE(std::equal(victim.begin(), victim.end(), new_block.begin()));
  }
  {  // lost: no state change at all
    StoragePlan p;
    p.lost_rate = 1.0;
    BlockDevice dev(B, p, 7);
    dev.format(0, ByteView(old_block));
    const WriteEvent ev = dev.write(0, ByteView(new_block));
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(WriteEvent::Kind::kLost));
    const ByteView got = dev.read(0);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), old_block.begin()));
  }
  {  // corrupt: the new block landed, then a burst changed something
    StoragePlan p;
    p.corrupt_rate = 1.0;
    BlockDevice dev(B, p, 8);
    dev.format(0, ByteView(old_block));
    const WriteEvent ev = dev.write(0, ByteView(new_block));
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(WriteEvent::Kind::kCorrupted));
    const ByteView got = dev.read(0);
    EXPECT_FALSE(std::equal(got.begin(), got.end(), new_block.begin()));
    // The burst is bounded: at most burst_bits_max bit positions moved.
    std::size_t flipped = 0;
    for (std::size_t i = 0; i < B; ++i)
      flipped += static_cast<std::size_t>(
          __builtin_popcount(got[i] ^ new_block[i]));
    EXPECT_LE(flipped, p.burst_bits_max);
    EXPECT_GE(flipped, 1u);
  }
}

FrontierConfig small_config(unsigned threads) {
  FrontierConfig cfg;
  cfg.seed = 0xD15C;
  cfg.trials = {60, 12};
  cfg.pool_pairs = 44;
  cfg.threads = threads;
  return cfg;
}

TEST(StorageFrontier, BitwiseIdenticalAcrossThreadCounts) {
  const FrontierResult r1 = run_frontier(small_config(1));
  const std::string j1 = frontier_json(small_config(1), r1);
  for (const unsigned threads : {2u, 8u}) {
    const FrontierResult rn = run_frontier(small_config(threads));
    EXPECT_EQ(frontier_json(small_config(threads), rn), j1)
        << threads << " threads";
  }
  EXPECT_EQ(r1.violations, 0u);
  for (const CellResult& c : r1.cells)
    EXPECT_EQ(c.trials, c.benign + c.detected + c.undetected)
        << name(c.alg) << "/" << name(c.fault);
}

TEST(StorageFrontier, OracleProperty) {
  // Every outcome must be re-derivable from the audit's raw bytes: an
  // undetected trial has a read whose content deviates from the
  // expected sealed block yet passes verification (recomputed here
  // from scratch), a detected trial a deviating read that fails it,
  // and a benign trial no deviating read at all.
  const BlockPool pool = build_pool(4096, 77, 40);
  for (const Algo alg : {Algo::kFletcher255, Algo::kCrc32,
                         Algo::kKoopmanDual}) {
    for (const FaultClass fault : kAllFaults) {
      for (std::uint64_t t = 0; t < 50; ++t) {
        TrialAudit audit;
        const Outcome o = run_trial(pool, alg, fault, 0xABCD, 3, t, &audit);
        bool any_undetected = false, any_detected = false;
        for (const TrialAudit::Read& r : audit.reads) {
          const bool correct = r.actual == r.expected;
          const bool ok = verify_block(
              alg, WriteContext{r.address, r.generation}, ByteView(r.actual));
          EXPECT_EQ(ok, r.check_passed);
          if (correct) {
            EXPECT_TRUE(ok);  // sealed blocks always verify
          }
          if (!correct) (ok ? any_undetected : any_detected) = true;
        }
        const Outcome expect = any_undetected ? Outcome::kUndetected
                               : any_detected ? Outcome::kDetected
                                              : Outcome::kBenign;
        EXPECT_EQ(static_cast<int>(o), static_cast<int>(expect))
            << name(alg) << "/" << name(fault) << " trial " << t;
      }
    }
  }
}

TEST(StorageFrontier, TornWriteRunPathology) {
  // The paper's Fletcher-255 result relocated to commit blocks: on
  // run-heavy payloads (0x00/0xFF-dominated) a torn write swaps
  // content invisible to the mod-255 sums, while CRC-32 and the
  // prime-modulus Koopman dual sum see essentially everything.
  const BlockPool pool = build_pool(4096, 31337, 66);
  const auto run_heavy_miss = [&](Algo alg, std::uint64_t* scored_out) {
    std::uint64_t scored = 0, undetected = 0;
    for (std::uint64_t t = 0; t < 400; ++t) {
      TrialAudit audit;
      const Outcome o =
          run_trial(pool, alg, FaultClass::kTorn, 0xF00D, 1, t, &audit);
      if (!run_heavy(audit.kind) || o == Outcome::kBenign) continue;
      ++scored;
      undetected += o == Outcome::kUndetected;
    }
    if (scored_out != nullptr) *scored_out = scored;
    return scored == 0 ? 0.0
                       : static_cast<double>(undetected) /
                             static_cast<double>(scored);
  };
  std::uint64_t f255_scored = 0;
  const double f255 = run_heavy_miss(Algo::kFletcher255, &f255_scored);
  ASSERT_GE(f255_scored, 30u);  // the slice must actually be populated
  EXPECT_GT(f255, 0.15);
  EXPECT_EQ(run_heavy_miss(Algo::kCrc32, nullptr), 0.0);
  EXPECT_EQ(run_heavy_miss(Algo::kKoopmanDual, nullptr), 0.0);
}

TEST(StorageFrontier, LostAndMisdirectedAlwaysDetected) {
  // The context coverage argument: a lost write leaves the old
  // generation, a misdirected write a wrong-address block — both shift
  // the covered-but-not-stored context, which no algorithm in the
  // matrix aliases over a 1-bit generation delta or an address swap.
  const BlockPool pool = build_pool(4096, 900, 40);
  for (const Algo alg : kAllAlgos) {
    for (const FaultClass fault :
         {FaultClass::kLost, FaultClass::kMisdirected}) {
      for (std::uint64_t t = 0; t < 60; ++t) {
        const Outcome o = run_trial(pool, alg, fault, 0xBEEF, 9, t, nullptr);
        EXPECT_NE(static_cast<int>(o), static_cast<int>(Outcome::kUndetected))
            << name(alg) << "/" << name(fault) << " trial " << t;
      }
    }
  }
}

}  // namespace
}  // namespace cksum::storage
