// §2's performance claim: "measurements have typically shown the TCP
// checksum to be two to four times faster [than Fletcher]", with CRC
// slower still. google-benchmark over the kernel registry: one
// BM_Kernel_<alg>_<kernel> row per algorithm and formulation tier (the
// deferred-reduction point of Nakassis is fletcher255 scalar against
// slicing), plus the splice simulator's two hot operations.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "checksum/checksum.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/pdu_model.hpp"
#include "core/splice_sim.hpp"
#include "util/rng.hpp"

namespace {

using cksum::util::ByteView;
using cksum::util::Bytes;

Bytes make_buffer(std::size_t n) {
  Bytes b(n);
  cksum::util::Rng rng(0xbeef);
  rng.fill(b);
  return b;
}

const Bytes& buffer() {
  static const Bytes b = make_buffer(64 * 1024);
  return b;
}

void BM_Crc32CellCombine(benchmark::State& state) {
  // The splice simulator's hot operation: fold a per-cell CRC into a
  // running splice CRC.
  const cksum::alg::CrcCombiner comb(48);
  std::uint32_t a = 0x12345678, b = 0x9abcdef0;
  for (auto _ : state) {
    a = comb.combine(a, b);
    benchmark::DoNotOptimize(a);
  }
}

void BM_SpliceEvaluatePair(benchmark::State& state) {
  // The simulator's unit of work: all 923 splices of one adjacent
  // full-size packet pair, classified via per-cell partial sums.
  cksum::net::FlowConfig flow;
  cksum::util::Bytes file(512);
  cksum::util::Rng rng(0x51);
  rng.fill(file);
  const auto pkts =
      cksum::core::packetize_file(flow, cksum::util::ByteView(file));
  cksum::core::SpliceStats stats;
  for (auto _ : state) {
    cksum::core::evaluate_pair(flow.packet, pkts[0], pkts[1], stats);
    benchmark::DoNotOptimize(stats.total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          923);  // splices per pair
}

// Per-kernel throughput rows (BM_Kernel_<alg>_<kernel>) over the
// registry in src/checksum/kernels/. Registered at runtime so the row
// set tracks the registry; bench_distill.py folds the 64 KiB rows into
// the trajectory's kernel_throughput family.
template <typename Fn>
void register_kernel_bench(const cksum::alg::kern::Kernel& k,
                           const char* alg, Fn fn) {
  const std::string name =
      std::string("BM_Kernel_") + alg + "_" + std::string(k.name);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [fn](benchmark::State& state) {
        const ByteView data(buffer().data(),
                            static_cast<std::size_t>(state.range(0)));
        for (auto _ : state) benchmark::DoNotOptimize(fn(data));
        state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                                state.range(0));
      })
      ->Arg(296)
      ->Arg(65536);
}

void register_kernel_benchmarks() {
  for (const cksum::alg::kern::Kernel& k : cksum::alg::kern::kernels()) {
    if (!cksum::alg::kern::kernel_available(k)) {
      // An unavailable kernel answers through its safe fallback, so a
      // row would time the wrong code. Skip loudly: bench_distill.py
      // treats the missing row as skip-with-notice, not failure.
      const char* why = cksum::alg::kern::kernel_unavailable_reason(k);
      std::fprintf(stderr,
                   "bench_speed: skipping BM_Kernel_*_%s (unavailable: %s)\n",
                   std::string(k.name).c_str(), why != nullptr ? why : "?");
      continue;
    }
    register_kernel_bench(k, "internet",
                          [&k](ByteView d) { return k.internet_sum(d); });
    register_kernel_bench(k, "fletcher255", [&k](ByteView d) {
      return k.fletcher(d, cksum::alg::FletcherMod::kOnes255);
    });
    register_kernel_bench(k, "fletcher256", [&k](ByteView d) {
      return k.fletcher(d, cksum::alg::FletcherMod::kTwos256);
    });
    register_kernel_bench(k, "fletcher32",
                          [&k](ByteView d) { return k.fletcher32(d); });
    register_kernel_bench(k, "adler32",
                          [&k](ByteView d) { return k.adler32(1, d); });
    register_kernel_bench(k, "crc32",
                          [&k](ByteView d) { return k.crc32(0, d); });
    register_kernel_bench(k, "koopmandual",
                          [&k](ByteView d) { return k.koopman_dual(d); });
    register_kernel_bench(k, "koopmansingle",
                          [&k](ByteView d) { return k.koopman_single(d); });
  }
}

}  // namespace

BENCHMARK(BM_Crc32CellCombine);
BENCHMARK(BM_SpliceEvaluatePair);

// Custom main: the per-kernel rows are registered against the runtime
// registry before the statically-declared benchmarks run.
int main(int argc, char** argv) {
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
