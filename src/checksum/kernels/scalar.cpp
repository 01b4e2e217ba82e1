// The scalar reference tier: one word or byte per step, modular
// reduction applied immediately. These are the formulations whose
// correctness is obvious from the RFC / paper definitions; every other
// kernel is differentially tested against them.
#include "checksum/kernels/impl.hpp"

#include "checksum/adler32.hpp"
#include "checksum/internet.hpp"

namespace cksum::alg::kern::impl {

std::uint16_t scalar_internet_sum(util::ByteView data) noexcept {
  // One end-around-carry add per big-endian word. Chained ones_add
  // yields the same representative as a deferred 64-bit fold: both are
  // 0 only when every summed byte is zero, 0xFFFF for any other sum
  // congruent to zero mod 65535, so all tiers agree bitwise.
  std::uint16_t sum = 0;
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    sum = ones_add(sum,
                   static_cast<std::uint16_t>((data[i] << 8) | data[i + 1]));
  if (i < n)
    sum = ones_add(sum, static_cast<std::uint16_t>(data[i] << 8));
  return sum;
}

FletcherPair scalar_fletcher(util::ByteView data, FletcherMod mod) noexcept {
  const std::uint32_t m = modulus(mod);
  std::uint32_t a = 0, b = 0;
  for (std::uint8_t byte : data) {
    a = (a + byte) % m;
    b = (b + a) % m;
  }
  return {a, b};
}

Fletcher32Pair scalar_fletcher32(util::ByteView data) noexcept {
  constexpr std::uint32_t m = 65535;
  std::uint32_t a = 0, b = 0;
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint32_t word =
        i + 1 < data.size()
            ? static_cast<std::uint32_t>((data[i] << 8) | data[i + 1])
            : static_cast<std::uint32_t>(data[i] << 8);
    a = (a + word) % m;
    b = (b + a) % m;
    i += 2;
  }
  return {a, b};
}

std::uint32_t scalar_adler32(std::uint32_t adler,
                             util::ByteView data) noexcept {
  std::uint32_t a = adler & 0xffffu;
  std::uint32_t b = (adler >> 16) & 0xffffu;
  for (std::uint8_t byte : data) {
    a = (a + byte) % kAdlerMod;
    b = (b + a) % kAdlerMod;
  }
  return (b << 16) | a;
}

std::uint32_t scalar_crc32(std::uint32_t crc, util::ByteView data) noexcept {
  // Byte-at-a-time walk over the one CRC-32 byte table, GenericCrc's
  // (slice table t[0]). A table walk, not a bitwise loop, so the
  // slicing tier's speedup over this tier measures slicing alone.
  const auto& table = crc32_slice_tables().t[0];
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

KoopmanDualPair scalar_koopman_dual(util::ByteView data) noexcept {
  return koopman_dual_naive(data);
}

std::uint64_t scalar_koopman_single(util::ByteView data) noexcept {
  return koopman_single_naive(data);
}

}  // namespace cksum::alg::kern::impl
