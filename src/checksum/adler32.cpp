#include "checksum/adler32.hpp"

#include "checksum/kernels/kernel.hpp"

namespace cksum::alg {

std::uint32_t adler32(std::uint32_t adler, util::ByteView data) noexcept {
  return kern::adler32(adler, data);
}

std::uint32_t adler32(util::ByteView data) noexcept {
  return adler32(1u, data);
}

std::uint32_t adler32_combine(std::uint32_t adler_a, std::uint32_t adler_b,
                              std::size_t len_b) noexcept {
  // a(AB) = a(A) + a(B) - 1 ; b(AB) = b(A) + len_b*(a(A) - 1) + b(B)
  const std::uint32_t rem = static_cast<std::uint32_t>(len_b % kAdlerMod);
  std::uint32_t a1 = adler_a & 0xffffu;
  std::uint32_t b1 = (adler_a >> 16) & 0xffffu;
  std::uint32_t a2 = adler_b & 0xffffu;
  std::uint32_t b2 = (adler_b >> 16) & 0xffffu;
  std::uint32_t a = (a1 + a2 + kAdlerMod - 1) % kAdlerMod;
  std::uint32_t b = (b1 + b2 + static_cast<std::uint64_t>(rem) * (a1 + kAdlerMod - 1) +
                     kAdlerMod) %
                    kAdlerMod;
  return (b << 16) | a;
}

}  // namespace cksum::alg
