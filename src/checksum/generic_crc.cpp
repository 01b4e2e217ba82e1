#include "checksum/generic_crc.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace cksum::alg {

GenericCrc::GenericCrc(int width, std::uint32_t poly_normal)
    : width_(width),
      poly_(reflect_bits(poly_normal, std::min(std::max(width, 1), 32))),
      // Clamp before shifting: member initialisers run before the
      // range check below can throw, and 1u << 33 is undefined.
      mask_(width >= 32 ? 0xFFFFFFFFu
                        : width >= 1 ? ((1u << width) - 1u) : 0u) {
  if (width < 1 || width > 32)
    throw std::invalid_argument("GenericCrc: width must be in [1,32]");
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n & mask_;
    // For widths < 8 the byte still shifts through 8 bit steps; the
    // register simply holds fewer bits. Feeding input bits into the
    // low end (reflected form) makes this uniform across widths.
    std::uint32_t in = n;
    c = 0;
    for (int k = 0; k < 8; ++k) {
      const std::uint32_t bit = (c ^ in) & 1u;
      c >>= 1;
      in >>= 1;
      if (bit) c ^= poly_;
    }
    table_[n] = c & mask_;
  }
}

std::uint32_t GenericCrc::update(std::uint32_t crc,
                                 util::ByteView data) const noexcept {
  std::uint32_t c = (crc ^ mask_) & mask_;
  if (width_ >= 8) {
    for (std::uint8_t byte : data)
      c = table_[(c ^ byte) & 0xffu] ^ (c >> 8);
  } else {
    // Narrow registers: the table already folds a whole input byte.
    for (std::uint8_t byte : data) c = table_[(c ^ byte) & 0xffu];
  }
  return (c ^ mask_) & mask_;
}

std::uint32_t GenericCrc::update_bitwise(std::uint32_t crc,
                                         util::ByteView data) const noexcept {
  std::uint32_t c = (crc ^ mask_) & mask_;
  for (std::uint8_t byte : data) {
    std::uint32_t in = byte;
    for (int k = 0; k < 8; ++k) {
      const std::uint32_t bit = (c ^ in) & 1u;
      c >>= 1;
      in >>= 1;
      if (bit) c ^= poly_;
    }
  }
  return (c ^ mask_) & mask_;
}

std::vector<std::uint32_t> GenericCrc::zeros_rows(std::size_t len) const noexcept {
  const std::size_t w = static_cast<std::size_t>(width_);
  auto times = [w](const std::vector<std::uint32_t>& m, std::uint32_t vec) {
    std::uint32_t out = 0;
    for (std::size_t i = 0; i < w && vec != 0; ++i, vec >>= 1)
      if (vec & 1u) out ^= m[i];
    return out;
  };
  auto square = [&](const std::vector<std::uint32_t>& m) {
    std::vector<std::uint32_t> out(w);
    for (std::size_t i = 0; i < w; ++i) out[i] = times(m, m[i]);
    return out;
  };

  // One-zero-bit operator.
  std::vector<std::uint32_t> bit(w);
  bit[0] = poly_;
  for (std::size_t i = 1; i < w; ++i) bit[i] = 1u << (i - 1);
  // -> one zero byte.
  std::vector<std::uint32_t> power = square(square(square(bit)));

  // Identity.
  std::vector<std::uint32_t> result(w);
  for (std::size_t i = 0; i < w; ++i) result[i] = 1u << i;

  while (len != 0) {
    if (len & 1u) {
      std::vector<std::uint32_t> next(w);
      for (std::size_t i = 0; i < w; ++i) next[i] = times(power, result[i]);
      result = next;
    }
    len >>= 1;
    if (len != 0) power = square(power);
  }
  return result;
}

std::uint32_t GenericCrc::combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                  std::size_t len_b) const noexcept {
  const auto rows = zeros_rows(len_b);
  std::uint32_t out = 0;
  std::uint32_t vec = crc_a;
  for (std::size_t i = 0; i < rows.size() && vec != 0; ++i, vec >>= 1)
    if (vec & 1u) out ^= rows[i];
  return (out ^ crc_b) & mask_;
}

double GenericCrc::value_space() const noexcept {
  return static_cast<double>(1ull << width_);
}

std::uint32_t standard_poly(int width) {
  switch (width) {
    case 3: return 0x3;          // CRC-3/GSM
    case 4: return 0x3;          // CRC-4/ITU
    case 5: return 0x15;         // CRC-5/USB
    case 6: return 0x27;         // CRC-6/CDMA2000-A
    case 7: return 0x09;         // CRC-7/MMC
    case 8: return 0x07;         // CRC-8/ATM HEC polynomial
    case 9: return 0x119;        // Koopman
    case 10: return 0x233;       // CRC-10/ATM OAM
    case 11: return 0x385;       // CRC-11/FlexRay
    case 12: return 0x80F;       // CRC-12/DECT
    case 13: return 0x1CF5;      // CRC-13/BBC
    case 14: return 0x0805;      // CRC-14/DARC
    case 15: return 0x4599;      // CRC-15/CAN
    case 16: return 0x1021;      // CRC-16/CCITT
    case 17: return 0x1685B;     // CRC-17/CAN-FD
    case 18: return 0x23979;     // Koopman-style
    case 19: return 0x6FB57;     // Koopman-style
    case 20: return 0xB5827;     // Koopman-style
    case 21: return 0x102899;    // CRC-21/CAN-FD
    case 22: return 0x308FD3;    // Koopman-style
    case 23: return 0x540DF0;    // Koopman-style
    case 24: return 0x864CFB;    // CRC-24/OpenPGP
    case 25: return 0x101690C;   // Koopman-style
    case 26: return 0x2030B9C7;  // Koopman-style
    case 28: return 0x8F90E3;    // Koopman-style (28-bit)
    case 30: return 0x2030B9C7;  // CRC-30/CDMA
    case 32: return 0x04C11DB7;  // CRC-32/IEEE, AAL5
    default:
      // Fall back to x^w + x + 1 style polynomial; adequate for the
      // miss-rate sweep, which only needs "a reasonable CRC" per width.
      return 0x3;
  }
}

}  // namespace cksum::alg
