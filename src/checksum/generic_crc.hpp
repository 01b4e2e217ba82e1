// Parameterisable CRC engine, widths 1..32.
//
// The paper's headline quantitative claim is that "the 16-bit TCP
// checksum performed about as well as a 10-bit CRC" on real data. To
// reproduce that we need CRCs of arbitrary width to race against the
// Internet checksum; this engine supports any width up to 32 with any
// generator polynomial, using the reflected (LSB-first) formulation
// with init = xorout = all-ones (the CRC-32 conventions generalised).
//
// Like crc32, the engine is linear over GF(2) after conditioning is
// cancelled, so finalised values combine with the same
// zeros-operator ^ algebra; `zeros_operator`/`combine` expose that.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace cksum::alg {

/// Reverse the low `width` bits of `v`.
constexpr std::uint32_t reflect_bits(std::uint32_t v, int width) noexcept {
  std::uint32_t out = 0;
  for (int i = 0; i < width; ++i) {
    out = (out << 1) | (v & 1u);
    v >>= 1;
  }
  return out;
}

class GenericCrc {
 public:
  /// `poly_normal` is the generator polynomial in the usual MSB-first
  /// notation (e.g. 0x04C11DB7 for CRC-32, 0x233 for CRC-10).
  GenericCrc(int width, std::uint32_t poly_normal);

  int width() const noexcept { return width_; }
  std::uint32_t mask() const noexcept { return mask_; }
  std::uint32_t poly_reflected() const noexcept { return poly_; }

  /// Finalised CRC of a buffer.
  std::uint32_t compute(util::ByteView data) const noexcept {
    return update(0, data);
  }

  /// Streaming continuation over finalised values (zlib semantics:
  /// pass the previous finalised CRC, or 0 to start).
  std::uint32_t update(std::uint32_t crc, util::ByteView data) const noexcept;

  /// Bitwise reference (for tests).
  std::uint32_t update_bitwise(std::uint32_t crc,
                               util::ByteView data) const noexcept;

  /// crc(A ++ B) from finalised crc(A), crc(B), |B|.
  std::uint32_t combine(std::uint32_t crc_a, std::uint32_t crc_b,
                        std::size_t len_b) const noexcept;

  /// The operator advancing the register through `len` zero bytes, as
  /// `width()` rows (row i = image of register bit i). CrcCombiner
  /// flattens it into nibble tables for hot fixed-length loops.
  std::vector<std::uint32_t> zeros_rows(std::size_t len) const noexcept;

  /// Number of distinct CRC values (2^width) as a double, for
  /// expected-miss-rate computations.
  double value_space() const noexcept;

  /// The byte-at-a-time lookup table (reflected form). Exposed so the
  /// kernel registry's CRC-32 tables (the scalar byte walk and
  /// slice-by-8) derive from this engine instead of duplicating it.
  const std::array<std::uint32_t, 256>& byte_table() const noexcept {
    return table_;
  }

 private:
  int width_;
  std::uint32_t poly_;  // reflected form
  std::uint32_t mask_;
  std::array<std::uint32_t, 256> table_{};
};

/// A small catalogue of standard generator polynomials by width, used
/// by the CRC-width ablation bench. Widths without a well-known
/// standard polynomial use entries from Koopman's tables.
std::uint32_t standard_poly(int width);

}  // namespace cksum::alg
