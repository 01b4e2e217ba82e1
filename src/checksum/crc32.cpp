#include "checksum/crc32.hpp"

#include <vector>

#include "checksum/generic_crc.hpp"
#include "checksum/kernels/kernel.hpp"

namespace cksum::alg {

namespace {

/// nibble[t][v] = image of the 4-bit group v at bit position 4t under
/// the zeros operator whose rows (images of each register bit) are
/// given. Rows past `nrows` act as zero.
void fill_nibbles(std::uint32_t (&nibble)[8][16], const std::uint32_t* rows,
                  std::size_t nrows) noexcept {
  for (std::size_t t = 0; t < 8; ++t) {
    for (std::uint32_t v = 0; v < 16; ++v) {
      std::uint32_t out = 0;
      for (std::size_t b = 0; b < 4; ++b)
        if ((v >> b & 1u) != 0 && 4 * t + b < nrows) out ^= rows[4 * t + b];
      nibble[t][v] = out;
    }
  }
}

}  // namespace

std::uint32_t crc32(std::uint32_t crc, util::ByteView data) noexcept {
  return kern::crc32(crc, data);
}

std::uint32_t crc32(util::ByteView data) noexcept {
  return kern::crc32(0, data);
}

Gf2Matrix Gf2Matrix::zero_byte_operator() noexcept {
  // Operator for one zero *bit*, squared three times -> one zero byte.
  Gf2Matrix bit;
  bit.rows_[0] = kCrc32Poly;
  std::uint32_t row = 1;
  for (int i = 1; i < 32; ++i) {
    bit.rows_[static_cast<std::size_t>(i)] = row;
    row <<= 1;
  }
  Gf2Matrix two = square(bit);
  Gf2Matrix four = square(two);
  return square(four);
}

Gf2Matrix Gf2Matrix::square(const Gf2Matrix& m) noexcept {
  Gf2Matrix out;
  for (std::size_t i = 0; i < 32; ++i) out.rows_[i] = m.times(m.rows_[i]);
  return out;
}

Gf2Matrix Gf2Matrix::zeros_operator(std::size_t len) noexcept {
  // Identity, then multiply in squarings of the one-zero-byte operator
  // for each set bit of len.
  Gf2Matrix result;
  for (int i = 0; i < 32; ++i) result.rows_[static_cast<std::size_t>(i)] = 1u << i;
  Gf2Matrix power = zero_byte_operator();
  while (len != 0) {
    if (len & 1u) {
      Gf2Matrix next;
      for (std::size_t i = 0; i < 32; ++i)
        next.rows_[i] = power.times(result.rows_[i]);
      result = next;
    }
    len >>= 1;
    if (len != 0) power = square(power);
  }
  return result;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) noexcept {
  return Gf2Matrix::zeros_operator(len_b).times(crc_a) ^ crc_b;
}

CrcCombiner::CrcCombiner(std::size_t len_b) noexcept {
  const Gf2Matrix op = Gf2Matrix::zeros_operator(len_b);
  fill_nibbles(nibble_, op.rows_.data(), op.rows_.size());
}

CrcCombiner::CrcCombiner(const GenericCrc& crc, std::size_t len_b) {
  const std::vector<std::uint32_t> rows = crc.zeros_rows(len_b);
  fill_nibbles(nibble_, rows.data(), rows.size());
}

}  // namespace cksum::alg
