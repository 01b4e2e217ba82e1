// The SWAR tier's Internet checksum: eight message bytes per 64-bit
// load, treated as four 16-bit ones-complement lanes.
//
// Each loaded word is split into its 32-bit halves and both are added
// into a single 64-bit accumulator:
//
//   acc += (w & 0xffffffff) + (w >> 32)
//
// so every iteration adds less than 2^33 and the end-around carries
// accumulate losslessly in the accumulator's top bits — no per-
// iteration carry fixup, one fold chain at the end. The fold produces
// native-endian lanes; one byte swap of the folded 16-bit sum repairs
// all lanes at once on little-endian machines (RFC 1071 §2).
//
// Misaligned heads and sub-word tails run through the word-at-a-time
// path standalone and are composed with the RFC 1071 block rule: a
// piece preceded by an odd number of bytes contributes its sum
// byte-swapped. The composition is bitwise-identical to one scalar
// pass because every piece sum (and the composed ones_add chain) maps
// "plain sum zero" to 0x0000 and every other multiple of 65535 to
// 0xFFFF — the same representative rule the scalar fold follows.
#include "checksum/kernels/impl.hpp"

#include <bit>
#include <cstring>

#include "checksum/internet.hpp"

namespace cksum::alg::kern::impl {

namespace {

/// Below this the alignment bookkeeping costs more than it saves.
constexpr std::size_t kSwarMinBytes = 64;

/// 8-byte blocks between accumulator folds. Each block adds < 2^33, so
/// 2^30 blocks stay below 2^63; only multi-gigabyte buffers ever hit a
/// mid-stream fold.
constexpr std::size_t kSwarFoldBlocks = std::size_t{1} << 30;

std::uint16_t fold16(std::uint64_t acc) noexcept {
  while (acc >> 16) acc = (acc & 0xffffu) + (acc >> 16);
  return static_cast<std::uint16_t>(acc);
}

}  // namespace

std::uint16_t swar_internet_sum(util::ByteView data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n < kSwarMinBytes) return slicing_internet_sum(data);

  std::uint16_t sum = 0;
  bool odd = false;

  // Head: scalar words up to the first 8-byte boundary.
  const std::size_t misalign =
      reinterpret_cast<std::uintptr_t>(p) & std::uintptr_t{7};
  if (misalign != 0) {
    const std::size_t head = 8 - misalign;
    sum = slicing_internet_sum(util::ByteView(p, head));
    odd = (head & 1) != 0;
    p += head;
    n -= head;
  }

  // Middle: aligned 64-bit SWAR. The middle is a whole number of
  // 8-byte blocks, so it never changes the running parity.
  std::size_t blocks = n / 8;
  if (blocks > 0) {
    n -= blocks * 8;
    std::uint64_t acc = 0;
    while (blocks > 0) {
      std::size_t run = blocks < kSwarFoldBlocks ? blocks : kSwarFoldBlocks;
      blocks -= run;
      while (run-- > 0) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        acc += (w & 0xffffffffu) + (w >> 32);
        p += 8;
      }
      acc = (acc & 0xffffu) + (acc >> 16);
    }
    std::uint16_t mid = fold16(acc);
    if constexpr (std::endian::native == std::endian::little)
      mid = ones_swap(mid);
    sum = internet_combine(sum, mid, odd);
  }

  // Tail: fewer than 8 bytes, scalar, composed at the current parity.
  if (n > 0) sum = internet_combine(sum, slicing_internet_sum(util::ByteView(p, n)), odd);
  return sum;
}

}  // namespace cksum::alg::kern::impl
