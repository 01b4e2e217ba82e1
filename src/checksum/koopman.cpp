#include "checksum/koopman.hpp"

#include <cstring>

#include "checksum/kernels/kernel.hpp"

namespace cksum::alg {

namespace {

/// The (zero-padded) 64-bit big-endian value of one block; `len` may
/// be short for the final partial block.
std::uint64_t block_value(const std::uint8_t* p, std::size_t len) noexcept {
  if (len >= kKoopmanBlockBytes) return util::load_be64(p);
  std::uint8_t padded[kKoopmanBlockBytes] = {};
  std::memcpy(padded, p, len);
  return util::load_be64(padded);
}

void dual_step(std::uint32_t& a, std::uint32_t& b, std::uint64_t v) noexcept {
  a = static_cast<std::uint32_t>(
      (a + v % kKoopmanDualMod) % kKoopmanDualMod);
  b = (b + a) % kKoopmanDualMod;
}

/// Feed `data` through a partial-block buffer: complete the buffered
/// block first, hand the block-aligned middle to `blocks` in one call,
/// and keep the remainder (< 8 bytes) pending for the next update.
template <typename Blocks>
void feed_blocks(std::uint8_t (&pending)[kKoopmanBlockBytes],
                 std::size_t& npending, util::ByteView data,
                 Blocks blocks) noexcept {
  std::size_t i = 0;
  if (npending > 0) {
    while (npending < kKoopmanBlockBytes && i < data.size())
      pending[npending++] = data[i++];
    if (npending < kKoopmanBlockBytes) return;
    blocks(util::ByteView(pending, kKoopmanBlockBytes));
    npending = 0;
  }
  const std::size_t whole =
      (data.size() - i) / kKoopmanBlockBytes * kKoopmanBlockBytes;
  if (whole > 0) blocks(data.subspan(i, whole));
  for (i += whole; i < data.size(); ++i) pending[npending++] = data[i];
}

}  // namespace

KoopmanDualPair koopman_dual_naive(util::ByteView data) noexcept {
  std::uint32_t a = 0, b = 0;
  for (std::size_t i = 0; i < data.size(); i += kKoopmanBlockBytes)
    dual_step(a, b, block_value(data.data() + i, data.size() - i));
  return {a, b};
}

std::uint64_t koopman_single_naive(util::ByteView data) noexcept {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < data.size(); i += kKoopmanBlockBytes)
    s = (s + block_value(data.data() + i, data.size() - i) %
                 kKoopmanSingleMod) %
        kKoopmanSingleMod;
  return s;
}

KoopmanDualPair koopman_dual_combine(KoopmanDualPair x, KoopmanDualPair y,
                                     std::uint64_t y_blocks) noexcept {
  // Every block of X gains y_blocks extra B-weight once Y follows it.
  const std::uint64_t shift =
      (y_blocks % kKoopmanDualMod) * static_cast<std::uint64_t>(x.a);
  return {(x.a + y.a) % kKoopmanDualMod,
          static_cast<std::uint32_t>(
              (static_cast<std::uint64_t>(x.b) + y.b + shift) %
              kKoopmanDualMod)};
}

KoopmanDualPair koopman_dual_shift(KoopmanDualPair x,
                                   std::uint64_t tail_blocks) noexcept {
  const std::uint64_t shift =
      (tail_blocks % kKoopmanDualMod) * static_cast<std::uint64_t>(x.a);
  return {x.a, static_cast<std::uint32_t>(
                   (static_cast<std::uint64_t>(x.b) + shift) %
                   kKoopmanDualMod)};
}

std::uint64_t koopman_single_combine(std::uint64_t x,
                                     std::uint64_t y) noexcept {
  return (x + y) % kKoopmanSingleMod;
}

void KoopmanDualSum::update(util::ByteView data) noexcept {
  feed_blocks(pending_, npending_, data, [this](util::ByteView blocks) {
    sum_ = koopman_dual_combine(sum_, kern::koopman_dual(blocks),
                                blocks.size() / kKoopmanBlockBytes);
  });
}

KoopmanDualPair KoopmanDualSum::pair() const noexcept {
  // The pending partial block is zero-padded: koopman_block_count is 1
  // for it, and 0 (an identity combine) when nothing is pending.
  return koopman_dual_combine(
      sum_, koopman_dual_naive(util::ByteView(pending_, npending_)),
      koopman_block_count(npending_));
}

void KoopmanDualSum::reset() noexcept {
  sum_ = {};
  npending_ = 0;
}

void KoopmanSingleSum::update(util::ByteView data) noexcept {
  feed_blocks(pending_, npending_, data, [this](util::ByteView blocks) {
    sum_ = koopman_single_combine(sum_, kern::koopman_single(blocks));
  });
}

std::uint64_t KoopmanSingleSum::value() const noexcept {
  return koopman_single_combine(
      sum_, koopman_single_naive(util::ByteView(pending_, npending_)));
}

void KoopmanSingleSum::reset() noexcept {
  sum_ = 0;
  npending_ = 0;
}

}  // namespace cksum::alg
