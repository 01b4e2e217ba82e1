#include "checksum/internet.hpp"

#include "checksum/kernels/kernel.hpp"

namespace cksum::alg {

void InternetSum::update(util::ByteView data) noexcept {
  update_sum(kern::internet_sum(data), (data.size() & 1) != 0);
}

void InternetSum::update_sum(std::uint16_t block_sum,
                             bool block_odd_length) noexcept {
  acc_ += odd_ ? ones_swap(block_sum) : block_sum;
  if (block_odd_length) odd_ = !odd_;
}

void InternetSum::update_word(std::uint16_t word) noexcept {
  acc_ += odd_ ? ones_swap(word) : word;
}

std::uint16_t InternetSum::fold() const noexcept {
  std::uint64_t sum = acc_;
  while (sum >> 16) sum = (sum & 0xffffu) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

std::uint16_t internet_sum(util::ByteView data) noexcept {
  return kern::internet_sum(data);
}

}  // namespace cksum::alg
