// Deterministic byte patterns for synthetic content (documents, disk
// blocks) that can be verified without storing a corpus.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dcs {

/// Returns `n` bytes where byte k is (base + k * step) mod 256.  The
/// sequence repeats every 256 bytes, so one period is built, doubled in
/// place up to a 4 KB block, and the block appended until `n` bytes are
/// filled: no zero-fill, no per-byte loop over `n`.
inline std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t base,
                                            std::uint64_t step) {
  constexpr std::size_t kPeriod = 256;
  std::array<std::byte, 16 * kPeriod> block;
  for (std::size_t k = 0; k < kPeriod; ++k) {
    block[k] = static_cast<std::byte>((base + k * step) & 0xffu);
  }
  const std::size_t filled = std::min(n, block.size());
  std::size_t len = kPeriod;
  for (; len < filled; len *= 2) {
    std::memcpy(block.data() + len, block.data(), len);
  }
  std::vector<std::byte> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::size_t take = std::min(n - out.size(), len);
    out.insert(out.end(), block.begin(), block.begin() + take);
  }
  return out;
}

}  // namespace dcs
