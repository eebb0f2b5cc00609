// Per-node registered memory.
//
// Each simulated host owns a flat byte-addressable memory arena from which
// buffers and RDMA-registered regions are carved.  A first-fit free-list
// allocator keeps semantics realistic (fragmentation, exhaustion) and
// testable.  Address 0 is reserved as the null address.
//
// The arena comes from calloc, so it reads as zero without being written.
// A large arena is fresh zero pages that become resident only when first
// touched: a 64 MB node whose workload touches a few KB costs a few KB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>

#include "common/check.hpp"

namespace dcs::fabric {

using MemAddr = std::uint64_t;
inline constexpr MemAddr kNullAddr = 0;

class NodeMemory {
 public:
  explicit NodeMemory(std::size_t capacity_bytes);

  /// Allocates `len` bytes; returns kNullAddr when no hole fits.
  MemAddr allocate(std::size_t len);
  /// Frees a previous allocation (exact address required).
  void free(MemAddr addr);

  std::size_t capacity() const { return size_ - kReservedPrefix; }
  std::size_t used() const { return used_; }
  std::size_t allocation_count() const { return allocated_.size(); }

  /// Direct access for simulated DMA.  Bounds-checked.
  std::span<std::byte> bytes(MemAddr addr, std::size_t len);
  std::span<const std::byte> bytes(MemAddr addr, std::size_t len) const;

  /// True when [addr, addr+len) lies inside the arena.
  bool in_range(MemAddr addr, std::size_t len) const;

 private:
  static constexpr std::size_t kReservedPrefix = 64;  // keeps addr 0 invalid

  struct FreeDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };

  std::size_t size_;  // arena bytes, reserved prefix included
  std::unique_ptr<std::byte[], FreeDeleter> arena_;
  std::map<MemAddr, std::size_t> free_list_;   // addr -> hole length
  std::map<MemAddr, std::size_t> allocated_;   // addr -> allocation length
  std::size_t used_ = 0;

  void coalesce(std::map<MemAddr, std::size_t>::iterator it);
};

}  // namespace dcs::fabric
