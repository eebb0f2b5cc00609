// Byte-capacity LRU document store used by every caching node.
//
// Bodies are immutable and held by shared handle, so simulated copies of
// one document (a BCC duplicate, a CCWR push to the designated node) share
// one host buffer.  Byte accounting still charges every store for its own
// copy: the simulation sees one copy per store, the host keeps one.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "datacenter/document.hpp"

namespace dcs::cache {

using datacenter::DocId;

class LruStore {
 public:
  /// A cached body; nullptr when absent.
  using Body = std::shared_ptr<const std::vector<std::byte>>;

  explicit LruStore(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t count() const { return index_.size(); }
  bool contains(DocId id) const { return index_.contains(id); }

  /// Returns the body's handle and marks the entry most-recently used.
  /// The handle stays valid after the entry is evicted or replaced.
  Body get(DocId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->body;
  }

  /// Returns the body's handle without touching the LRU order.
  Body peek(DocId id) const {
    const auto it = index_.find(id);
    return it != index_.end() ? it->second->body : nullptr;
  }

  /// Inserts (replacing any existing copy).  Evicted victims are reported
  /// through `on_evict(id)` so callers can fix up shared directories.
  /// Bodies larger than the whole capacity are not cached.
  template <typename OnEvict>
  bool insert(DocId id, Body body, OnEvict&& on_evict) {
    DCS_CHECK(body != nullptr);
    const std::size_t size = body->size();
    if (size > capacity_) return false;
    erase(id);
    while (bytes_used_ + size > capacity_) {
      DCS_CHECK(!entries_.empty());
      const Entry& victim = entries_.back();
      on_evict(victim.id);
      bytes_used_ -= victim.body->size();
      index_.erase(victim.id);
      entries_.pop_back();
      ++evictions_;
    }
    bytes_used_ += size;
    entries_.push_front(Entry{id, std::move(body)});
    index_[id] = entries_.begin();
    return true;
  }

  /// Inserts a body this store is the first to hold.
  template <typename OnEvict>
  bool insert(DocId id, std::vector<std::byte> body, OnEvict&& on_evict) {
    return insert(id, std::make_shared<const std::vector<std::byte>>(
                          std::move(body)),
                  on_evict);
  }

  bool erase(DocId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    bytes_used_ -= it->second->body->size();
    entries_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    DocId id;
    Body body;
  };

  std::size_t capacity_;
  std::size_t bytes_used_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<DocId, std::list<Entry>::iterator> index_;
};

}  // namespace dcs::cache
