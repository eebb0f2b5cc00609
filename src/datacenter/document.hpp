// Documents served by the simulated data-center.
//
// Content is generated deterministically from the document id so integrity
// can be verified end to end without storing a corpus.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/pattern.hpp"

namespace dcs::datacenter {

using DocId = std::uint32_t;

struct DocumentStoreConfig {
  std::size_t num_docs = 1000;
  std::size_t doc_bytes = 16384;
};

class DocumentStore {
 public:
  explicit DocumentStore(DocumentStoreConfig config) : config_(config) {
    DCS_CHECK(config_.num_docs > 0);
    DCS_CHECK(config_.doc_bytes > 0);
  }

  std::size_t num_docs() const { return config_.num_docs; }
  std::size_t doc_bytes(DocId) const { return config_.doc_bytes; }

  /// Deterministic content: byte k of doc d is (d * 131 + k * 7) & 0xff.
  std::vector<std::byte> content(DocId id) const {
    DCS_CHECK(id < config_.num_docs);
    return pattern_bytes(config_.doc_bytes, id * 131u, 7);
  }

  /// Cheap integrity check used by tests and clients.
  bool verify(DocId id, const std::vector<std::byte>& bytes) const {
    if (bytes.size() != config_.doc_bytes) return false;
    // Spot-check a few positions instead of the whole body.
    const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 16);
    for (std::size_t k = 0; k < bytes.size(); k += stride) {
      if (bytes[k] != static_cast<std::byte>((id * 131u + k * 7u) & 0xffu)) {
        return false;
      }
    }
    return true;
  }

 private:
  DocumentStoreConfig config_;
};

}  // namespace dcs::datacenter
