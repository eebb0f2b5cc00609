// Cooperative caching schemes for multi-tier data-centers (Section 5.1 /
// [13]).
//
//   AC     Apache Cache: each proxy caches independently; a miss anywhere
//          goes to the backend even if a sibling proxy holds the document.
//   BCC    Basic RDMA-based Cooperative Cache: proxies share a soft-state
//          directory; remote hits are pulled from the sibling's memory with
//          RDMA reads and duplicated locally.
//   CCWR   Cooperative Cache Without Redundancy: exactly one copy cluster-
//          wide, placed on the document's hash-designated home; remote hits
//          are served by RDMA read without duplicating, so the aggregate
//          capacity is the sum of all caching nodes.
//   MTACC  Multi-Tier Aggregate Cooperative Cache: CCWR plus passive memory
//          donated by additional tiers (app servers) enlarging the
//          aggregate.
//   HYBCC  Hybrid: per-document policy — small documents are duplicated on
//          the reading proxy (BCC behaviour: the extra copy is cheap and
//          saves a network hop) while large documents stay single-copy
//          (CCWR behaviour).
//
// The cache directory is soft shared state distributed across the caching
// nodes by document hash; every lookup/update from a non-home node charges
// a one-sided RDMA operation, as in the paper's design.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/lru.hpp"
#include "datacenter/backend.hpp"
#include "datacenter/webfarm.hpp"
#include "verbs/verbs.hpp"

namespace dcs::cache {

using datacenter::NodeId;

enum class Scheme { kAC, kBCC, kCCWR, kMTACC, kHYBCC };

const char* to_string(Scheme s);

struct CacheConfig {
  std::size_t capacity_per_node = 1u << 20;  // cache bytes per caching node
  std::size_t hybrid_small_threshold = 16384;
  SimNanos local_lookup_cpu = microseconds(1);
};

struct CacheStats {
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t total() const { return local_hits + remote_hits + misses; }
  double hit_rate() const {
    const auto t = total();
    return t > 0 ? static_cast<double>(local_hits + remote_hits) /
                       static_cast<double>(t)
                 : 0.0;
  }
};

class CoopCacheService {
 public:
  /// `proxies` are the web-tier caching nodes.  `donor_nodes` contribute
  /// passive cache memory (MTACC only; ignored by other schemes).
  CoopCacheService(verbs::Network& net, datacenter::BackendService& backend,
                   const datacenter::DocumentStore& store, Scheme scheme,
                   std::vector<NodeId> proxies,
                   std::vector<NodeId> donor_nodes = {},
                   CacheConfig config = {});

  /// The proxy-tier document handler (plug into datacenter::WebFarm).
  sim::Task<std::vector<std::byte>> serve(NodeId proxy, DocId id);
  datacenter::DocHandler handler();

  Scheme scheme() const { return scheme_; }
  const CacheStats& stats() const { return stats_; }
  std::size_t aggregate_capacity() const;

  /// Bytes currently cached on `node` (the value lost if it is repurposed
  /// — feeds cache-aware reconfiguration).
  std::size_t cached_bytes(NodeId node) const;
  /// The copy of `id` cached on `node` (nullptr if none), leaving the LRU
  /// order as it is.  Copies of one document may share a host buffer.
  LruStore::Body cached_body(NodeId node, DocId id) const;

  /// Consistency self-check: every directory entry names nodes that really
  /// hold the document, every cached document is in the directory, and the
  /// no-redundancy schemes (CCWR/MTACC) have at most one copy per doc.
  /// Returns a human-readable violation description, empty when clean.
  std::string audit() const;
  /// Drops everything cached on `node` and fixes the directory; models the
  /// cache corruption of repurposing a caching node to another role.
  void drop_node_cache(NodeId node);

 private:
  /// Nodes that can hold cached copies under the active scheme.
  const std::vector<NodeId>& caching_nodes() const { return caching_nodes_; }
  NodeId directory_home(DocId id) const {
    return caching_nodes_[id % caching_nodes_.size()];
  }

  LruStore& store_of(NodeId node) { return *stores_.at(node); }

  /// Directory ops; charge one RDMA op when `from` is not the map's home.
  sim::Task<std::vector<NodeId>> dir_lookup(NodeId from, DocId id);
  sim::Task<void> dir_add(NodeId from, DocId id, NodeId holder);
  sim::Task<void> dir_remove(NodeId from, DocId id, NodeId holder);

  /// Pulls a cached body from `holder` via RDMA read and returns the
  /// holder's handle; nullptr if the copy vanished (evicted) between the
  /// directory check and the read.
  sim::Task<LruStore::Body> remote_fetch(NodeId proxy, NodeId holder,
                                         DocId id);

  /// Inserts into `node`'s store, fixing the directory on insert/evict.
  sim::Task<void> insert_with_directory(NodeId actor, NodeId node, DocId id,
                                        LruStore::Body body);

  /// Backend fetch on a miss, wrapped once into a shareable body.
  sim::Task<LruStore::Body> fetch_miss(NodeId proxy, DocId id);

  /// The scheme paths return the shared body; serve() makes the one owned
  /// copy a DocHandler hands back.
  sim::Task<LruStore::Body> serve_ac(NodeId proxy, DocId id);
  sim::Task<LruStore::Body> serve_bcc(NodeId proxy, DocId id);
  /// Shared CCWR/MTACC path (they differ only in caching_nodes_).
  sim::Task<LruStore::Body> serve_ccwr(NodeId proxy, DocId id);

  verbs::Network& net_;
  datacenter::BackendService& backend_;
  const datacenter::DocumentStore& store_;
  Scheme scheme_;
  std::vector<NodeId> proxies_;
  std::vector<NodeId> caching_nodes_;  // proxies (+ donors for MTACC)
  CacheConfig config_;
  std::unordered_map<NodeId, std::unique_ptr<LruStore>> stores_;
  std::unordered_map<DocId, std::vector<NodeId>> directory_;
  CacheStats stats_;
};

}  // namespace dcs::cache
