// Tests for cooperative caching: LRU mechanics, scheme semantics
// (duplication vs single-copy, multi-tier aggregation, hybrid policy),
// directory consistency under eviction, and hit-rate ordering.
#include <gtest/gtest.h>

#include "cache/coop_cache.hpp"
#include "common/zipf.hpp"

namespace dcs::cache {
namespace {

// --- LruStore ---

TEST(LruStoreTest, InsertGetRoundTrip) {
  LruStore lru(1000);
  lru.insert(1, std::vector<std::byte>(100), [](DocId) {});
  ASSERT_NE(lru.get(1), nullptr);
  EXPECT_EQ(lru.get(1)->size(), 100u);
  EXPECT_EQ(lru.bytes_used(), 100u);
}

TEST(LruStoreTest, EvictsLeastRecentlyUsed) {
  LruStore lru(300);
  std::vector<DocId> evicted;
  auto track = [&evicted](DocId id) { evicted.push_back(id); };
  lru.insert(1, std::vector<std::byte>(100), track);
  lru.insert(2, std::vector<std::byte>(100), track);
  lru.insert(3, std::vector<std::byte>(100), track);
  (void)lru.get(1);  // touch 1 so 2 is now the LRU victim
  lru.insert(4, std::vector<std::byte>(100), track);
  EXPECT_EQ(evicted, (std::vector<DocId>{2}));
  EXPECT_TRUE(lru.contains(1));
  EXPECT_FALSE(lru.contains(2));
}

TEST(LruStoreTest, OversizedBodyRejected) {
  LruStore lru(100);
  EXPECT_FALSE(lru.insert(1, std::vector<std::byte>(200), [](DocId) {}));
  EXPECT_EQ(lru.count(), 0u);
}

TEST(LruStoreTest, ReinsertReplacesWithoutDuplicate) {
  LruStore lru(1000);
  lru.insert(1, std::vector<std::byte>(100), [](DocId) {});
  lru.insert(1, std::vector<std::byte>(200), [](DocId) {});
  EXPECT_EQ(lru.count(), 1u);
  EXPECT_EQ(lru.bytes_used(), 200u);
}

TEST(LruStoreTest, EraseFreesSpace) {
  LruStore lru(100);
  lru.insert(1, std::vector<std::byte>(100), [](DocId) {});
  EXPECT_TRUE(lru.erase(1));
  EXPECT_FALSE(lru.erase(1));
  EXPECT_EQ(lru.bytes_used(), 0u);
}

TEST(LruStoreTest, SharedBodyCountsInEachStoreAndSurvivesEviction) {
  LruStore a(1000);
  LruStore b(1000);
  const LruStore::Body body =
      std::make_shared<const std::vector<std::byte>>(100, std::byte{42});
  a.insert(1, body, [](DocId) {});
  b.insert(1, body, [](DocId) {});
  EXPECT_EQ(a.bytes_used(), 100u);
  EXPECT_EQ(b.bytes_used(), 100u);
  EXPECT_EQ(a.get(1), b.get(1)) << "one host buffer behind both copies";
  // Filling `a` evicts its copy; `b`'s copy is untouched.
  std::vector<DocId> evicted;
  a.insert(2, std::vector<std::byte>(1000),
           [&evicted](DocId id) { evicted.push_back(id); });
  EXPECT_EQ(evicted, (std::vector<DocId>{1}));
  EXPECT_FALSE(a.contains(1));
  EXPECT_EQ(a.bytes_used(), 1000u);
  const LruStore::Body kept = b.get(1);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept, body);
  EXPECT_EQ(*kept, std::vector<std::byte>(100, std::byte{42}));
  EXPECT_EQ(b.bytes_used(), 100u);
}

// --- cooperative caching world ---

struct CacheWorld {
  // Nodes: 0 client, 1-2 proxies, 3-4 app donors, 5 backend.
  sim::Engine eng;
  fabric::Fabric fab;
  verbs::Network net;
  sockets::TcpNetwork tcp;
  datacenter::DocumentStore store;
  datacenter::BackendService backend;
  CoopCacheService cache;

  CacheWorld(Scheme scheme, std::size_t doc_bytes, std::size_t num_docs,
             std::size_t capacity_per_node)
      : fab(eng, fabric::FabricParams{},
            {.num_nodes = 6, .cores_per_node = 2}),
        net(fab),
        tcp(fab),
        store({.num_docs = num_docs, .doc_bytes = doc_bytes}),
        backend(tcp, store, {5}),
        cache(net, backend, store, scheme, {1, 2}, {3, 4},
              {.capacity_per_node = capacity_per_node}) {
    backend.start();
  }

  std::vector<std::byte> request(NodeId proxy, DocId id) {
    std::vector<std::byte> out;
    eng.spawn([](CoopCacheService& c, NodeId p, DocId d,
                 std::vector<std::byte>& o) -> sim::Task<void> {
      o = co_await c.serve(p, d);
    }(cache, proxy, id, out));
    eng.run();
    return out;
  }
};

TEST(CoopCacheTest, AcServesCorrectContentAndCachesLocally) {
  CacheWorld w(Scheme::kAC, 4096, 20, 1u << 20);
  auto body = w.request(1, 5);
  EXPECT_TRUE(w.store.verify(5, body));
  EXPECT_EQ(w.cache.stats().misses, 1u);
  body = w.request(1, 5);
  EXPECT_TRUE(w.store.verify(5, body));
  EXPECT_EQ(w.cache.stats().local_hits, 1u);
}

TEST(CoopCacheTest, AcSiblingProxyMissesIndependently) {
  CacheWorld w(Scheme::kAC, 4096, 20, 1u << 20);
  (void)w.request(1, 5);
  (void)w.request(2, 5);
  EXPECT_EQ(w.cache.stats().misses, 2u) << "AC proxies must not cooperate";
}

TEST(CoopCacheTest, BccSiblingProxyGetsRemoteHit) {
  CacheWorld w(Scheme::kBCC, 4096, 20, 1u << 20);
  (void)w.request(1, 5);
  auto body = w.request(2, 5);
  EXPECT_TRUE(w.store.verify(5, body));
  EXPECT_EQ(w.cache.stats().misses, 1u);
  EXPECT_EQ(w.cache.stats().remote_hits, 1u);
  // BCC duplicates: the second proxy now hits locally.
  (void)w.request(2, 5);
  EXPECT_EQ(w.cache.stats().local_hits, 1u);
}

TEST(CoopCacheTest, BccRemoteHitSharesTheHoldersBuffer) {
  CacheWorld w(Scheme::kBCC, 16384, 20, 1u << 20);
  (void)w.request(1, 5);
  const auto body = w.request(2, 5);
  ASSERT_EQ(w.cache.stats().remote_hits, 1u);
  const LruStore::Body holder = w.cache.cached_body(1, 5);
  const LruStore::Body duplicate = w.cache.cached_body(2, 5);
  ASSERT_NE(holder, nullptr);
  EXPECT_EQ(holder, duplicate) << "BCC duplicate shares one host buffer";
  // The simulation still sees two copies.
  EXPECT_EQ(w.cache.cached_bytes(1), 16384u);
  EXPECT_EQ(w.cache.cached_bytes(2), 16384u);
  EXPECT_EQ(w.cache.audit(), "");
  EXPECT_TRUE(w.store.verify(5, body));
  EXPECT_EQ(body, *holder);
  EXPECT_NE(body.data(), holder->data()) << "serve returns an owned copy";
}

TEST(CoopCacheTest, RemoteHitFasterThanBackendMiss) {
  CacheWorld w(Scheme::kBCC, 16384, 20, 1u << 20);
  (void)w.request(1, 5);
  const auto t0 = w.eng.now();
  (void)w.request(2, 5);  // remote RDMA hit
  const auto remote_cost = w.eng.now() - t0;
  const auto t1 = w.eng.now();
  (void)w.request(2, 6);  // backend miss
  const auto miss_cost = w.eng.now() - t1;
  EXPECT_LT(remote_cost * 3, miss_cost);
}

TEST(CoopCacheTest, CcwrKeepsSingleCopyClusterWide) {
  CacheWorld w(Scheme::kCCWR, 4096, 20, 1u << 20);
  (void)w.request(1, 5);
  (void)w.request(2, 5);
  (void)w.request(1, 5);
  // Exactly one cached copy exists across all caching nodes.  Count via hit
  // statistics: after the initial miss, everything is a hit and at most one
  // node can hit locally.
  EXPECT_EQ(w.cache.stats().misses, 1u);
  EXPECT_EQ(w.cache.stats().local_hits + w.cache.stats().remote_hits, 2u);
}

TEST(CoopCacheTest, CcwrAggregatesCapacityAcrossProxies) {
  // Working set fits in 2 proxies together but not in 1.
  const std::size_t doc = 4096;
  const std::size_t docs = 48;            // 192 KB total
  const std::size_t cap = 128 * 1024;     // per node; aggregate 256 KB
  CacheWorld ac(Scheme::kAC, doc, docs, cap);
  CacheWorld ccwr(Scheme::kCCWR, doc, docs, cap);
  // Every document is requested from BOTH proxies each sweep: under AC each
  // proxy needs the whole working set (192 KB > 128 KB cap, thrashing);
  // under CCWR one cluster-wide copy per doc fits the 256 KB aggregate.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (DocId d = 0; d < docs; ++d) {
      for (NodeId p : {1, 2}) {
        (void)ac.request(p, d);
        (void)ccwr.request(p, d);
      }
    }
  }
  EXPECT_GT(ccwr.cache.stats().hit_rate(), ac.cache.stats().hit_rate());
  // CCWR: after the first-touch misses everything is served from cache.
  EXPECT_GE(ccwr.cache.stats().hit_rate(), 0.7);
}

TEST(CoopCacheTest, MtaccDonorsExtendAggregate) {
  // Working set exceeds the two proxies' aggregate but fits with donors.
  const std::size_t doc = 4096;
  const std::size_t docs = 96;          // 384 KB
  const std::size_t cap = 128 * 1024;   // proxies: 256 KB; +2 donors: 512 KB
  CacheWorld ccwr(Scheme::kCCWR, doc, docs, cap);
  CacheWorld mtacc(Scheme::kMTACC, doc, docs, cap);
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (DocId d = 0; d < docs; ++d) {
      (void)ccwr.request(1 + (d % 2), d);
      (void)mtacc.request(1 + (d % 2), d);
    }
  }
  EXPECT_GT(mtacc.cache.stats().hit_rate(), ccwr.cache.stats().hit_rate());
  EXPECT_GT(mtacc.cache.aggregate_capacity(), ccwr.cache.aggregate_capacity());
}

TEST(CoopCacheTest, HybccDuplicatesSmallButNotLarge) {
  // Small docs: BCC-style duplication -> second access on the other proxy
  // is remote, third is local.
  CacheWorld small(Scheme::kHYBCC, 4096, 20, 1u << 20);
  (void)small.request(1, 5);
  (void)small.request(2, 5);
  (void)small.request(2, 5);
  EXPECT_EQ(small.cache.stats().local_hits, 1u);

  // Large docs: CCWR-style, no duplication -> repeated access from the
  // non-designated proxy stays remote.
  CacheWorld large(Scheme::kHYBCC, 64 * 1024, 20, 1u << 20);
  const DocId id = 5;
  const NodeId designated = 1 + (id % 2);
  const NodeId other = designated == 1 ? 2 : 1;
  (void)large.request(other, id);
  (void)large.request(other, id);
  (void)large.request(other, id);
  EXPECT_EQ(large.cache.stats().local_hits, 0u);
  EXPECT_EQ(large.cache.stats().remote_hits, 2u);
}

TEST(CoopCacheTest, EvictionDoesNotLeaveStaleRemoteHits) {
  // Tiny caches force constant eviction; every served body must still be
  // correct (directory raced lookups fall back to the backend).
  CacheWorld w(Scheme::kBCC, 4096, 50, 12 * 1024);  // 3 docs per node
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const DocId d = static_cast<DocId>(rng.uniform(50));
    const NodeId p = static_cast<NodeId>(1 + rng.uniform(2));
    auto body = w.request(p, d);
    ASSERT_TRUE(w.store.verify(d, body)) << "request " << i;
  }
  EXPECT_GT(w.cache.stats().total(), 0u);
}

TEST(CoopCacheTest, CcwrServesCorrectContentUnderChurn) {
  CacheWorld w(Scheme::kCCWR, 8192, 40, 32 * 1024);
  Rng rng(31);
  for (int i = 0; i < 150; ++i) {
    const DocId d = static_cast<DocId>(rng.uniform(40));
    const NodeId p = static_cast<NodeId>(1 + rng.uniform(2));
    auto body = w.request(p, d);
    ASSERT_TRUE(w.store.verify(d, body));
  }
}

TEST(CoopCacheTest, SchemeNamesStable) {
  EXPECT_STREQ(to_string(Scheme::kAC), "AC");
  EXPECT_STREQ(to_string(Scheme::kBCC), "BCC");
  EXPECT_STREQ(to_string(Scheme::kCCWR), "CCWR");
  EXPECT_STREQ(to_string(Scheme::kMTACC), "MTACC");
  EXPECT_STREQ(to_string(Scheme::kHYBCC), "HYBCC");
}

}  // namespace
}  // namespace dcs::cache
