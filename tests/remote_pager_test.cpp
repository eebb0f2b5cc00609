// Tests for the remote-memory block cache: hit hierarchy (local -> remote
// -> disk), victim migration, latency ordering, capacity recycling, and
// content integrity under churn.
#include <gtest/gtest.h>

#include "cache/remote_pager.hpp"
#include "common/rng.hpp"

namespace dcs::cache {
namespace {

struct PagerFixture : ::testing::Test {
  sim::Engine eng;
  fabric::Fabric fab{eng, fabric::FabricParams{},
                     {.num_nodes = 3, .cores_per_node = 2,
                      .mem_per_node = 8u << 20}};
  verbs::Network net{fab};

  std::vector<std::byte> read_one(RemoteBlockCache& cache,
                                  std::uint64_t block) {
    std::vector<std::byte> out;
    eng.spawn([](RemoteBlockCache& c, std::uint64_t b,
                 std::vector<std::byte>& o) -> sim::Task<void> {
      o = co_await c.read_block(b);
    }(cache, block, out));
    eng.run();
    return out;
  }
};

TEST_F(PagerFixture, DiskContentMatchesPerByteFormula) {
  for (const std::size_t n : {1u, 255u, 256u, 257u, 16384u, 16385u}) {
    const RemoteBlockCache cache(net, 0, {1, 2}, {.block_bytes = n});
    for (const std::uint64_t block :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xFFFFFFFEu},
          std::uint64_t{0xFFFFFFFFu}}) {
      const auto bytes = cache.disk_content(block);
      ASSERT_EQ(bytes.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bytes[i], static_cast<std::byte>((block * 41 + i * 13) & 0xff))
            << "block " << block << " n " << n << " i " << i;
      }
    }
  }
}

TEST_F(PagerFixture, FirstReadComesFromDisk) {
  RemoteBlockCache cache(net, 0, {1, 2});
  const auto body = read_one(cache, 7);
  EXPECT_EQ(body, cache.disk_content(7));
  EXPECT_EQ(cache.stats().disk_reads, 1u);
  EXPECT_EQ(cache.stats().local_hits, 0u);
}

TEST_F(PagerFixture, SecondReadHitsLocalCache) {
  RemoteBlockCache cache(net, 0, {1, 2});
  (void)read_one(cache, 7);
  const auto t0 = eng.now();
  (void)read_one(cache, 7);
  EXPECT_EQ(cache.stats().local_hits, 1u);
  EXPECT_EQ(eng.now() - t0, 0u) << "local hit costs no simulated time";
}

TEST_F(PagerFixture, EvictedBlockMigratesToRemoteMemory) {
  // local capacity = 4 blocks of 16 KB.
  RemoteBlockCache cache(net, 0, {1, 2},
                         {.block_bytes = 16384, .local_capacity = 64 * 1024});
  for (std::uint64_t b = 0; b < 5; ++b) (void)read_one(cache, b);
  // Block 0 was evicted and pushed to a remote server.
  EXPECT_GE(cache.stats().victims_pushed, 1u);
  EXPECT_GE(cache.remote_blocks(), 1u);
  const auto before_disk = cache.stats().disk_reads;
  const auto body = read_one(cache, 0);
  EXPECT_EQ(body, cache.disk_content(0));
  EXPECT_EQ(cache.stats().remote_hits, 1u);
  EXPECT_EQ(cache.stats().disk_reads, before_disk) << "no disk access";
}

TEST_F(PagerFixture, RemoteHitOrdersOfMagnitudeFasterThanDisk) {
  RemoteBlockCache cache(net, 0, {1, 2},
                         {.block_bytes = 16384, .local_capacity = 64 * 1024});
  for (std::uint64_t b = 0; b < 5; ++b) (void)read_one(cache, b);
  // Remote hit timing (block 0 was evicted to remote memory).
  auto t0 = eng.now();
  (void)read_one(cache, 0);
  const auto remote_time = eng.now() - t0;
  // Disk timing (block 99 is cold).
  t0 = eng.now();
  (void)read_one(cache, 99);
  const auto disk_time = eng.now() - t0;
  EXPECT_LT(remote_time * 20, disk_time);
  EXPECT_LT(remote_time, microseconds(100));
  EXPECT_GT(disk_time, milliseconds(4));
}

TEST_F(PagerFixture, RemoteStoreRecyclesOldestWhenFull) {
  // Remote capacity: 2 blocks per server x 2 servers = 4 blocks.
  RemoteBlockCache cache(net, 0, {1, 2},
                         {.block_bytes = 16384,
                          .local_capacity = 32 * 1024,
                          .remote_capacity_per_server = 32 * 1024});
  for (std::uint64_t b = 0; b < 12; ++b) (void)read_one(cache, b);
  EXPECT_LE(cache.remote_blocks(), 4u);
  EXPECT_GT(cache.stats().victims_pushed, 4u);
}

TEST_F(PagerFixture, MemoryServerCpuStaysIdle) {
  RemoteBlockCache cache(net, 0, {1},
                         {.block_bytes = 16384, .local_capacity = 32 * 1024});
  for (std::uint64_t b = 0; b < 10; ++b) (void)read_one(cache, b);
  (void)read_one(cache, 0);
  EXPECT_EQ(fab.node(1).busy_ns(), 0u)
      << "victim store must be a pure one-sided RDMA consumer";
}

TEST_F(PagerFixture, ContentIntegrityUnderRandomChurn) {
  RemoteBlockCache cache(net, 0, {1, 2},
                         {.block_bytes = 4096,
                          .local_capacity = 16 * 1024,
                          .remote_capacity_per_server = 32 * 1024});
  Rng rng(2026);
  for (int i = 0; i < 300; ++i) {
    const auto block = rng.uniform(40);
    const auto body = read_one(cache, block);
    ASSERT_EQ(body, cache.disk_content(block)) << "iteration " << i;
  }
  // All three tiers must have been exercised.
  EXPECT_GT(cache.stats().local_hits, 0u);
  EXPECT_GT(cache.stats().remote_hits, 0u);
  EXPECT_GT(cache.stats().disk_reads, 0u);
}

TEST_F(PagerFixture, WorkingSetBeyondLocalButWithinRemoteAvoidsDisk) {
  // 8 local blocks, 32 remote blocks, 20-block working set: after the
  // first sweep, sweeps are disk-free.
  RemoteBlockCache cache(net, 0, {1, 2},
                         {.block_bytes = 4096,
                          .local_capacity = 32 * 1024,
                          .remote_capacity_per_server = 64 * 1024});
  for (std::uint64_t b = 0; b < 20; ++b) (void)read_one(cache, b);
  const auto disk_after_first = cache.stats().disk_reads;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::uint64_t b = 0; b < 20; ++b) (void)read_one(cache, b);
  }
  EXPECT_EQ(cache.stats().disk_reads, disk_after_first)
      << "steady-state sweeps must be served from local+remote memory";
}

}  // namespace
}  // namespace dcs::cache
