// Determinism oracle for the sharded runner (sim/shard.hpp): the merged
// dispatch fingerprint of a fixed partition grid must be byte-identical for
// EVERY worker count — the 1-worker run is the sequential oracle for the
// N-worker run — and must not depend on where a chopped run is cut.  Also
// pins the cross-shard merge rule itself: (t, src, seq) delivery order and
// lookahead-stamped delivery times.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "fabric/fabric.hpp"
#include "sim/shard.hpp"
#include "trace/shard_metrics.hpp"
#include "trace/trace.hpp"

namespace dcs {
namespace {

using sim::Shard;
using sim::ShardedEngine;
using sim::ShardMsg;

constexpr sim::Time kLookahead = 1300;  // the fabric wire latency

struct RunResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t cross = 0;
  sim::Time end = 0;
  bool operator==(const RunResult&) const = default;
};

/// A deliberately chatty workload: every partition runs `senders` strands
/// that scatter tagged messages across the grid on irregular (seeded)
/// schedules; every delivery below `hops` forwards once more, so traffic
/// crosses partitions in chains, not just pairs.
ShardedEngine::Spec spec_for(std::uint32_t partitions, std::uint32_t workers) {
  return {.partitions = partitions, .workers = workers, .lookahead = kLookahead};
}

/// Ten sends to partition 0 at identical virtual times on every source.
sim::Task<void> bombard(Shard& shard) {
  for (int i = 0; i < 10; ++i) {
    shard.send(0, /*tag=*/0, /*a=*/i);
    co_await shard.engine().delay(500);
  }
}

sim::Task<void> one_ping(Shard& shard) {
  shard.send(1 - shard.index(), /*tag=*/0);
  co_return;
}

sim::Task<void> boom_after_delay(Shard& shard, sim::Time delay) {
  co_await shard.engine().delay(delay);
  throw std::runtime_error("shard boom");
}

/// Eight spaced sends that fan around the ring with a 4-hop forwarding tag.
sim::Task<void> ring_traffic(Shard& shard) {
  for (int i = 0; i < 8; ++i) {
    co_await shard.engine().delay(microseconds(10));
    shard.send((shard.index() + 1) % shard.partitions(), /*tag=*/4, i,
               shard.index());
  }
}

sim::Task<void> count_once(Shard& shard) {
  trace::Registry::global().counter("shard.test.events").add(1 + shard.index());
  co_return;
}

sim::Task<void> scatter(Shard& shard, std::uint32_t strand, std::uint64_t seed) {
  auto& eng = shard.engine();
  Rng rng(seed ^ (std::uint64_t{shard.index()} << 32) ^ strand);
  for (int i = 0; i < 20; ++i) {
    co_await eng.delay(rng.uniform(100, 5000));
    const auto dst = static_cast<std::uint32_t>(
        rng.uniform(0, shard.partitions() - 1));
    shard.send(dst, /*tag=*/3, /*a=*/strand, /*b=*/i);
  }
}

void install_forwarding(Shard& shard, std::uint64_t seed) {
  shard.set_handler([seed](Shard& s, const ShardMsg& msg) {
    if (msg.tag >= 1) {
      // Forward the hop chain: deterministic next destination derived from
      // the message coordinates, not from any ambient state.
      const auto next = static_cast<std::uint32_t>(
          (msg.a + msg.src + msg.seq + seed) % s.partitions());
      s.send(next, msg.tag - 1, msg.a, msg.b);
    }
  });
  for (std::uint32_t strand = 0; strand < 3; ++strand) {
    shard.engine().spawn(scatter(shard, strand, seed));
  }
}

RunResult run_grid(std::uint32_t partitions, std::uint32_t workers,
                   std::uint64_t seed, int chunks = 1) {
  ShardedEngine sharded(spec_for(partitions, workers));
  sharded.setup([&](Shard& shard) { install_forwarding(shard, seed); });
  if (chunks == 1) {
    sharded.run();
  } else {
    // Chop the run at arbitrary virtual times, then drain.  The cut points
    // must not shift the dispatch stream.
    for (int c = 1; c <= chunks; ++c) {
      sharded.run_until(static_cast<sim::Time>(c) * 7777);
    }
    sharded.run();
  }
  return {.fingerprint = sharded.merged_fingerprint(),
          .events = sharded.events_dispatched(),
          .cross = sharded.cross_messages(),
          .end = sharded.now()};
}

TEST(ShardMergeTest, WorkerCountNeverChangesTheFingerprint) {
  const RunResult oracle = run_grid(8, 1, /*seed=*/42);
  EXPECT_GT(oracle.cross, 0u);
  for (std::uint32_t workers : {2u, 3u, 4u, 8u}) {
    EXPECT_EQ(run_grid(8, workers, 42), oracle) << "workers=" << workers;
  }
}

TEST(ShardMergeTest, ChoppedRunsResumeExactly) {
  const RunResult oracle = run_grid(4, 2, /*seed=*/7);
  EXPECT_EQ(run_grid(4, 2, 7, /*chunks=*/5), oracle);
  // More chunks than the workload outlives: the dispatch stream still
  // matches; only the clock differs (run_until clamps virtual time to the
  // last cut, exactly like Engine::run_until does).
  const RunResult nine = run_grid(4, 1, 7, /*chunks=*/9);
  EXPECT_EQ(nine.fingerprint, oracle.fingerprint);
  EXPECT_EQ(nine.events, oracle.events);
  EXPECT_EQ(nine.cross, oracle.cross);
  EXPECT_EQ(nine.end, std::max<sim::Time>(oracle.end, 9 * 7777));
}

TEST(ShardMergeTest, DifferentSeedsDiffer) {
  EXPECT_NE(run_grid(4, 2, 1).fingerprint, run_grid(4, 2, 2).fingerprint);
}

TEST(ShardMergeTest, DeliveryFollowsMergeOrder) {
  // All other partitions bombard partition 0; partition 0 records the
  // delivery sequence.  It must be sorted by (t, src, seq) — the total
  // merge order — and every delivery must be lookahead-late.
  std::vector<std::tuple<sim::Time, std::uint32_t, std::uint64_t>> seen;
  {
    ShardedEngine sharded(spec_for(4, 4));
    sharded.setup([&](Shard& shard) {
      if (shard.index() == 0) {
        shard.set_handler([&seen](Shard& s, const ShardMsg& msg) {
          EXPECT_EQ(s.engine().now(), msg.t);
          seen.emplace_back(msg.t, msg.src, msg.seq);
        });
        return;
      }
      // Same virtual send times on every source partition, so partition 0
      // sees same-time deliveries from distinct sources.
      shard.engine().spawn(bombard(shard));
    });
    sharded.run();
  }
  ASSERT_EQ(seen.size(), 30u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (const auto& [t, src, seq] : seen) {
    EXPECT_GE(t, kLookahead);  // nothing arrives earlier than the lookahead
  }
}

// A coroutine may not be a capturing lambda (the closure dies before the
// frame resumes), so the one-shot sender is a free function.
sim::Task<void> delayed_send(Shard& shard, sim::Time* sent_at) {
  co_await shard.engine().delay(250);
  *sent_at = shard.engine().now();
  shard.send(1, /*tag=*/0);
}

TEST(ShardMergeTest, SendStampsLookahead) {
  sim::Time delivered_at = 0;
  sim::Time sent_at = 0;
  {
    ShardedEngine sharded(spec_for(2, 1));
    sharded.setup([&](Shard& shard) {
      if (shard.index() == 1) {
        shard.set_handler([&](Shard& s, const ShardMsg&) {
          delivered_at = s.engine().now();
        });
        return;
      }
      shard.engine().spawn(delayed_send(shard, &sent_at));
    });
    sharded.run();
  }
  EXPECT_EQ(sent_at, 250);
  EXPECT_EQ(delivered_at, sent_at + kLookahead);
}

TEST(ShardMergeTest, PartitionsRunOnTheirOwnWorkerThreads) {
  // The affinity contract: setup, delivery and strand execution for one
  // partition all happen on one OS thread, and with workers == partitions
  // two partitions run on different threads.
  std::vector<std::thread::id> setup_tid(2), handler_tid(2);
  {
    ShardedEngine sharded(spec_for(2, 2));
    sharded.setup([&](Shard& shard) {
      setup_tid[shard.index()] = std::this_thread::get_id();
      shard.set_handler([&handler_tid](Shard& s, const ShardMsg&) {
        handler_tid[s.index()] = std::this_thread::get_id();
      });
      shard.engine().spawn(one_ping(shard));
    });
    sharded.run();
  }
  EXPECT_EQ(setup_tid[0], handler_tid[0]);
  EXPECT_EQ(setup_tid[1], handler_tid[1]);
  EXPECT_NE(setup_tid[0], setup_tid[1]);
  EXPECT_NE(setup_tid[0], std::this_thread::get_id());
}

TEST(ShardMergeTest, FabricWorkloadsShardDeterministically) {
  // Each partition hosts a real two-node Fabric cluster; cross-partition
  // messages trigger remote CPU work.  Exercises the full stack (fabric
  // nodes, multi-core run queues, trace spans) under every worker count.
  auto run = [](std::uint32_t workers) {
    ShardedEngine sharded(spec_for(4, workers));
    sharded.setup([](Shard& shard) {
      auto fab = std::make_shared<fabric::Fabric>(
          shard.engine(), fabric::FabricParams{},
          fabric::ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
      shard.set_handler([fab](Shard& s, const ShardMsg& msg) {
        s.engine().spawn(
            fab->node(msg.a % 2).execute(microseconds(3 + msg.b % 5)));
        if (msg.tag > 0) {
          s.send((msg.src + 1) % s.partitions(), msg.tag - 1, msg.a + 1,
                 msg.b + 1);
        }
      });
      shard.engine().spawn(ring_traffic(shard));
      shard.keep_alive(fab);
    });
    sharded.run();
    return std::pair{sharded.merged_fingerprint(),
                     sharded.events_dispatched()};
  };
  const auto oracle = run(1);
  EXPECT_EQ(run(2), oracle);
  EXPECT_EQ(run(4), oracle);
}

TEST(ShardMergeTest, RegistryCollectionGathersAllWorkers) {
  trace::Registry::global().reset();
  ShardedEngine sharded(spec_for(4, 2));
  sharded.setup([](Shard& shard) {
    shard.engine().spawn(count_once(shard));
  });
  sharded.run();
  // Recorded on worker threads: invisible here until collected.
  const auto* before = trace::Registry::global().find_counter("shard.test.events");
  EXPECT_TRUE(before == nullptr || before->value == 0);
  trace::collect_shard_registries(sharded);
  const auto* after = trace::Registry::global().find_counter("shard.test.events");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value, 1u + 2u + 3u + 4u);
  trace::Registry::global().reset();
}

/// One partition's slice of the stack for the per-worker metrics test.
struct DdssDlmHost {
  explicit DdssDlmHost(sim::Engine& eng)
      : fab(eng, fabric::FabricParams{},
            fabric::ClusterSpec{.num_nodes = 2, .mem_per_node = 1u << 20}),
        net(fab),
        substrate(net),
        locks(net, /*home=*/0) {}

  fabric::Fabric fab;
  verbs::Network net;
  ddss::Ddss substrate;
  dlm::NcosedLockManager locks;
};

/// `3n` DDSS gets, then `n` exclusive and `n` shared N-CoSED acquisitions.
sim::Task<void> gets_and_locks(std::shared_ptr<DdssDlmHost> host,
                               std::uint64_t n) {
  auto client = host->substrate.client(1);
  const auto alloc = co_await client.allocate(64, ddss::Coherence::kNull);
  std::array<std::byte, 64> buf{};
  for (std::uint64_t i = 0; i < 3 * n; ++i) co_await client.get(alloc, buf);
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await host->locks.lock(1, 0, dlm::LockMode::kExclusive);
    co_await host->locks.unlock(1, 0);
    co_await host->locks.lock(1, 0, dlm::LockMode::kShared);
    co_await host->locks.unlock(1, 0);
  }
}

TEST(ShardMergeTest, LayerMetricsLandInTheOwningWorkersRegistry) {
  // DDSS and N-CoSED cache their registry handles per thread.  A
  // process-wide cache would pin the first worker's registry, and the
  // other worker's traffic would race into it.
  constexpr std::uint32_t kPartitions = 2;
  struct Seen {
    std::uint64_t n = 0;  // sum of (p + 1) over the worker's partitions
    std::uint64_t gets = 0, exclusive = 0, shared = 0;
  };
  std::array<std::thread::id, kPartitions> owner{};
  std::array<Seen, kPartitions> seen{};
  {
    ShardedEngine sharded(spec_for(kPartitions, kPartitions));
    sharded.setup([&owner](Shard& shard) {
      owner[shard.index()] = std::this_thread::get_id();
      auto host = std::make_shared<DdssDlmHost>(shard.engine());
      host->substrate.start();
      shard.engine().spawn(gets_and_locks(host, shard.index() + 1));
      shard.keep_alive(host);
    });
    sharded.run();
    sharded.for_each_worker([&](std::uint32_t w) {
      auto value = [](const char* name) -> std::uint64_t {
        const auto* c = trace::Registry::global().find_counter(name);
        return c != nullptr ? c->value : 0;
      };
      for (std::uint32_t p = 0; p < kPartitions; ++p) {
        if (owner[p] == std::this_thread::get_id()) seen[w].n += p + 1;
      }
      seen[w].gets = value("ddss.get.ops");
      seen[w].exclusive = value("dlm.ncosed.exclusive_acquires");
      seen[w].shared = value("dlm.ncosed.shared_acquires");
    });
  }
  for (std::uint32_t w = 0; w < kPartitions; ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    EXPECT_GT(seen[w].n, 0u);
    EXPECT_EQ(seen[w].gets, 3 * seen[w].n);
    EXPECT_EQ(seen[w].exclusive, seen[w].n);
    EXPECT_EQ(seen[w].shared, seen[w].n);
  }
}

TEST(ShardMergeTest, WorkerExceptionsPropagate) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ShardedEngine sharded(spec_for(8, workers));
    sharded.setup([](Shard& shard) {
      // Every partition keeps the grid busy for many windows; partition 7
      // (owned by the last worker) throws part-way through, so its peers
      // are mid-window or waiting at the barrier when it fails.
      install_forwarding(shard, /*seed=*/9);
      if (shard.index() == 7) {
        shard.engine().spawn(boom_after_delay(shard, 20 * kLookahead));
      }
    });
    EXPECT_THROW(sharded.run(), std::runtime_error);
    EXPECT_GT(sharded.windows(), 1u);
    EXPECT_DEATH(sharded.run(), "a worker already failed");
    // Leaving scope tears every partition down and joins the pool.
  }
}

TEST(ShardMergeTest, UnevenChoppedRunsMatchOneRunAtEveryWorkerCount) {
  // Cuts inside one window, on a lookahead boundary, repeated, spanning
  // many windows, and past the end of the workload.
  const std::vector<sim::Time> cuts = {1,     kLookahead - 1, kLookahead,
                                       4000,  4000,           4001,
                                       25003, 60000,          500000};
  auto run = [&cuts](std::uint32_t workers, bool chopped) {
    ShardedEngine sharded(spec_for(8, workers));
    sharded.setup([](Shard& shard) { install_forwarding(shard, 5); });
    if (chopped) {
      for (const sim::Time t : cuts) sharded.run_until(t);
    }
    sharded.run();
    return std::tuple{sharded.merged_fingerprint(), sharded.events_dispatched(),
                      sharded.cross_messages(), sharded.windows()};
  };
  const auto whole = run(1, false);
  const auto chopped = run(1, true);
  EXPECT_GT(std::get<2>(whole), 0u);
  // Cutting adds windows but never shifts a dispatch.
  EXPECT_EQ(std::get<0>(chopped), std::get<0>(whole));
  EXPECT_EQ(std::get<1>(chopped), std::get<1>(whole));
  EXPECT_EQ(std::get<2>(chopped), std::get<2>(whole));
  EXPECT_GT(std::get<3>(chopped), std::get<3>(whole));
  for (std::uint32_t workers = 2; workers <= 4; ++workers) {
    EXPECT_EQ(run(workers, false), whole) << "workers=" << workers;
    EXPECT_EQ(run(workers, true), chopped) << "workers=" << workers;
  }
}

TEST(ShardMergeTest, TelemetryCoversEveryPartitionAndWorker) {
  ShardedEngine sharded(spec_for(6, 3));
  sharded.setup([](Shard& shard) { install_forwarding(shard, 11); });
  sharded.run();
  const auto events = sharded.partition_events();
  ASSERT_EQ(events.size(), 6u);
  for (const auto e : events) EXPECT_GT(e, 0u);
  EXPECT_EQ(sharded.worker_wall_ns().size(), 3u);
  EXPECT_GT(sharded.windows(), 0u);
}

}  // namespace
}  // namespace dcs
