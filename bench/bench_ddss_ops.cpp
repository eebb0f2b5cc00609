// DDSS operation microbenchmarks beyond Figure 3a: get() latency per
// coherence model, the IPC-virtualization overhead, placement policies,
// and the global memory aggregator's striping bandwidth.
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "ddss/aggregator.hpp"
#include "ddss/ddss.hpp"
#include "harness.hpp"

namespace {

using namespace dcs;

const std::vector<ddss::Coherence> kModels = {
    ddss::Coherence::kNull,    ddss::Coherence::kRead,
    ddss::Coherence::kWrite,   ddss::Coherence::kStrict,
    ddss::Coherence::kVersion, ddss::Coherence::kDelta,
    ddss::Coherence::kTemporal};

double get_latency_us(ddss::Coherence model, std::size_t bytes,
                      std::uint32_t process_id = 0) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  double out = 0;
  eng.spawn([](ddss::Ddss& d, sim::Engine& e, ddss::Coherence m,
               std::size_t n, std::uint32_t proc, double& us)
                -> sim::Task<void> {
    auto writer = d.client(0);
    auto reader = d.client(0, proc);
    auto a = co_await writer.allocate(n, m, ddss::Placement::kRemote);
    std::vector<std::byte> v(n, std::byte{1});
    co_await writer.put(a, v);
    std::vector<std::byte> buf(n);
    co_await reader.get(a, buf);  // warm (temporal: populates the cache)
    const auto t0 = e.now();
    constexpr int kIters = 20;
    for (int i = 0; i < kIters; ++i) co_await reader.get(a, buf);
    us = to_micros(e.now() - t0) / kIters;
  }(substrate, eng, model, bytes, process_id, out));
  eng.run();
  return out;
}

void print_get_table() {
  std::vector<std::string> header = {"msg size"};
  for (const auto m : kModels) header.push_back(ddss::to_string(m));
  Table table(header);
  for (const std::size_t size : {64ul, 4096ul, 65536ul}) {
    std::vector<double> row;
    for (const auto m : kModels) row.push_back(get_latency_us(m, size));
    table.add_row(std::to_string(size) + " B", row, 2);
  }
  table.print(
      "DDSS get() latency (us) per coherence model "
      "(Temporal ~0: served from the local TTL cache)");
}

void print_ipc_table() {
  Table table({"accessor", "get latency (us)", "overhead"});
  const double owner = get_latency_us(ddss::Coherence::kNull, 1024, 0);
  const double other = get_latency_us(ddss::Coherence::kNull, 1024, 7);
  table.add_row({"substrate-owner process", Table::fmt(owner, 2), "-"});
  table.add_row({"other local process (IPC hop)", Table::fmt(other, 2),
                 "+" + Table::fmt(other - owner, 2) + " us"});
  table.print("DDSS IPC management — per-op cost of process virtualization");
}

void print_placement_table() {
  Table table({"policy", "allocation latency (us)", "homes used (of 4)"});
  for (const auto policy :
       {ddss::Placement::kLocal, ddss::Placement::kRemote,
        ddss::Placement::kRoundRobin, ddss::Placement::kLeastLoaded}) {
    sim::Engine eng;
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 4, .mem_per_node = 4u << 20});
    verbs::Network net(fab);
    ddss::Ddss substrate(net);
    substrate.start();
    double us = 0;
    std::set<fabric::NodeId> homes;
    eng.spawn([](ddss::Ddss& d, sim::Engine& e, ddss::Placement p,
                 double& lat, std::set<fabric::NodeId>& hs)
                  -> sim::Task<void> {
      auto c = d.client(0);
      const auto t0 = e.now();
      for (int i = 0; i < 12; ++i) {
        auto a = co_await c.allocate(4096, ddss::Coherence::kNull, p);
        hs.insert(a.home);
      }
      lat = to_micros(e.now() - t0) / 12;
    }(substrate, eng, policy, us, homes));
    eng.run();
    const char* name = policy == ddss::Placement::kLocal      ? "local"
                       : policy == ddss::Placement::kRemote   ? "remote"
                       : policy == ddss::Placement::kRoundRobin
                           ? "round-robin"
                           : "least-loaded";
    table.add_row({name, Table::fmt(us, 1), std::to_string(homes.size())});
  }
  table.print("DDSS data placement policies — allocation cost and spread");
}

void print_aggregator_table() {
  Table table({"extent layout", "1 MB read (us)", "effective GB/s"});
  for (const bool striped : {false, true}) {
    sim::Engine eng;
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 5, .mem_per_node = 4u << 20});
    verbs::Network net(fab);
    ddss::GlobalAggregator agg(net, {1, 2, 3, 4}, {.stripe_bytes = 64 * 1024});
    double us = 0;
    eng.spawn([](ddss::GlobalAggregator& a, sim::Engine& e, bool s,
                 double& lat) -> sim::Task<void> {
      auto extent = co_await a.allocate(1u << 20, s);
      std::vector<std::byte> buf(1u << 20);
      const auto t0 = e.now();
      co_await a.read(0, extent, 0, buf);
      lat = to_micros(e.now() - t0);
      co_await a.release(std::move(extent));
    }(agg, eng, striped, us));
    eng.run();
    table.add_row({striped ? "striped (64 KB across 4 donors)" : "linear",
                   Table::fmt(us, 1),
                   Table::fmt((1.0 / 1024.0) / (us * 1e-6), 2)});
  }
  table.print(
      "Global memory aggregator — striping turns capacity aggregation into "
      "bandwidth aggregation");
}

// Harnessed scenarios (docs/BENCHMARKS.md): serial 4 KB gets per coherence
// model, then a batched sweep (--batch N picks the max depth) where K gets
// of K distinct same-home allocations ride one get_many call — one
// doorbell, pipelined wire, one coalesced completion.  Batched latency
// samples are amortized per op (batch time / K) so "get/<model>/batch=K"
// compares directly against "get/<model>".
int run_harness(const bench::HarnessOptions& opts) {
  bench::Harness h("ddss_ops", opts);
  const auto setup = [](bench::Scenario& s, ddss::Coherence m, std::size_t k,
                        bool batched) {
    auto& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 2, .mem_per_node = 4u << 20});
    verbs::Network net(fab);
    ddss::Ddss substrate(net);
    substrate.start();
    eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence model,
                 std::size_t depth, bool use_batch,
                 bench::Scenario& out) -> sim::Task<void> {
      auto client = d.client(0);
      constexpr std::size_t kBytes = 4096;
      std::vector<std::byte> value(kBytes, std::byte{1});
      std::vector<ddss::Allocation> allocs;
      allocs.reserve(depth);
      for (std::size_t j = 0; j < depth; ++j) {
        allocs.push_back(co_await client.allocate(kBytes, model,
                                                  ddss::Placement::kRemote));
        co_await client.put(allocs.back(), value);
      }
      std::vector<std::vector<std::byte>> bufs(depth);
      std::vector<ddss::Client::GetOp> ops;
      ops.reserve(depth);
      for (std::size_t j = 0; j < depth; ++j) {
        bufs[j].resize(kBytes);
        ops.push_back({&allocs[j], bufs[j]});
      }
      co_await client.get_many(ops);  // warm-up
      constexpr int kIters = 20;
      for (int i = 0; i < kIters; ++i) {
        const auto t0 = e.now();
        {
          trace::Request req(use_batch ? "ddss.get_many" : "ddss.get", 0,
                             static_cast<std::uint64_t>(i));
          if (use_batch) {
            co_await client.get_many(ops);
          } else {
            co_await client.get(allocs[0], bufs[0]);
          }
        }
        const double per_op = static_cast<double>(e.now() - t0) /
                              static_cast<double>(depth);
        for (std::size_t j = 0; j < depth; ++j) out.latency_ns(per_op);
      }
    }(eng, substrate, m, k, batched, s));
    eng.run();
    s.metric("get_bytes", 4096);
  };
  for (const auto model : kModels) {
    h.run(std::string("get/") + ddss::to_string(model),
          [&](bench::Scenario& s) { setup(s, model, 1, false); });
  }
  for (const auto model : {ddss::Coherence::kNull, ddss::Coherence::kWrite,
                           ddss::Coherence::kRead}) {
    for (const std::size_t depth : bench::batch_sweep(opts.batch)) {
      h.run(std::string("get/") + ddss::to_string(model) + "/batch=" +
                std::to_string(depth),
            [&](bench::Scenario& s) {
              s.batch_depth(depth);
              setup(s, model, depth, true);
              s.metric("batch_depth", static_cast<double>(depth));
            });
    }
  }
  // Zipf-keyed gets over a 64-object working set: the attribution scenario.
  // Under --hotset-out / --hot-keys the harness arms the ambient hot sink,
  // so the DCS_HOT("ddss.object", ...) sites inside the substrate's get
  // path feed the top-K sketch — low Zipf ranks must dominate it.
  h.run("get/zipf", [&](bench::Scenario& s) {
    auto& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 2, .mem_per_node = 4u << 20});
    verbs::Network net(fab);
    ddss::Ddss substrate(net);
    substrate.start();
    eng.spawn([](sim::Engine& e, ddss::Ddss& d,
                 bench::Scenario& out) -> sim::Task<void> {
      auto client = d.client(0);
      constexpr std::size_t kBytes = 512;
      constexpr std::size_t kObjects = 64;
      std::vector<std::byte> value(kBytes, std::byte{1});
      std::vector<ddss::Allocation> allocs;
      allocs.reserve(kObjects);
      for (std::size_t j = 0; j < kObjects; ++j) {
        allocs.push_back(co_await client.allocate(
            kBytes, ddss::Coherence::kWrite, ddss::Placement::kRemote));
        co_await client.put(allocs.back(), value);
      }
      Rng rng(7);
      ZipfSampler zipf(kObjects, 0.9);
      std::vector<std::byte> buf(kBytes);
      constexpr int kOps = 200;
      for (int i = 0; i < kOps; ++i) {
        const auto rank = zipf.sample(rng);
        const auto t0 = e.now();
        {
          trace::Request req("ddss.get", 0, static_cast<std::uint64_t>(i));
          co_await client.get(allocs[rank], buf);
        }
        out.latency_ns(static_cast<double>(e.now() - t0));
      }
    }(eng, substrate, s));
    eng.run();
    s.zipf_alpha(0.9);
    s.metric("get_bytes", 512);
  });
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::extract_harness_flags(argc, argv);
  if (flags.harness_mode()) return run_harness(flags);
  print_get_table();
  print_ipc_table();
  print_placement_table();
  print_aggregator_table();
  return 0;
}
