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

/// One get cell: `depth` allocations of `bytes` under `model`, homed on
/// the other node and written by the substrate owner, then read by
/// process `proc` on the owner's node: one warm-up read (temporal:
/// populates the cache), then 20 reads — get() of the first allocation,
/// or, when `batched`, one get_many over all of them (one doorbell,
/// pipelined wire, one coalesced completion).  Each read is a
/// trace::Request; latency samples and the get_us metric are per op (read
/// time / depth), so "get/<model>/batch=K" compares directly against the
/// serial "get/<model>/4096B" cell.
void get_cell(bench::Scenario& s, ddss::Coherence model, std::size_t bytes,
              std::size_t depth, bool batched, std::uint32_t proc = 0) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence m,
               std::size_t n, std::size_t k, bool use_batch,
               std::uint32_t process, bench::Scenario& out)
                -> sim::Task<void> {
    auto writer = d.client(0);
    auto reader = d.client(0, process);
    std::vector<std::byte> value(n, std::byte{1});
    std::vector<ddss::Allocation> allocs;
    allocs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      allocs.push_back(
          co_await writer.allocate(n, m, ddss::Placement::kRemote));
      co_await writer.put(allocs.back(), value);
    }
    std::vector<std::vector<std::byte>> bufs(k);
    std::vector<ddss::Client::GetOp> ops;
    ops.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      bufs[j].resize(n);
      ops.push_back({&allocs[j], bufs[j]});
    }
    if (use_batch) {
      co_await reader.get_many(ops);  // warm-up
    } else {
      co_await reader.get(allocs[0], bufs[0]);
    }
    constexpr int kIters = 20;
    const auto start = e.now();
    for (int i = 0; i < kIters; ++i) {
      const auto t0 = e.now();
      {
        trace::Request req(use_batch ? "ddss.get_many" : "ddss.get", 0,
                           static_cast<std::uint64_t>(i));
        if (use_batch) {
          co_await reader.get_many(ops);
        } else {
          co_await reader.get(allocs[0], bufs[0]);
        }
      }
      const double per_op =
          static_cast<double>(e.now() - t0) / static_cast<double>(k);
      for (std::size_t j = 0; j < k; ++j) out.latency_ns(per_op);
    }
    out.metric("get_us", to_micros(e.now() - start) / kIters /
                             static_cast<double>(k));
  }(eng, substrate, model, bytes, depth, batched, proc, s));
  eng.run();
  s.metric("get_bytes", static_cast<double>(bytes));
}

/// The serial get cell "get/<model>/<bytes>B", read by process `proc`
/// ("/proc=<proc>" appended when not the substrate owner).
double get_latency_us(bench::Harness& h, ddss::Coherence model,
                      std::size_t bytes, std::uint32_t proc = 0) {
  std::string name = std::string("get/") + ddss::to_string(model) + "/" +
                     std::to_string(bytes) + "B";
  if (proc != 0) name += "/proc=" + std::to_string(proc);
  return h.run(name, [&](bench::Scenario& s) {
    get_cell(s, model, bytes, 1, false, proc);
  })["get_us"];
}

void print_get_table(bench::Harness& h) {
  std::vector<std::string> header = {"msg size"};
  for (const auto m : kModels) header.push_back(ddss::to_string(m));
  Table table(header);
  for (const std::size_t size : {64ul, 4096ul, 65536ul}) {
    std::vector<double> row;
    for (const auto m : kModels) row.push_back(get_latency_us(h, m, size));
    table.add_row(std::to_string(size) + " B", row, 2);
  }
  table.print(
      "DDSS get() latency (us) per coherence model "
      "(Temporal ~0: served from the local TTL cache)");
}

void print_ipc_table(bench::Harness& h) {
  Table table({"accessor", "get latency (us)", "overhead"});
  const double owner = get_latency_us(h, ddss::Coherence::kNull, 1024, 0);
  const double other = get_latency_us(h, ddss::Coherence::kNull, 1024, 7);
  table.add_row({"substrate-owner process", Table::fmt(owner, 2), "-"});
  table.add_row({"other local process (IPC hop)", Table::fmt(other, 2),
                 "+" + Table::fmt(other - owner, 2) + " us"});
  table.print("DDSS IPC management — per-op cost of process virtualization");
}

void print_placement_table(bench::Harness& h) {
  Table table({"policy", "allocation latency (us)", "homes used (of 4)"});
  for (const auto policy :
       {ddss::Placement::kLocal, ddss::Placement::kRemote,
        ddss::Placement::kRoundRobin, ddss::Placement::kLeastLoaded}) {
    const char* name = policy == ddss::Placement::kLocal      ? "local"
                       : policy == ddss::Placement::kRemote   ? "remote"
                       : policy == ddss::Placement::kRoundRobin
                           ? "round-robin"
                           : "least-loaded";
    auto r = h.run(std::string("placement/") + name, [&](bench::Scenario& s) {
      auto& eng = s.engine();
      fabric::Fabric fab(eng, fabric::FabricParams{},
                         {.num_nodes = 4, .mem_per_node = 4u << 20});
      verbs::Network net(fab);
      ddss::Ddss substrate(net);
      substrate.start();
      eng.spawn([](ddss::Ddss& d, sim::Engine& e, ddss::Placement p,
                   bench::Scenario& out) -> sim::Task<void> {
        auto c = d.client(0);
        const auto t0 = e.now();
        std::set<fabric::NodeId> homes;
        for (int i = 0; i < 12; ++i) {
          auto a = co_await c.allocate(4096, ddss::Coherence::kNull, p);
          homes.insert(a.home);
        }
        out.metric("alloc_us", to_micros(e.now() - t0) / 12);
        out.metric("homes", static_cast<double>(homes.size()));
      }(substrate, eng, policy, s));
      eng.run();
    });
    table.add_row({name, Table::fmt(r["alloc_us"], 1),
                   Table::fmt(r["homes"], 0)});
  }
  table.print("DDSS data placement policies — allocation cost and spread");
}

void print_aggregator_table(bench::Harness& h) {
  Table table({"extent layout", "1 MB read (us)", "effective GB/s"});
  for (const bool striped : {false, true}) {
    const char* name = striped ? "aggregator/striped" : "aggregator/linear";
    const double us = h.run(name, [&](bench::Scenario& s) {
      auto& eng = s.engine();
      fabric::Fabric fab(eng, fabric::FabricParams{},
                         {.num_nodes = 5, .mem_per_node = 4u << 20});
      verbs::Network net(fab);
      ddss::GlobalAggregator agg(net, {1, 2, 3, 4},
                                 {.stripe_bytes = 64 * 1024});
      eng.spawn([](ddss::GlobalAggregator& a, sim::Engine& e, bool st,
                   bench::Scenario& out) -> sim::Task<void> {
        auto extent = co_await a.allocate(1u << 20, st);
        std::vector<std::byte> buf(1u << 20);
        const auto t0 = e.now();
        co_await a.read(0, extent, 0, buf);
        out.metric("read_us", to_micros(e.now() - t0));
        co_await a.release(std::move(extent));
      }(agg, eng, striped, s));
      eng.run();
    })["read_us"];
    table.add_row({striped ? "striped (64 KB across 4 donors)" : "linear",
                   Table::fmt(us, 1),
                   Table::fmt((1.0 / 1024.0) / (us * 1e-6), 2)});
  }
  table.print(
      "Global memory aggregator — striping turns capacity aggregation into "
      "bandwidth aggregation");
}

// Batched sweep (--batch N picks the max depth) of 4 KB gets, then the
// Zipf attribution scenario.
void print_get_sweep_table(bench::Harness& h, std::size_t max_batch) {
  const std::size_t first = h.scenarios();
  for (const auto model : {ddss::Coherence::kNull, ddss::Coherence::kWrite,
                           ddss::Coherence::kRead}) {
    for (const std::size_t depth : bench::batch_sweep(max_batch)) {
      h.run(std::string("get/") + ddss::to_string(model) + "/batch=" +
                std::to_string(depth),
            [&](bench::Scenario& s) {
              s.batch_depth(depth);
              get_cell(s, model, 4096, depth, true);
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
  h.print_table(
      "4096 B get_many (latency amortized per op) and Zipf(0.9) 512 B gets",
      first);
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessOptions opts;
  flags::Table("bench_ddss_ops", "DDSS operation microbenchmarks",
               bench::harness_flags(opts))
      .add(bench::harness_flags(opts, {"--batch"}))
      .parse(argc, argv);
  bench::Harness h("ddss_ops", opts);
  print_get_table(h);
  print_ipc_table(h);
  print_placement_table(h);
  print_aggregator_table(h);
  print_get_sweep_table(h, opts.batch);
  return h.finish();
}
