// E14 — §6 / [18]: remote-memory file-cache extension.
//
// Miss-penalty hierarchy and the effect of donated remote memory on a
// working set that exceeds the local page cache: remote hits replace
// ~5 ms disk accesses with ~10 us RDMA reads.
#include "cache/remote_pager.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "harness.hpp"

namespace {

using namespace dcs;
using cache::RemoteBlockCache;
using cache::RemotePagerConfig;

void print_penalty_table(bench::Harness& h) {
  auto tier = h.run("penalty", [](bench::Scenario& s) {
    auto& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 3, .mem_per_node = 16u << 20});
    verbs::Network net(fab);
    RemoteBlockCache pager(net, 0, {1, 2},
                           {.block_bytes = 16384, .local_capacity = 64 * 1024});
    eng.spawn([](RemoteBlockCache& c, sim::Engine& e,
                 bench::Scenario& out) -> sim::Task<void> {
      auto t0 = e.now();
      (void)co_await c.read_block(100);  // cold: disk
      out.metric("disk_ms", to_millis(e.now() - t0));
      // Fill local beyond capacity so block 100 lands in remote memory.
      for (std::uint64_t b = 0; b < 6; ++b) (void)co_await c.read_block(b);
      t0 = e.now();
      (void)co_await c.read_block(100);  // remote victim store
      out.metric("remote_us", to_micros(e.now() - t0));
      t0 = e.now();
      (void)co_await c.read_block(100);  // now local again
      out.metric("local_us", to_micros(e.now() - t0));
    }(pager, eng, s));
    eng.run();
  });

  Table table({"tier", "16 KB block read", "vs disk"});
  table.add_row({"local page cache", Table::fmt(tier["local_us"], 2) + " us",
                 "-"});
  table.add_row(
      {"remote memory (RDMA)", Table::fmt(tier["remote_us"], 2) + " us",
       Table::fmt(tier["disk_ms"] * 1000 / tier["remote_us"], 0) +
           "x faster"});
  table.add_row({"disk", Table::fmt(tier["disk_ms"], 2) + " ms", "1x"});
  table.print("Remote-memory file cache — miss-penalty hierarchy (§6/[18])");
}

/// Metrics: mean_read_us and disk_fraction.
void run_sweep(bench::Scenario& s, bool with_remote_memory) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 3, .mem_per_node = 32u << 20});
  verbs::Network net(fab);
  RemotePagerConfig config;
  config.block_bytes = 16384;
  config.local_capacity = 512 * 1024;  // 32 blocks
  config.remote_capacity_per_server =
      with_remote_memory ? (4u << 20) : config.block_bytes;  // ~0 if off
  RemoteBlockCache pager(net, 0, {1, 2}, config);

  eng.spawn([](RemoteBlockCache& c, sim::Engine& e,
               bench::Scenario& out) -> sim::Task<void> {
    // Zipf(0.8) over a 200-block (3.2 MB) working set: 6x local capacity.
    Rng rng(99);
    ZipfSampler zipf(200, 0.8);
    const auto t0 = e.now();
    constexpr int kReads = 1500;
    for (int i = 0; i < kReads; ++i) {
      (void)co_await c.read_block(zipf.sample(rng));
    }
    out.metric("mean_read_us", to_micros(e.now() - t0) / kReads);
  }(pager, eng, s));
  eng.run();
  s.metric("disk_fraction", static_cast<double>(pager.stats().disk_reads) /
                                static_cast<double>(pager.stats().total()));
}

void print_sweep_table(bench::Harness& h) {
  Table table({"configuration", "mean block read (us)", "disk-read fraction"});
  auto off = h.run("sweep/local-only",
                   [](bench::Scenario& s) { run_sweep(s, false); });
  auto on = h.run("sweep/remote-memory",
                  [](bench::Scenario& s) { run_sweep(s, true); });
  table.add_row({"local cache only", Table::fmt(off["mean_read_us"], 0),
                 Table::fmt(100 * off["disk_fraction"], 1) + " %"});
  table.add_row({"+ remote memory (2 donors)",
                 Table::fmt(on["mean_read_us"], 0),
                 Table::fmt(100 * on["disk_fraction"], 1) + " %"});
  table.print(
      "Zipf(0.8) over a working set 6x the local cache — donated remote "
      "memory absorbs the capacity misses");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::extract_harness_flags("remote_pager", argc, argv);
  bench::Harness h("remote_pager", opts);
  print_penalty_table(h);
  print_sweep_table(h);
  return h.finish();
}
