// E1 — Figure 3a: DDSS put() latency per coherence model vs message size.
//
// Paper shape: Null cheapest (one RDMA write); Read/Version add a version
// bump; Write adds lock+unlock; Strict adds lock+version+unlock (most
// expensive); Delta pays a head read + slot write + head bump.  1-byte puts
// land in the tens of microseconds.
#include "common/table.hpp"
#include "ddss/ddss.hpp"
#include "harness.hpp"

namespace {

using namespace dcs;

const std::vector<ddss::Coherence> kModels = {
    ddss::Coherence::kNull,   ddss::Coherence::kRead,
    ddss::Coherence::kWrite,  ddss::Coherence::kStrict,
    ddss::Coherence::kVersion, ddss::Coherence::kDelta,
};

const std::vector<std::size_t> kSizes = {1, 64, 1024, 4096, 16384, 65536};

/// The put size of the serial baseline the batch sweep compares against;
/// its Figure 3a cells keep the plain names put/<model>.
constexpr std::size_t kSerialBytes = 4096;

/// One put cell, writer on a non-home node: `depth` allocations of `bytes`
/// under `model`, one warm-up write (delta ring head, etc.), then 20
/// writes — put() to the first allocation, or, when `batched`, one
/// put_many over all of them (one doorbell, pipelined wire, one coalesced
/// completion).  Each write is a trace::Request, so the verbs
/// decomposition (lock, version bump, data write) is attributed per model.
/// Latency samples and the put_us metric are per op (write time / depth).
void put_cell(bench::Scenario& s, ddss::Coherence model, std::size_t bytes,
              std::size_t depth, bool batched) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence m,
               std::size_t n, std::size_t k, bool use_batch,
               bench::Scenario& out) -> sim::Task<void> {
    auto client = d.client(0);
    std::vector<ddss::Allocation> allocs;
    allocs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      allocs.push_back(
          co_await client.allocate(n, m, ddss::Placement::kRemote));
    }
    std::vector<std::byte> value(n, std::byte{0x5A});
    std::vector<ddss::Client::PutOp> ops;
    ops.reserve(k);
    for (const auto& a : allocs) ops.push_back({&a, value});
    if (use_batch) {
      co_await client.put_many(ops);  // warm-up
    } else {
      co_await client.put(allocs[0], value);
    }
    constexpr int kIters = 20;
    const auto start = e.now();
    for (int i = 0; i < kIters; ++i) {
      const auto t0 = e.now();
      {
        trace::Request req(use_batch ? "ddss.put_many" : "ddss.put", 0,
                           static_cast<std::uint64_t>(i));
        if (use_batch) {
          co_await client.put_many(ops);
        } else {
          co_await client.put(allocs[0], value);
        }
      }
      const double per_op =
          static_cast<double>(e.now() - t0) / static_cast<double>(k);
      for (std::size_t j = 0; j < k; ++j) out.latency_ns(per_op);
    }
    out.metric("put_us", to_micros(e.now() - start) / kIters /
                             static_cast<double>(k));
  }(eng, substrate, model, bytes, depth, batched, s));
  eng.run();
  s.metric("put_bytes", static_cast<double>(bytes));
}

void print_fig3a(bench::Harness& h) {
  std::vector<std::string> header = {"msg size"};
  for (const auto m : kModels) header.push_back(ddss::to_string(m));
  Table table(header);
  for (const std::size_t size : kSizes) {
    std::vector<double> row;
    for (const auto m : kModels) {
      std::string name = std::string("put/") + ddss::to_string(m);
      if (size != kSerialBytes) name += "/" + std::to_string(size) + "B";
      row.push_back(h.run(name, [&](bench::Scenario& s) {
        put_cell(s, m, size, 1, false);
      })["put_us"]);
    }
    table.add_row(std::to_string(size) + " B", row, 2);
  }
  table.print(
      "Figure 3a — DDSS put() latency (us) per coherence model "
      "(paper: 1-byte ~tens of us, Strict most expensive)");
}

// Batched sweep (--batch N picks the max depth): K puts to K distinct
// same-home allocations ride one put_many call, compared against the
// serial put/<model> cells.  Only doorbell-batchable models sweep;
// lock-based models fall back to serial inside put_many.
void print_batch_table(bench::Harness& h, std::size_t max_batch) {
  const std::size_t first = h.scenarios();
  for (const auto model : {ddss::Coherence::kNull, ddss::Coherence::kRead,
                           ddss::Coherence::kVersion}) {
    for (const std::size_t depth : bench::batch_sweep(max_batch)) {
      h.run(std::string("put/") + ddss::to_string(model) + "/batch=" +
                std::to_string(depth),
            [&](bench::Scenario& s) {
              s.batch_depth(depth);
              put_cell(s, model, kSerialBytes, depth, true);
              s.metric("batch_depth", static_cast<double>(depth));
            });
    }
  }
  h.print_table("Batched 4096 B puts — put_many, latency amortized per op",
                first);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::extract_harness_flags("ddss_latency", argc, argv,
                                                 /*sweeps_batches=*/true);
  bench::Harness h("ddss_latency", opts);
  print_fig3a(h);
  print_batch_table(h, opts.batch);
  return h.finish();
}
