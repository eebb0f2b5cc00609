// E1 — Figure 3a: DDSS put() latency per coherence model vs message size.
//
// Paper shape: Null cheapest (one RDMA write); Read/Version add a version
// bump; Write adds lock+unlock; Strict adds lock+version+unlock (most
// expensive); Delta pays a head read + slot write + head bump.  1-byte puts
// land in the tens of microseconds.
#include "common/table.hpp"
#include "ddss/ddss.hpp"
#include "harness.hpp"
#include "trace/observe.hpp"

namespace {

using namespace dcs;

const std::vector<ddss::Coherence> kModels = {
    ddss::Coherence::kNull,   ddss::Coherence::kRead,
    ddss::Coherence::kWrite,  ddss::Coherence::kStrict,
    ddss::Coherence::kVersion, ddss::Coherence::kDelta,
};

const std::vector<std::size_t> kSizes = {1, 64, 1024, 4096, 16384, 65536};

/// Mean put latency (µs) for `model` at `bytes`, writer on a non-home node.
double put_latency_us(ddss::Coherence model, std::size_t bytes) {
  sim::Engine eng;
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  double total_us = 0;
  constexpr int kIters = 20;
  eng.spawn([](ddss::Ddss& d, sim::Engine& e, ddss::Coherence m,
               std::size_t n, double& out) -> sim::Task<void> {
    auto client = d.client(0);
    auto alloc =
        co_await client.allocate(n, m, ddss::Placement::kRemote);
    std::vector<std::byte> value(n, std::byte{0x5A});
    co_await client.put(alloc, value);  // warm-up (delta ring head, etc.)
    const auto t0 = e.now();
    for (int i = 0; i < kIters; ++i) co_await client.put(alloc, value);
    out = to_micros(e.now() - t0) / kIters;
  }(substrate, eng, model, bytes, total_us));
  eng.run();
  return total_us;
}

void print_fig3a() {
  std::vector<std::string> header = {"msg size"};
  for (const auto m : kModels) header.push_back(ddss::to_string(m));
  Table table(header);
  for (const std::size_t size : kSizes) {
    std::vector<double> row;
    for (const auto m : kModels) row.push_back(put_latency_us(m, size));
    table.add_row(std::to_string(size) + " B", row, 2);
  }
  table.print(
      "Figure 3a — DDSS put() latency (us) per coherence model "
      "(paper: 1-byte ~tens of us, Strict most expensive)");
}

// Observed mode (`--trace-out` / `--metrics-out`): one deterministic
// engine running allocate / put / get / release under every coherence
// model, so the trace shows how each model decomposes into verbs ops.
// Two invocations produce byte-identical files.
int run_observed(const trace::ObserveOptions& opts) {
  sim::Engine eng;
  trace::ObservedRun observed(eng, opts);
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 2, .mem_per_node = 4u << 20});
  verbs::Network net(fab);
  ddss::Ddss substrate(net);
  substrate.start();
  eng.spawn([](ddss::Ddss& d) -> sim::Task<void> {
    auto client = d.client(0);
    constexpr std::size_t kBytes = 4096;
    std::vector<std::byte> value(kBytes, std::byte{0x5A});
    std::vector<std::byte> buf(kBytes);
    for (const auto model : kModels) {
      auto alloc = co_await client.allocate(kBytes, model,
                                            ddss::Placement::kRemote);
      for (int i = 0; i < 4; ++i) {
        co_await client.put(alloc, value);
        co_await client.get(alloc, buf);
      }
      co_await client.release(alloc);
    }
  }(substrate));
  eng.run();
  return 0;
}

// Harnessed scenarios (docs/BENCHMARKS.md): 4 KB puts under every
// coherence model, each put a trace::Request so the verbs decomposition
// (lock, version bump, data write) is attributed per model.
int run_harness(const bench::HarnessOptions& opts) {
  bench::Harness h("ddss_latency", opts);
  for (const auto model : kModels) {
    h.run(std::string("put/") + ddss::to_string(model),
          [model](bench::Scenario& s) {
            auto& eng = s.engine();
            fabric::Fabric fab(eng, fabric::FabricParams{},
                               {.num_nodes = 2, .mem_per_node = 4u << 20});
            verbs::Network net(fab);
            ddss::Ddss substrate(net);
            substrate.start();
            eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence m,
                         bench::Scenario& out) -> sim::Task<void> {
              auto client = d.client(0);
              constexpr std::size_t kBytes = 4096;
              auto alloc = co_await client.allocate(
                  kBytes, m, ddss::Placement::kRemote);
              std::vector<std::byte> value(kBytes, std::byte{0x5A});
              co_await client.put(alloc, value);  // warm-up
              constexpr int kIters = 20;
              for (int i = 0; i < kIters; ++i) {
                const auto t0 = e.now();
                {
                  trace::Request req("ddss.put", 0,
                                     static_cast<std::uint64_t>(i));
                  co_await client.put(alloc, value);
                }
                out.latency_ns(static_cast<double>(e.now() - t0));
              }
            }(eng, substrate, model, s));
            eng.run();
            s.metric("put_bytes", 4096);
          });
  }
  // Batched sweep (--batch N picks the max depth): K puts to K distinct
  // same-home allocations ride one put_many call — one doorbell, pipelined
  // wire, one coalesced completion.  Latency samples are amortized per op
  // (batch time / K) so the sweep compares directly against the serial
  // put/<model> scenarios above.  Only doorbell-batchable models sweep;
  // lock-based models fall back to serial inside put_many.
  for (const auto model : {ddss::Coherence::kNull, ddss::Coherence::kRead,
                           ddss::Coherence::kVersion}) {
    for (const std::size_t depth : bench::batch_sweep(opts.batch)) {
      h.run(std::string("put/") + ddss::to_string(model) + "/batch=" +
                std::to_string(depth),
            [model, depth](bench::Scenario& s) {
              s.batch_depth(depth);
              auto& eng = s.engine();
              fabric::Fabric fab(eng, fabric::FabricParams{},
                                 {.num_nodes = 2, .mem_per_node = 4u << 20});
              verbs::Network net(fab);
              ddss::Ddss substrate(net);
              substrate.start();
              eng.spawn([](sim::Engine& e, ddss::Ddss& d, ddss::Coherence m,
                           std::size_t k,
                           bench::Scenario& out) -> sim::Task<void> {
                auto client = d.client(0);
                constexpr std::size_t kBytes = 4096;
                std::vector<ddss::Allocation> allocs;
                allocs.reserve(k);
                for (std::size_t j = 0; j < k; ++j) {
                  allocs.push_back(co_await client.allocate(
                      kBytes, m, ddss::Placement::kRemote));
                }
                std::vector<std::byte> value(kBytes, std::byte{0x5A});
                std::vector<ddss::Client::PutOp> ops;
                ops.reserve(k);
                for (const auto& a : allocs) ops.push_back({&a, value});
                co_await client.put_many(ops);  // warm-up
                constexpr int kIters = 20;
                for (int i = 0; i < kIters; ++i) {
                  const auto t0 = e.now();
                  {
                    trace::Request req("ddss.put_many", 0,
                                       static_cast<std::uint64_t>(i));
                    co_await client.put_many(ops);
                  }
                  const double per_op =
                      static_cast<double>(e.now() - t0) / static_cast<double>(k);
                  for (std::size_t j = 0; j < k; ++j) out.latency_ns(per_op);
                }
              }(eng, substrate, model, depth, s));
              eng.run();
              s.metric("put_bytes", 4096);
              s.metric("batch_depth", static_cast<double>(depth));
            });
    }
  }
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::extract_harness_flags(argc, argv);
  if (flags.harness_mode()) return run_harness(flags);
  if (flags.observe_mode()) return run_observed(flags.observe("ddss_latency"));
  print_fig3a();
  return 0;
}
