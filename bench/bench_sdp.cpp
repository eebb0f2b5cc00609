// E10 — Section 3: SDP family throughput (buffered-copy SDP vs synchronous
// zero-copy ZSDP vs asynchronous zero-copy AZ-SDP).
//
// Paper shape ([3]): buffered copies win for small messages (registration
// and rendezvous overheads dominate zero-copy); zero-copy wins large;
// AZ-SDP's overlapped transfers beat blocking ZSDP throughout, approaching
// the claimed ~2x at intermediate sizes.
#include "common/table.hpp"
#include "datacenter/backend.hpp"
#include "harness.hpp"
#include "sockets/sdp.hpp"

namespace {

using namespace dcs;
using sockets::SdpMode;
using sockets::SdpStream;

/// One stream cell: `count` messages of `msg_bytes` from node 0 to node 1,
/// each send wrapped in a trace::Request so credit stalls and NIC time are
/// attributed per message.
void stream_cell(bench::Scenario& s, SdpMode mode, std::size_t msg_bytes,
                 int count) {
  auto& eng = s.engine();
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  SdpStream stream(net, 0, 1, mode);
  eng.spawn([](sim::Engine& e, SdpStream& st, std::size_t m, int n,
               bench::Scenario& out) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      const auto t0 = e.now();
      {
        trace::Request req("sdp.send", 0, static_cast<std::uint64_t>(i));
        co_await st.send(std::vector<std::byte>(m));
      }
      out.latency_ns(static_cast<double>(e.now() - t0));
    }
    co_await st.flush();
  }(eng, stream, msg_bytes, count, s));
  eng.spawn([](SdpStream& st, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) (void)co_await st.recv();
  }(stream, count));
  eng.run();
  s.metric("MB_per_s", static_cast<double>(msg_bytes) * count /
                           to_secs(eng.now()) / 1e6);
}

double throughput_mbps(bench::Harness& h, SdpMode mode, std::size_t msg_bytes,
                       int count) {
  const std::string name = "throughput/" + std::to_string(msg_bytes / 1024) +
                           "K/" + to_string(mode);
  return h.run(name, [&](bench::Scenario& s) {
    stream_cell(s, mode, msg_bytes, count);
  })["MB_per_s"];
}

const std::vector<std::size_t> kSizes = {1024,  4096,   16384,
                                         65536, 131072, 262144};

void print_table(bench::Harness& h) {
  Table table({"msg size", "SDP (MB/s)", "ZSDP (MB/s)", "AZ-SDP (MB/s)",
               "AZ vs Z"});
  for (const std::size_t size : kSizes) {
    const int count = size >= 65536 ? 40 : 200;
    const double sdp = throughput_mbps(h, SdpMode::kBufferedCopy, size, count);
    const double zsdp = throughput_mbps(h, SdpMode::kZeroCopy, size, count);
    const double az = throughput_mbps(h, SdpMode::kAsyncZeroCopy, size, count);
    table.add_row({std::to_string(size / 1024) + "K", Table::fmt(sdp, 1),
                   Table::fmt(zsdp, 1), Table::fmt(az, 1),
                   Table::fmt(az / zsdp, 2) + "x"});
  }
  table.print(
      "Section 3 — SDP / ZSDP / AZ-SDP stream throughput "
      "(paper [3]: AZ-SDP up to ~2x over blocking zero-copy)");
}

// [5] "SDP over InfiniBand in clusters: is it beneficial?" — the same
// question at data-center level: proxies fetch documents from the backend
// tier over host-TCP vs the SDP-style verbs transport.
void print_datacenter_table(bench::Harness& h) {
  Table table({"tier transport", "fetch latency (us)",
               "backend comm CPU/fetch (us)"});
  for (const auto transport : {datacenter::BackendTransport::kTcp,
                               datacenter::BackendTransport::kSdp}) {
    const char* label = transport == datacenter::BackendTransport::kTcp
                            ? "host TCP"
                            : "SDP (verbs)";
    auto r = h.run(std::string("tier/") + label, [&](bench::Scenario& s) {
      auto& eng = s.engine();
      fabric::Fabric fab(eng, fabric::FabricParams{},
                         {.num_nodes = 4, .cores_per_node = 2});
      verbs::Network net(fab);
      sockets::TcpNetwork tcp(fab);
      datacenter::DocumentStore store({.num_docs = 64, .doc_bytes = 16384});
      datacenter::BackendService backend(tcp, net, store, {3},
                                         {.transport = transport});
      backend.start();
      constexpr int kFetches = 40;
      eng.spawn([](datacenter::BackendService& b) -> sim::Task<void> {
        for (datacenter::DocId d = 0; d < kFetches; ++d) {
          (void)co_await b.fetch(1, d);
        }
      }(backend));
      eng.run();
      // Generation work is transport-independent: subtract it to isolate
      // the communication CPU.
      const double gen_us = 150.0 + 16384.0 / 0.4 / 1000.0;
      s.metric("fetch_us", to_micros(eng.now()) / kFetches);
      s.metric("comm_cpu_us",
               to_micros(fab.node(3).busy_ns()) / kFetches - gen_us);
    });
    table.add_row({label, Table::fmt(r["fetch_us"], 1),
                   Table::fmt(r["comm_cpu_us"], 1)});
  }
  table.print(
      "[5] data-center tier transport — per-fetch latency and backend "
      "communication CPU (16 KB documents)");
}

// One fixed 32 KB stream per SDP mode, at the size the throughput table
// skips.
void print_stream_table(bench::Harness& h) {
  const std::size_t first = h.scenarios();
  for (const auto mode :
       {SdpMode::kBufferedCopy, SdpMode::kZeroCopy, SdpMode::kAsyncZeroCopy}) {
    h.run(std::string("stream/") + to_string(mode),
          [mode](bench::Scenario& s) {
            stream_cell(s, mode, 32768, 16);
            s.metric("msgs", 16);
            s.metric("msg_bytes", 32768);
          });
  }
  h.print_table("SDP streams of 16 x 32 KB messages, one request per send",
                first);
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessOptions opts;
  flags::Table("bench_sdp", "E10: SDP, ZSDP and AZ-SDP throughput",
               bench::harness_flags(opts)).parse(argc, argv);
  bench::Harness h("sdp", opts);
  print_table(h);
  print_datacenter_table(h);
  print_stream_table(h);
  return h.finish();
}
