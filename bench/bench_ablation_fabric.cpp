// Ablations over the fabric cost model (DESIGN.md §6): how sensitive are
// the paper's headline results to the simulator's calibration constants?
//
//   A1  remote-atomic latency x{0.5,1,2,4}  -> N-CoSED shared-cascade
//       latency and DDSS strict put (the one-sided designs' critical path)
//   A2  host memcpy rate sweep              -> the SDP buffered/zero-copy
//       crossover point (which scheme wins at 16 KB)
//   A3  TCP per-message kernel cost sweep   -> socket-monitor latency vs
//       the (unaffected) RDMA monitor
//
// The claim being validated: orderings are robust across a 8x parameter
// range; only magnitudes move.
#include <memory>

#include "common/table.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "harness.hpp"
#include "monitor/monitor.hpp"
#include "sockets/sdp.hpp"

namespace {

using namespace dcs;

// --- A1: atomic latency ----------------------------------------------------

double ncosed_shared_cascade_us(bench::Harness& h, double atomic_scale) {
  const std::string name =
      "a1/x" + Table::fmt(atomic_scale, 1) + "/ncosed-cascade";
  return h.run(name, [&](bench::Scenario& s) {
    fabric::FabricParams params;
    params.atomic_execute =
        static_cast<SimNanos>(params.atomic_execute * atomic_scale);
    auto& eng = s.engine();
    fabric::Fabric fab(eng, params, {.num_nodes = 12, .cores_per_node = 2});
    verbs::Network net(fab);
    dlm::NcosedLockManager mgr(net, 0);
    SimNanos release_at = 0, last_grant = 0;
    int granted = 0;
    eng.spawn([](sim::Engine& e, dlm::LockManager& m, SimNanos& rel)
                  -> sim::Task<void> {
      co_await m.lock_exclusive(1, 0);
      co_await e.delay(milliseconds(1));
      rel = e.now();
      co_await m.unlock(1, 0);
    }(eng, mgr, release_at));
    for (int i = 0; i < 8; ++i) {
      eng.spawn([](sim::Engine& e, dlm::LockManager& m, fabric::NodeId self,
                   int& g, SimNanos& last) -> sim::Task<void> {
        co_await e.delay(microseconds(50 + 5 * self));
        co_await m.lock_shared(self, 0);
        ++g;
        last = std::max(last, e.now());
        co_await m.unlock(self, 0);
      }(eng, mgr, static_cast<fabric::NodeId>(2 + i), granted, last_grant));
    }
    eng.run();
    DCS_CHECK(granted == 8);
    s.metric("us", to_micros(last_grant - release_at));
  })["us"];
}

double ddss_strict_put_us(bench::Harness& h, double atomic_scale) {
  const std::string name =
      "a1/x" + Table::fmt(atomic_scale, 1) + "/ddss-strict-put";
  return h.run(name, [&](bench::Scenario& s) {
    fabric::FabricParams params;
    params.atomic_execute =
        static_cast<SimNanos>(params.atomic_execute * atomic_scale);
    auto& eng = s.engine();
    fabric::Fabric fab(eng, params, {.num_nodes = 2, .mem_per_node = 1u << 20});
    verbs::Network net(fab);
    ddss::Ddss substrate(net);
    substrate.start();
    eng.spawn([](ddss::Ddss& d, sim::Engine& e,
                 bench::Scenario& out) -> sim::Task<void> {
      auto c = d.client(0);
      auto a = co_await c.allocate(64, ddss::Coherence::kStrict,
                                   ddss::Placement::kRemote);
      std::vector<std::byte> v(64);
      const auto t0 = e.now();
      for (int i = 0; i < 10; ++i) co_await c.put(a, v);
      out.metric("us", to_micros(e.now() - t0) / 10);
    }(substrate, eng, s));
    eng.run();
  })["us"];
}

void print_a1(bench::Harness& h) {
  Table table({"atomic latency scale", "N-CoSED shared cascade (us)",
               "DDSS strict put (us)"});
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    table.add_row("x" + Table::fmt(scale, 1),
                  {ncosed_shared_cascade_us(h, scale),
                   ddss_strict_put_us(h, scale)},
                  1);
  }
  table.print(
      "Ablation A1 — remote-atomic latency sensitivity "
      "(orderings unchanged; costs scale with the atomic unit)");
}

// --- A2: memcpy rate and the SDP crossover ----------------------------------

double sdp_run_us(bench::Harness& h, sockets::SdpMode mode, double copy_rate,
                  std::size_t msg, int count) {
  const std::string name =
      "a2/" + Table::fmt(copy_rate, 2) + "/" + sockets::to_string(mode);
  return h.run(name, [&](bench::Scenario& sc) {
    fabric::FabricParams params;
    params.tcp_copy_bytes_per_ns = copy_rate;
    auto& eng = sc.engine();
    fabric::Fabric fab(eng, params, {.num_nodes = 2});
    verbs::Network net(fab);
    sockets::SdpStream stream(net, 0, 1, mode);
    eng.spawn([](sockets::SdpStream& s, std::size_t m,
                 int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) co_await s.send(std::vector<std::byte>(m));
      co_await s.flush();
    }(stream, msg, count));
    eng.spawn([](sockets::SdpStream& s, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) (void)co_await s.recv();
    }(stream, count));
    eng.run();
    sc.metric("us", to_micros(eng.now()));
  })["us"];
}

void print_a2(bench::Harness& h) {
  Table table({"memcpy rate (B/ns)", "SDP @16K (us)", "ZSDP @16K (us)",
               "winner @16K", "crossover moved?"});
  for (const double rate : {0.25, 0.5, 1.0, 2.0}) {
    const double sdp =
        sdp_run_us(h, sockets::SdpMode::kBufferedCopy, rate, 16384, 50);
    const double zsdp =
        sdp_run_us(h, sockets::SdpMode::kZeroCopy, rate, 16384, 50);
    table.add_row({Table::fmt(rate, 2), Table::fmt(sdp, 0),
                   Table::fmt(zsdp, 0), sdp < zsdp ? "SDP" : "ZSDP",
                   sdp < zsdp ? "yes: copies cheap enough" : "no"});
  }
  table.print(
      "Ablation A2 — host memcpy rate vs the buffered/zero-copy crossover "
      "(zero-copy wins 16 KB unless copies approach wire speed)");
}

// --- A3: TCP kernel cost and monitoring latency -----------------------------

double monitor_query_us(bench::Harness& h, monitor::MonScheme scheme,
                        double tcp_cpu_scale) {
  const std::string name = "a3/x" + Table::fmt(tcp_cpu_scale, 1) + "/" +
                           monitor::to_string(scheme);
  return h.run(name, [&](bench::Scenario& s) {
    fabric::FabricParams params;
    params.tcp_per_message_cpu =
        static_cast<SimNanos>(params.tcp_per_message_cpu * tcp_cpu_scale);
    auto& eng = s.engine();
    fabric::Fabric fab(eng, params, {.num_nodes = 2, .cores_per_node = 1});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    monitor::ResourceMonitor mon(net, tcp, 0, {1}, scheme);
    mon.start();
    eng.spawn([](monitor::ResourceMonitor& m, sim::Engine& e,
                 bench::Scenario& out) -> sim::Task<void> {
      co_await e.delay(milliseconds(1));
      const auto t0 = e.now();
      for (int i = 0; i < 10; ++i) (void)co_await m.query(1);
      out.metric("us", to_micros(e.now() - t0) / 10);
    }(mon, eng, s));
    eng.run_until(seconds(1));
  })["us"];
}

void print_a3(bench::Harness& h) {
  Table table({"TCP kernel-cost scale", "Socket-Sync query (us)",
               "RDMA-Sync query (us)", "ratio"});
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    const double sock =
        monitor_query_us(h, monitor::MonScheme::kSocketSync, scale);
    const double rdma =
        monitor_query_us(h, monitor::MonScheme::kRdmaSync, scale);
    table.add_row({"x" + Table::fmt(scale, 1), Table::fmt(sock, 1),
                   Table::fmt(rdma, 1), Table::fmt(sock / rdma, 1) + "x"});
  }
  table.print(
      "Ablation A3 — TCP kernel cost sensitivity "
      "(RDMA monitoring latency is independent of the host stack)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessOptions opts;
  flags::Table("bench_ablation_fabric", "Ablations over the fabric cost model",
               bench::harness_flags(opts)).parse(argc, argv);
  bench::Harness h("ablation_fabric", opts);
  print_a1(h);
  print_a2(h);
  print_a3(h);
  return h.finish();
}
