// E20 — "controlling overload scenarios" (the paper's opening motivation),
// end to end: a flash crowd multiplies one site's arrival rate 10x for
// half a second.  Four configurations of the framework's control services:
//
//   none                 every request queues; latency explodes for both
//                        sites and the crowd's damage outlasts the spike;
//   admission            excess load is shed at the front door; admitted
//                        requests keep bounded latency;
//   reconfig             capacity chases the crowd (nodes move to the hot
//                        site) but everything arriving before the move
//                        still queues;
//   admission+reconfig   shed the initial surge, then absorb the crowd
//                        with repurposed capacity — fewer drops than
//                        admission alone, bounded latency throughout.
//
// All three services run on the RDMA monitoring primitive.
#include "common/table.hpp"
#include "datacenter/admission.hpp"
#include "harness.hpp"
#include "reconfig/reconfig.hpp"

namespace {

using namespace dcs;

struct Config {
  bool admission;
  bool reconfig;
};


constexpr SimNanos kSpikeStart = milliseconds(200);
constexpr SimNanos kSpikeEnd = milliseconds(700);
constexpr SimNanos kRunEnd = milliseconds(1200);

/// Metrics: p95_us (site-0 latency of served requests), drop_rate (of
/// site-0 requests), other_p95_us (collateral damage on the steady site),
/// moves.
void run_config(bench::Scenario& sc, Config config) {
  auto& eng = sc.engine();
  // Node 0: front-end; 1..6: app pool.
  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = 7, .cores_per_node = 1});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);
  monitor::ResourceMonitor mon(net, tcp, 0, {1, 2, 3, 4, 5, 6},
                               monitor::MonScheme::kRdmaSync);
  mon.start();
  reconfig::ReconfigService svc(
      net, mon, 0, {1, 2, 3, 4, 5, 6}, 2,
      {.monitor_interval = milliseconds(15),
       .imbalance_threshold = 1.5,
       .history_window = 2,
       .move_cooldown = milliseconds(60),
       .node_repurpose_cost = milliseconds(20)});
  if (config.reconfig) svc.start();
  datacenter::AdmissionController adm(
      net, mon,
      {.max_load_per_node = config.admission ? 4.0 : 1e9,
       .retry_backoff = milliseconds(1),
       .max_retries = 2});

  LatencySamples site0_lat, site1_lat;
  std::uint64_t site0_offered = 0, site0_dropped = 0;

  // One open-loop arrival process per site.  Site 0's rate spikes 10x.
  auto traffic = [](sim::Engine& e, fabric::Fabric& f,
                    reconfig::ReconfigService& s,
                    datacenter::AdmissionController& a, Config cfg,
                    std::uint32_t site, LatencySamples& lat,
                    std::uint64_t& offered,
                    std::uint64_t& dropped) -> sim::Task<void> {
    while (e.now() < kRunEnd) {
      const bool spiking =
          site == 0 && e.now() >= kSpikeStart && e.now() < kSpikeEnd;
      const SimNanos gap = spiking ? microseconds(120) : microseconds(1200);
      co_await e.delay(gap);
      ++offered;
      e.spawn([](sim::Engine& e2, fabric::Fabric& f2,
                 reconfig::ReconfigService& s2,
                 datacenter::AdmissionController& a2, Config c2,
                 std::uint32_t st, LatencySamples& l,
                 std::uint64_t& drop) -> sim::Task<void> {
        const auto t0 = e2.now();
        if (c2.admission && st == 0) {
          // Admission gate only protects the spiking site's pool entry.
          if (!co_await a2.offer(microseconds(900), 4096)) {
            ++drop;
            co_return;
          }
          l.add(to_micros(e2.now() - t0));
          co_return;
        }
        const auto server = co_await s2.pick_server(st);
        co_await f2.tcp_wire_transfer(0, server, 256);
        co_await f2.node(server).execute(microseconds(900));
        co_await f2.tcp_wire_transfer(server, 0, 4096);
        l.add(to_micros(e2.now() - t0));
      }(e, f, s, a, cfg, site, lat, dropped));
    }
  };
  eng.spawn(traffic(eng, fab, svc, adm, config, 0, site0_lat, site0_offered,
                    site0_dropped));
  std::uint64_t dummy_offered = 0, dummy_dropped = 0;
  eng.spawn(traffic(eng, fab, svc, adm, config, 1, site1_lat, dummy_offered,
                    dummy_dropped));
  eng.run_until(kRunEnd + milliseconds(300));

  sc.metric("p95_us", site0_lat.percentile(95));
  sc.metric("drop_rate", static_cast<double>(site0_dropped) /
                            static_cast<double>(site0_offered));
  sc.metric("other_p95_us", site1_lat.percentile(95));
  sc.metric("moves", static_cast<double>(svc.reconfigurations()));
}

void print_table(bench::Harness& h) {
  Table table({"configuration", "site-0 p95 (us)", "site-0 drops",
               "site-1 p95 (us)", "moves"});
  const std::vector<std::pair<const char*, Config>> kConfigs = {
      {"none", {false, false}},
      {"admission only", {true, false}},
      {"reconfiguration only", {false, true}},
      {"admission + reconfiguration", {true, true}},
  };
  for (const auto& [name, config] : kConfigs) {
    auto r = h.run(std::string("config/") + name,
                   [&](bench::Scenario& s) { run_config(s, config); });
    table.add_row({name, Table::fmt(r["p95_us"], 0),
                   Table::fmt(100 * r["drop_rate"], 1) + " %",
                   Table::fmt(r["other_p95_us"], 0),
                   Table::fmt(r["moves"], 0)});
  }
  table.print(
      "Flash crowd (10x arrival spike for 500 ms) — the framework's "
      "overload controls, alone and combined");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::extract_harness_flags("flashcrowd", argc, argv);
  bench::Harness h("flashcrowd", opts);
  print_table(h);
  return h.finish();
}
