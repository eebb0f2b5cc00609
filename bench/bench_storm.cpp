// E2 — Figure 3b: STORM vs STORM-DDSS query execution time vs record count.
//
// Paper shape: the DDSS control plane wins everywhere (~19 % reported);
// both curves grow with record count.
#include "common/table.hpp"
#include "harness.hpp"
#include "storm/storm.hpp"

namespace {

using namespace dcs;

const std::vector<std::uint64_t> kRecordCounts = {1000, 10000, 100000,
                                                  1000000};

double query_time_ms(bench::Harness& h, storm::ControlPlane plane,
                     std::uint64_t records) {
  const std::string name = std::string("query/") + storm::to_string(plane) +
                           "/" + std::to_string(records);
  return h.run(name, [&](bench::Scenario& s) {
    auto& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 5, .cores_per_node = 2});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    storm::StormCluster cluster(net, tcp, plane, 0, 1, {2, 3, 4});
    eng.spawn(cluster.start());
    eng.run();
    eng.spawn([](storm::StormCluster& c, std::uint64_t n,
                 bench::Scenario& out) -> sim::Task<void> {
      out.metric("query_ms", to_millis((co_await c.run_query(n)).elapsed));
    }(cluster, records, s));
    eng.run();
  })["query_ms"];
}

void print_fig3b(bench::Harness& h) {
  Table table({"# records", "STORM (ms)", "STORM-DDSS (ms)", "improvement"});
  for (const auto records : kRecordCounts) {
    const double trad =
        query_time_ms(h, storm::ControlPlane::kSockets, records);
    const double ddss = query_time_ms(h, storm::ControlPlane::kDdss, records);
    const double improvement = 100.0 * (1.0 - ddss / trad);
    table.add_row({std::to_string(records), Table::fmt(trad, 2),
                   Table::fmt(ddss, 2), Table::fmt(improvement, 1) + " %"});
  }
  table.print(
      "Figure 3b — STORM query execution time vs record count "
      "(paper: ~19 % improvement with DDSS)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessOptions opts;
  flags::Table("bench_storm", "Figure 3b: STORM vs STORM-DDSS query time",
               bench::harness_flags(opts)).parse(argc, argv);
  bench::Harness h("storm", opts);
  print_fig3b(h);
  return h.finish();
}
