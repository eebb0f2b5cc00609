// E8 — Figure 8b: data-center throughput improvement from monitor-driven
// load balancing, vs Zipf alpha, for Socket-Sync / RDMA-Async / RDMA-Sync /
// e-RDMA-Sync relative to the Socket-Async baseline.
//
// Workload: two hosted services — a Zipf-popularity document service
// (popular documents are cheap cache hits, unpopular ones cost app/db
// work) and a RUBiS-like auction mix.  Lower alpha = less locality = more
// heavy requests and more imbalance, which accurate fine-grained
// monitoring turns into throughput (paper: ~35 % improvement for the
// RDMA-based schemes).
#include <cstdio>

#include "common/table.hpp"
#include "common/zipf.hpp"
#include "datacenter/workload.hpp"
#include "harness.hpp"
#include "monitor/monitor.hpp"
#include "trace/hot.hpp"

namespace {

using namespace dcs;
using monitor::MonScheme;

constexpr std::size_t kNumDocs = 1000;
constexpr std::size_t kRequests = 1500;
constexpr std::size_t kSessions = 12;

const std::vector<double> kAlphas = {0.9, 0.75, 0.5, 0.25};
const std::vector<MonScheme> kSchemes = {
    MonScheme::kSocketSync, MonScheme::kRdmaAsync, MonScheme::kRdmaSync,
    MonScheme::kERdmaSync};

/// Marks a RUBiS request, which has no document rank to attribute.
constexpr std::size_t kNoDoc = ~std::size_t{0};

struct Request {
  SimNanos cpu;
  std::size_t reply_bytes;
  std::size_t doc = kNoDoc;  // Zipf document rank (kNoDoc for RUBiS ops)
};

std::vector<Request> make_mixed_trace(double alpha) {
  Rng rng(4242);
  ZipfSampler zipf(kNumDocs, alpha);
  const auto rubis = datacenter::make_rubis_trace(kRequests, 777);
  std::vector<Request> trace;
  trace.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (rng.chance(0.7)) {
      // Document service: popular ranks are cached (cheap); the tail costs
      // application work.
      const auto rank = zipf.sample(rng);
      const bool popular = rank < kNumDocs / 10;
      trace.push_back(Request{popular ? microseconds(150) : microseconds(1400),
                              16384, rank});
    } else {
      const auto& op = datacenter::rubis_mix()[rubis[i]];
      trace.push_back(Request{op.cpu, op.reply_bytes});
    }
  }
  return trace;
}

/// Runs one scheme/alpha cell, recording the Zipf skew in the wall JSON
/// (`zipf_alpha`) so regressions can be compared at matched skew.  Under
/// --hotset-out / --hot-keys the harness arms the ambient hot sink and the
/// dispatch-time DCS_HOT("monitor.doc", ...) feeds the top-K sketch with
/// document ranks.
double throughput_tps(bench::Harness& h, MonScheme scheme, double alpha,
                      std::size_t cores_per_node) {
  std::string name = std::string(monitor::to_string(scheme)) + "/a=" +
                     Table::fmt(alpha, 2);
  if (cores_per_node > 1) name += "/cores=" + std::to_string(cores_per_node);
  return h.run(name, [&](bench::Scenario& sc) {
    auto& eng = sc.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 5, .cores_per_node = cores_per_node});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    // Async intervals reflect each transport's sustainable granularity: a
    // socket push daemon burns target CPU per push (5 ms is already chatty
    // for 2006-era daemons), while RDMA polls are free for the target and
    // can run at millisecond granularity — the paper's core argument.
    const SimNanos interval = scheme == MonScheme::kRdmaAsync
                                  ? milliseconds(1)
                                  : milliseconds(5);
    monitor::ResourceMonitor mon(net, tcp, 0, {1, 2, 3, 4}, scheme,
                                 {.async_interval = interval});
    mon.start();
    monitor::MonitoredDispatcher disp(net, mon);

    const auto trace = make_mixed_trace(alpha);
    SimNanos finished_at = 0;
    // Closed-loop sessions pull from a shared cursor.
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      eng.spawn([](sim::Engine& e, monitor::MonitoredDispatcher& d,
                   const std::vector<Request>& reqs, std::size_t& cur,
                   SimNanos& done) -> sim::Task<void> {
        co_await e.delay(milliseconds(1));
        while (cur < reqs.size()) {
          const Request r = reqs[cur++];
          // Attribute document heat at dispatch: a no-op unless a hot sink
          // is armed (--hotset-out / --hot-keys via the bench harness).
          if (r.doc != kNoDoc) DCS_HOT("monitor.doc", r.doc, 1);
          co_await d.dispatch(r.cpu, r.reply_bytes);
        }
        done = std::max(done, e.now());
      }(eng, disp, trace, cursor, finished_at));
    }
    eng.run_until(seconds(30));
    DCS_CHECK(disp.completed() == kRequests);
    sc.zipf_alpha(alpha);
    sc.metric("tps", static_cast<double>(kRequests) /
                         to_secs(finished_at - milliseconds(1)));
  })["tps"];
}

/// Figure 8b at `cores` cores per node.  The --cores-per-node=N variant is
/// a NEW experiment row (the single-core Figure 8b is untouched): with
/// per-node CPU headroom the sync socket query no longer steals the only
/// core serving requests, so Socket-Sync recovers most of the gap to the
/// RDMA schemes — which localizes the paper's single-core penalty to CPU
/// contention, not protocol latency.
void print_fig8b(bench::Harness& h, std::size_t cores,
                 const std::string& title) {
  std::vector<std::string> header = {"scheme"};
  for (const double a : kAlphas) header.push_back("a=" + Table::fmt(a, 2));
  Table table(header);
  std::vector<double> baseline;
  for (const double a : kAlphas) {
    baseline.push_back(throughput_tps(h, MonScheme::kSocketAsync, a, cores));
  }
  {
    std::vector<std::string> row = {"Socket-Async (baseline TPS)"};
    for (const double b : baseline) row.push_back(Table::fmt(b, 0));
    table.add_row(row);
  }
  for (const auto scheme : kSchemes) {
    std::vector<std::string> row = {std::string(monitor::to_string(scheme)) +
                                    " (% impr.)"};
    for (std::size_t i = 0; i < kAlphas.size(); ++i) {
      const double tps = throughput_tps(h, scheme, kAlphas[i], cores);
      row.push_back(Table::fmt(100.0 * (tps / baseline[i] - 1.0), 1));
    }
    table.add_row(row);
  }
  table.print(title);
}

}  // namespace

int main(int argc, char** argv) {
  // --cores-per-node=N adds the Figure 8b table at N cores per node.
  std::size_t cores = 1;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (!bench::parse_flag(argv[i], "--cores-per-node", &cores)) {
      argv[kept++] = argv[i];
    }
  }
  if (cores == 0) {
    std::fprintf(stderr, "monitor_zipf: --cores-per-node must be > 0\n");
    return 2;
  }
  const auto opts = bench::extract_harness_flags("monitor_zipf", kept, argv);
  bench::Harness h("monitor_zipf", opts);
  print_fig8b(h, 1,
              "Figure 8b — throughput improvement over Socket-Async vs Zipf "
              "alpha (paper: ~35 % for RDMA-based schemes)");
  if (cores > 1) {
    print_fig8b(h, cores,
                "Figure 8b variant — " + std::to_string(cores) +
                    " cores/node (Socket-Sync recovers with CPU headroom)");
  }
  return h.finish();
}
