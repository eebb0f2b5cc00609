// Workload `webfarm-coop`: the Figure 6 multi-tier web farm.
//
// One engine and 14 nodes at the default ClusterSpec memory (64 MB each):
// 2 client nodes, 8 proxies behind sockets::TcpNetwork running HYBCC
// cooperative caching over RDMA, 2 memory donors and 2 backends.  32
// closed-loop sessions fetch 16 KB documents, Zipf-distributed over a 12 MB
// working set.  The benchmark wraps the cache's DocHandler to time every
// serve in virtual time; ClientFarm verifies every body it receives.
#include <memory>
#include <string>
#include <vector>

#include "cache/coop_cache.hpp"
#include "common/zipf.hpp"
#include "datacenter/backend.hpp"
#include "datacenter/clients.hpp"
#include "datacenter/webfarm.hpp"
#include "fabric/fabric.hpp"
#include "probe.hpp"
#include "sockets/tcp.hpp"

namespace dcs::perfbench {
namespace {

struct FarmConfig {
  std::size_t proxies = 8;
  std::size_t doc_bytes = 16u << 10;
  std::size_t working_set = 12u << 20;
  std::size_t cache_per_node = 1u << 20;
  std::size_t sessions = 32;
  std::size_t requests = 24000;
  double alpha = 0.75;
};

struct ServeProbe {
  sim::Engine& eng;
  SpanLog spans;
  LatencyLog serve_lat;
};

sim::Task<std::vector<std::byte>> timed_serve(ServeProbe* probe,
                                              datacenter::DocHandler inner,
                                              datacenter::NodeId proxy,
                                              datacenter::DocId id) {
  const SimNanos t0 = probe->eng.now();
  const std::size_t root =
      probe->spans.open_root("cache.serve", probe->spans.next_request(), t0);
  std::vector<std::byte> body = co_await inner(proxy, id);
  probe->serve_lat.add(probe->eng.now() - t0);
  probe->spans.close(root, probe->eng.now());
  co_return body;
}

}  // namespace

Record run_webfarm_coop(const Options& opts) {
  const FarmConfig cfg;
  const std::size_t num_docs = cfg.working_set / cfg.doc_bytes;
  Record rec;
  rec.config = {{"nodes", std::to_string(6 + cfg.proxies)},
                {"mem_per_node_bytes",
                 std::to_string(fabric::ClusterSpec{}.mem_per_node)},
                {"engine", "single"},
                {"workers", "1"},
                {"layout", "2 clients, 8 proxies, 2 donors, 2 backends"},
                {"scheme", "HYBCC"},
                {"doc_bytes", std::to_string(cfg.doc_bytes)},
                {"working_set_bytes", std::to_string(cfg.working_set)},
                {"cache_per_node_bytes", std::to_string(cfg.cache_per_node)},
                {"sessions", std::to_string(cfg.sessions)},
                {"requests", std::to_string(cfg.requests)},
                {"zipf_alpha", "0.75"},
                {"loop", "closed"}};

  const auto t_start = HostClock::now();
  sim::Engine eng;
  std::unique_ptr<fabric::Fabric> fab;
  {
    HostTimer t(&rec.host["fabric.setup_s"]);
    fab = std::make_unique<fabric::Fabric>(
        eng, fabric::FabricParams{},
        fabric::ClusterSpec{.num_nodes = 6 + cfg.proxies,
                            .cores_per_node = 2});
  }
  std::unique_ptr<verbs::Network> net;
  {
    HostTimer t(&rec.host["verbs.setup_s"]);
    net = std::make_unique<verbs::Network>(*fab);
  }
  std::unique_ptr<sockets::TcpNetwork> tcp;
  {
    HostTimer t(&rec.host["sockets.setup_s"]);
    tcp = std::make_unique<sockets::TcpNetwork>(*fab);
  }
  std::vector<fabric::NodeId> proxies;
  for (std::size_t i = 0; i < cfg.proxies; ++i) {
    proxies.push_back(static_cast<fabric::NodeId>(2 + i));
  }
  const auto p = static_cast<fabric::NodeId>(cfg.proxies);
  const std::vector<fabric::NodeId> donors = {fabric::NodeId(2 + p),
                                              fabric::NodeId(3 + p)};
  const std::vector<fabric::NodeId> backends = {fabric::NodeId(4 + p),
                                                fabric::NodeId(5 + p)};
  datacenter::DocumentStore store(
      {.num_docs = num_docs, .doc_bytes = cfg.doc_bytes});
  datacenter::BackendService backend(*tcp, store, backends);
  backend.start();
  cache::CoopCacheService coop(*net, backend, store, cache::Scheme::kHYBCC,
                               proxies, donors,
                               {.capacity_per_node = cfg.cache_per_node});
  ServeProbe probe{eng, SpanLog(opts.traced, 0), {}};
  datacenter::DocHandler inner = coop.handler();
  datacenter::WebFarm farm(
      *tcp, proxies,
      [&probe, inner](datacenter::NodeId proxy, datacenter::DocId id) {
        return timed_serve(&probe, inner, proxy, id);
      });
  farm.start();
  datacenter::ClientFarm clients(*tcp, {0, 1}, proxies, store,
                                 {.sessions = cfg.sessions});
  const ZipfTrace trace(num_docs, cfg.alpha, cfg.requests, opts.seed);
  eng.spawn(clients.run({trace.requests().begin(), trace.requests().end()}));
  const auto t_run = HostClock::now();
  rec.host["setup_s"] = seconds_between(t_start, t_run);
  eng.run();
  rec.host["run_s"] = seconds_between(t_run, HostClock::now());
  rec.sim["sim.events"] = static_cast<double>(eng.events_dispatched());
  rec.fingerprint = eng.dispatch_fingerprint();

  datacenter::RunStats stats = clients.stats();
  rec.attempted = cfg.requests;
  rec.failed = cfg.requests - std::min<std::uint64_t>(cfg.requests,
                                                      stats.completed) +
               stats.integrity_failures;
  if (stats.completed != cfg.requests || stats.integrity_failures != 0) {
    rec.violations.push_back(
        "completed " + std::to_string(stats.completed) + " of " +
        std::to_string(cfg.requests) + " requests, " +
        std::to_string(stats.integrity_failures) + " integrity failure(s)");
  }
  if (const std::string audit = coop.audit(); !audit.empty()) {
    rec.violations.push_back("cache audit: " + audit);
  }
  rec.sim["sim_ops_per_s"] = stats.tps();
  rec.sim["sim_p50_us"] = stats.latency_us.percentile(50.0);
  rec.sim["sim_p99_us"] = stats.latency_us.percentile(99.0);
  rec.sim["sim_samples"] = static_cast<double>(stats.latency_us.count());

  rec.sim["fabric.registered_mb"] = registered_mb(*fab);
  rec.sim["fabric.wire_bytes"] = static_cast<double>(fab->bytes_transferred());
  read_verbs_counters(rec);
  rec.sim["sockets.tcp_sends"] = registry_count("sockets.tcp.sends");
  rec.sim["sockets.tcp_bytes"] = registry_count("sockets.tcp.send_bytes");
  const cache::CacheStats& cs = coop.stats();
  rec.sim["cache.hit_ratio"] = cs.hit_rate();
  rec.sim["cache.local_hit_ratio"] =
      cs.total() > 0 ? static_cast<double>(cs.local_hits) /
                           static_cast<double>(cs.total())
                     : 0.0;
  rec.sim["cache.evictions"] = registry_count("cache.coop.evictions");
  rec.sim["cache.serve.sim_p50_us"] = probe.serve_lat.percentile_us(0.50);
  rec.sim["cache.serve.sim_p99_us"] = probe.serve_lat.percentile_us(0.99);
  rec.sim["datacenter.requests"] =
      static_cast<double>(farm.requests_served());
  rec.sim["datacenter.integrity_failures"] =
      static_cast<double>(stats.integrity_failures);
  rec.spans = std::move(probe.spans.spans());
  return rec;
}

}  // namespace dcs::perfbench
