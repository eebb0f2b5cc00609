// dcs — scenario driver and offline debugger.
//
// Runs parameterizable versions of the repository's experiments without
// recompiling, and reads their dumps offline.  `dcs --help` lists the
// commands; `dcs <command> --help` prints the usage generated from that
// command's flag table.  All numbers are deterministic virtual-time
// results.
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "audit/audit.hpp"
#include "cache/coop_cache.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"
#include "datacenter/clients.hpp"
#include "datacenter/webfarm.hpp"
#include "dlm/dqnl.hpp"
#include "dlm/ncosed.hpp"
#include "dlm/srsl.hpp"
#include "harness.hpp"
#include "monitor/monitor.hpp"
#include "monitor/watchdog.hpp"
#include "obs/explain.hpp"
#include "obs/flame.hpp"
#include "obs/top.hpp"
#include "sim/sync.hpp"
#include "storm/storm.hpp"
#include "trace/flight.hpp"
#include "trace/inspect.hpp"

using namespace dcs;

namespace {

/// A run command's simulation, run as the harness scenario "run".
using RunBody = std::function<void(bench::Scenario&)>;

/// Runs `body` as the one harness scenario of `dcs <cmd>` and writes the
/// outputs `opts` asks for.
int run_scenario(const std::string& cmd, const bench::HarnessOptions& opts,
                 const RunBody& body) {
  bench::Harness h("dcs_" + cmd, opts);
  h.run("run", body);
  return h.finish();
}

int cmd_params(flags::Table& table, int argc, char** argv) {
  table.parse(argc, argv, 2);
  const fabric::FabricParams p;
  Table t({"parameter", "value"});
  t.add_row({"link latency", std::to_string(p.link_latency) + " ns"});
  t.add_row({"wire rate", Table::fmt(p.wire_bytes_per_ns, 2) + " B/ns"});
  t.add_row({"RDMA post/target/completion",
             std::to_string(p.rdma_post_overhead) + "/" +
                 std::to_string(p.rdma_target_nic) + "/" +
                 std::to_string(p.rdma_completion) + " ns"});
  t.add_row({"atomic execute", std::to_string(p.atomic_execute) + " ns"});
  t.add_row({"TCP per-message CPU",
             std::to_string(p.tcp_per_message_cpu / 1000) + " us/side"});
  t.add_row({"interrupt latency",
             std::to_string(p.tcp_interrupt_latency / 1000) + " us"});
  t.add_row({"memcpy rate", Table::fmt(p.tcp_copy_bytes_per_ns, 2) + " B/ns"});
  t.add_row({"scheduler quantum",
             std::to_string(p.sched_quantum / 1000000) + " ms"});
  t.add_row({"op timeout", std::to_string(p.op_timeout / 1000) + " us"});
  t.print("fabric cost model (FabricParams defaults)");
  return 0;
}

int cmd_cache(flags::Table& table, int argc, char** argv) {
  std::string scheme_name = "HYBCC";
  std::size_t proxies_n = 2, file_kb = 16, requests = 3000, cache_mb = 4,
              ws_mb = 12;
  double alpha = 0.75;
  bench::HarnessOptions opts;
  table
      .add({flags::choice("--scheme", &scheme_name,
                          {"HYBCC", "AC", "BCC", "CCWR", "MTACC"},
                          "cooperative caching scheme"),
            flags::count("--proxies", &proxies_n, 1, 64, "proxy nodes"),
            flags::count("--file-kb", &file_kb, 1, 4096, "document size in KB"),
            flags::real("--alpha", &alpha, 0.0, 10.0, "Zipf skew of requests"),
            flags::count("--requests", &requests, 1, 1000000,
                         "client requests"),
            flags::count("--cache-mb", &cache_mb, 0, 1u << 20,
                         "cache capacity per proxy in MB"),
            flags::count("--ws-mb", &ws_mb, 1, 4096, "working set in MB")})
      .add(bench::harness_flags(opts))
      .parse(argc, argv, 2);
  cache::Scheme scheme = cache::Scheme::kHYBCC;
  for (const auto s : {cache::Scheme::kAC, cache::Scheme::kBCC,
                       cache::Scheme::kCCWR, cache::Scheme::kMTACC,
                       cache::Scheme::kHYBCC}) {
    if (scheme_name == cache::to_string(s)) scheme = s;
  }
  const std::size_t file_bytes = file_kb * 1024;
  const std::size_t num_docs = ws_mb * 1024 * 1024 / file_bytes;
  if (num_docs == 0) {
    table.fail("--ws-mb must hold at least one --file-kb document");
  }

  return run_scenario("cache", opts, [=](bench::Scenario& s) {
    sim::Engine& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 6 + proxies_n, .cores_per_node = 2,
                        .mem_per_node = 64u << 20});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    std::vector<fabric::NodeId> proxies, donors, backends;
    for (std::size_t i = 0; i < proxies_n; ++i) {
      proxies.push_back(static_cast<fabric::NodeId>(2 + i));
    }
    donors = {static_cast<fabric::NodeId>(2 + proxies_n),
              static_cast<fabric::NodeId>(3 + proxies_n)};
    backends = {static_cast<fabric::NodeId>(4 + proxies_n),
                static_cast<fabric::NodeId>(5 + proxies_n)};

    datacenter::DocumentStore store(
        {.num_docs = num_docs, .doc_bytes = file_bytes});
    datacenter::BackendService backend(tcp, store, backends);
    backend.start();
    cache::CoopCacheService coop(net, backend, store, scheme, proxies, donors,
                                 {.capacity_per_node = cache_mb << 20});
    datacenter::WebFarm farm(tcp, proxies, coop.handler());
    farm.start();
    datacenter::ClientFarm clients(tcp, {0, 1}, proxies, store,
                                   {.sessions = 4 * proxies_n});
    ZipfTrace trace(num_docs, alpha, requests, 42);
    eng.spawn(clients.run({trace.requests().begin(), trace.requests().end()}));
    eng.run();

    Table t({"metric", "value"});
    t.add_row({"scheme", cache::to_string(scheme)});
    t.add_row({"throughput", Table::fmt(clients.stats().tps(), 0) + " TPS"});
    t.add_row({"mean latency",
               Table::fmt(const_cast<datacenter::RunStats&>(clients.stats())
                              .latency_us.mean(),
                          0) + " us"});
    t.add_row(
        {"hit rate", Table::fmt(100 * coop.stats().hit_rate(), 1) + " %"});
    t.add_row({"integrity failures",
               std::to_string(clients.stats().integrity_failures)});
    t.add_row({"audit", coop.audit().empty() ? "clean" : coop.audit()});
    t.print("cooperative cache run (" + std::to_string(proxies_n) +
            " proxies, " + std::to_string(file_bytes / 1024) +
            " KB docs, a=" + Table::fmt(alpha, 2) + ")");
  });
}

int cmd_locks(flags::Table& table, int argc, char** argv) {
  std::string scheme = "ncosed", mode_name = "shared";
  int waiters = 8;
  bench::HarnessOptions opts;
  table
      .add({flags::choice("--scheme", &scheme, {"ncosed", "srsl", "dqnl"},
                          "lock manager"),
            flags::count("--waiters", &waiters, 1, 1024,
                         "processes queued behind the holder"),
            flags::choice("--mode", &mode_name, {"shared", "exclusive"},
                          "mode the waiters request")})
      .add(bench::harness_flags(opts))
      .parse(argc, argv, 2);
  const auto mode = mode_name == "shared" ? dlm::LockMode::kShared
                                          : dlm::LockMode::kExclusive;
  return run_scenario("locks", opts, [=](bench::Scenario& s) {
    sim::Engine& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = static_cast<std::size_t>(waiters + 4),
                        .cores_per_node = 2});
    verbs::Network net(fab);
    std::unique_ptr<dlm::LockManager> mgr;
    if (scheme == "srsl") {
      auto srsl = std::make_unique<dlm::SrslLockManager>(net, 0);
      srsl->start();
      mgr = std::move(srsl);
    } else if (scheme == "dqnl") {
      mgr = std::make_unique<dlm::DqnlLockManager>(net, 0);
    } else {
      mgr = std::make_unique<dlm::NcosedLockManager>(net, 0);
    }

    SimNanos release_at = 0, last_grant = 0;
    eng.spawn([](sim::Engine& e, dlm::LockManager& m, SimNanos& rel)
                  -> sim::Task<void> {
      co_await m.lock_exclusive(1, 0);
      co_await e.delay(milliseconds(1));
      rel = e.now();
      co_await m.unlock(1, 0);
    }(eng, *mgr, release_at));
    for (int i = 0; i < waiters; ++i) {
      eng.spawn([](sim::Engine& e, dlm::LockManager& m, fabric::NodeId self,
                   dlm::LockMode md, SimNanos& last) -> sim::Task<void> {
        co_await e.delay(microseconds(50 + 10 * self));
        {
          // Request root so --critical-path splits acquire latency into
          // lock-wait vs protocol cost.
          trace::Request req("dlm.acquire", self, self);
          co_await m.lock(self, 0, md);
        }
        last = std::max(last, e.now());
        co_await m.unlock(self, 0);
      }(eng, *mgr, static_cast<fabric::NodeId>(2 + i), mode, last_grant));
    }
    eng.run();

    Table t({"metric", "value"});
    t.add_row({"scheme", mgr->name()});
    t.add_row({"mode", mode_name});
    t.add_row({"waiters", std::to_string(waiters)});
    t.add_row({"cascade latency",
               Table::fmt(to_micros(last_grant - release_at), 1) + " us"});
    t.print("lock cascade run");
  });
}

int cmd_monitor(flags::Table& table, int argc, char** argv) {
  std::string scheme_name = "rdma-sync";
  int jobs = 4;
  bench::HarnessOptions opts;
  table
      .add({flags::choice("--scheme", &scheme_name,
                          {"rdma-sync", "socket-sync", "socket-async",
                           "rdma-async", "e-rdma-sync"},
                          "monitoring scheme"),
            flags::count("--jobs", &jobs, 0, 1024,
                         "CPU-bound jobs on the monitored node")})
      .add(bench::harness_flags(opts))
      .parse(argc, argv, 2);
  monitor::MonScheme scheme = monitor::MonScheme::kRdmaSync;
  if (scheme_name == "socket-sync") scheme = monitor::MonScheme::kSocketSync;
  if (scheme_name == "socket-async") scheme = monitor::MonScheme::kSocketAsync;
  if (scheme_name == "rdma-async") scheme = monitor::MonScheme::kRdmaAsync;
  if (scheme_name == "e-rdma-sync") scheme = monitor::MonScheme::kERdmaSync;

  return run_scenario("monitor", opts, [=](bench::Scenario& s) {
    sim::Engine& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 2, .cores_per_node = 1});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    monitor::ResourceMonitor mon(net, tcp, 0, {1}, scheme);
    mon.start();
    for (int j = 0; j < jobs; ++j) eng.spawn(fab.node(1).execute(seconds(1)));

    SimNanos latency = 0;
    std::uint64_t reported = 0;
    eng.spawn([](sim::Engine& e, monitor::ResourceMonitor& m, SimNanos& lat,
                 std::uint64_t& rep) -> sim::Task<void> {
      co_await e.delay(milliseconds(50));
      const auto t0 = e.now();
      monitor::Sample smp;
      {
        trace::Request req("monitor.query", 0, 1);
        smp = co_await m.query(1);
      }
      lat = e.now() - t0;
      rep = smp.stats.runnable;
    }(eng, mon, latency, reported));
    eng.run_until(milliseconds(200));

    Table t({"metric", "value"});
    t.add_row({"scheme", monitor::to_string(scheme)});
    t.add_row({"actual runnable", std::to_string(jobs)});
    t.add_row({"reported runnable", std::to_string(reported)});
    t.add_row({"query latency", Table::fmt(to_micros(latency), 1) + " us"});
    t.add_row({"target CPU consumed by monitoring",
               std::to_string(fab.node(1).busy_ns() -
                              static_cast<std::uint64_t>(0)) +
                   " ns (incl. load)"});
    t.print("resource monitor probe");
  });
}

int cmd_storm(flags::Table& table, int argc, char** argv) {
  std::uint64_t records = 100000;
  std::string plane_name = "ddss";
  bench::HarnessOptions opts;
  table
      .add({flags::count("--records", &records, 0, 1000000000,
                         "records the query scans"),
            flags::choice("--plane", &plane_name, {"ddss", "sockets"},
                          "control plane")})
      .add(bench::harness_flags(opts))
      .parse(argc, argv, 2);
  const auto plane = plane_name == "ddss" ? storm::ControlPlane::kDdss
                                          : storm::ControlPlane::kSockets;
  return run_scenario("storm", opts, [=](bench::Scenario& s) {
    sim::Engine& eng = s.engine();
    fabric::Fabric fab(eng, fabric::FabricParams{},
                       {.num_nodes = 5, .cores_per_node = 2});
    verbs::Network net(fab);
    sockets::TcpNetwork tcp(fab);
    storm::StormCluster cluster(net, tcp, plane, 0, 1, {2, 3, 4});
    eng.spawn(cluster.start());
    eng.run();
    storm::QueryResult result;
    eng.spawn([](storm::StormCluster& c, std::uint64_t n,
                 storm::QueryResult& out) -> sim::Task<void> {
      trace::Request req("storm.query", 0, n);
      out = co_await c.run_query(n);
    }(cluster, records, result));
    eng.run();

    Table t({"metric", "value"});
    t.add_row({"control plane", storm::to_string(plane)});
    t.add_row({"records scanned", std::to_string(result.records_scanned)});
    t.add_row({"records returned", std::to_string(result.records_returned)});
    t.add_row({"control-plane ops", std::to_string(result.control_ops)});
    t.add_row(
        {"query time", Table::fmt(to_millis(result.elapsed), 2) + " ms"});
    t.print("STORM query run");
  });
}

// --- wedge: seeded failure scenarios that trip the flight recorder ---

/// A holder node takes the N-CoSED exclusive lock and parks forever on an
/// event nobody sets; every waiter queues behind it in the protocol's
/// fully-parked wait (no timers).  Depending on --scenario, the wedge is
/// witnessed by the engine stall detector, the load-adjusted deadline
/// watchdog, or (violation) a seeded use-after-deregister under
/// OnViolation::kPostmortem.  Each run writes deterministic
/// dcs-postmortem-v1 dumps for `dcs inspect`.
int cmd_wedge(flags::Table& table, int argc, char** argv) {
  std::string scenario = "stall";
  int waiters = 3;
  std::size_t ring = 128;
  bench::HarnessOptions opts;
  table
      .add({flags::choice("--scenario", &scenario,
                          {"stall", "deadline", "violation"},
                          "who witnesses the wedge"),
            flags::count("--waiters", &waiters, 1, 1024,
                         "processes queued behind the parked holder"),
            flags::count("--ring", &ring, 0, 1u << 20,
                         "flight-recorder ring records per node")})
      .add(bench::harness_flags(opts, {"--postmortem-dir"}))
      .parse(argc, argv, 2);

  sim::Engine eng;
  trace::FlightConfig fc;
  fc.ring_capacity = ring;
  fc.postmortem_dir = opts.postmortem_dir.empty() ? "." : opts.postmortem_dir;
  fc.prefix = "dcs_wedge_" + scenario;
  trace::FlightRecorder flight(eng, fc);
  flight.install();

  audit::Auditor auditor(
      eng, {.on_violation = audit::OnViolation::kPostmortem});
  if (scenario == "violation") auditor.install();

  fabric::Fabric fab(eng, fabric::FabricParams{},
                     {.num_nodes = static_cast<std::size_t>(waiters + 2),
                      .cores_per_node = 2});
  verbs::Network net(fab);
  sockets::TcpNetwork tcp(fab);

  if (scenario == "violation") {
    // Use-after-deregister: node 2 reads through an rkey node 1 tore down.
    eng.spawn([](verbs::Network& n) -> sim::Task<void> {
      trace::Request req("wedge.stale_read", 2, 1);
      auto region = n.hca(1).allocate_region(64);
      std::byte buf[8];
      co_await n.hca(2).read(region, 0, buf);
      n.hca(1).free_region(region);
      co_await n.hca(2).read(region, 0, buf);  // faults: tombstoned rkey
    }(net));
    try {
      eng.run();
    } catch (const audit::AuditError& e) {
      std::printf("wedge: audit violation captured: %s\n", e.what());
    }
  } else {
    dlm::NcosedLockManager mgr(net, 0);
    sim::Event never(eng);
    eng.spawn([](sim::Engine& e, dlm::LockManager& m,
                 sim::Event& park) -> sim::Task<void> {
      trace::Request req("wedge.hold", 1, 1);
      co_await m.lock(1, 0, dlm::LockMode::kExclusive);
      DCS_LOG("wedge", "holder.parked", 1, 0);
      co_await park.wait();  // never set: the lock is never released
      co_await e.delay(0);
    }(eng, mgr, never));
    for (int i = 0; i < waiters; ++i) {
      const auto self = static_cast<fabric::NodeId>(2 + i);
      eng.spawn([](sim::Engine& e, dlm::LockManager& m,
                   fabric::NodeId node) -> sim::Task<void> {
        co_await e.delay(microseconds(10 * (node - 1)));
        trace::Request req("wedge.acquire", node, node);
        co_await m.lock(node, 0, dlm::LockMode::kExclusive);
      }(eng, mgr, self));
    }

    if (scenario == "deadline") {
      monitor::ResourceMonitor mon(net, tcp, 0, {1},
                                   monitor::MonScheme::kERdmaSync);
      mon.start();
      // Background load on the holder's node so the watchdog's deadline is
      // genuinely load-adjusted, not a fixed constant.
      for (int j = 0; j < 2; ++j) {
        eng.spawn(fab.node(1).execute(milliseconds(200)));
      }
      monitor::DeadlineWatchdog watchdog(
          mon, flight,
          {.interval = milliseconds(5), .deadline = milliseconds(20)});
      eng.spawn(watchdog.run(milliseconds(200)));
      eng.run_until(milliseconds(200));
      std::printf("wedge: %llu watchdog sweeps, %llu deadline trips\n",
                  static_cast<unsigned long long>(watchdog.sweeps()),
                  static_cast<unsigned long long>(watchdog.trips()));
    } else {
      eng.run();  // drains with live roots -> stall detector trips
    }
  }

  std::printf("wedge[%s]: %llu trip(s), %zu in-flight request(s) at end\n",
              scenario.c_str(),
              static_cast<unsigned long long>(flight.trips()),
              flight.in_flight().size());
  for (const auto& path : flight.dump_paths()) {
    std::printf("  dump: %s\n", path.c_str());
  }
  return flight.trips() > 0 ? 0 : 1;
}

// --- inspect: offline queries over dumps and trace JSON ---

int cmd_inspect(flags::Table& table, int argc, char** argv) {
  std::string file;
  trace::inspect::Options opts;
  table
      .add({flags::positional("FILE", &file, "postmortem dump or trace JSON"),
            flags::count("--node", &opts.node, "only this node's records"),
            flags::path("--layer", &opts.layer, "only this layer", "L"),
            flags::count("--request", &opts.request, "only this request"),
            flags::count("--from", &opts.from_ns, "only from this virtual ns"),
            flags::count("--to", &opts.to_ns, "only up to this virtual ns"),
            flags::count("--timeline", &opts.timeline,
                         "one request's cross-node timeline"),
            flags::count("--top", &opts.top, "the N slowest requests"),
            flags::path("--diff", &opts.diff_path, "second file to diff"),
            flags::toggle("--self-check", &opts.self_check,
                          "validate the dump's structure and exit")})
      .parse(argc, argv, 2);
  return trace::inspect::run(file, opts, std::cout, std::cerr);
}

// --- top/flame: offline views over timeseries dumps and trace JSON ---

int cmd_top(flags::Table& table, int argc, char** argv) {
  std::string file;
  obs::TopOptions opts;
  table
      .add({flags::positional("FILE", &file, "dcs-timeseries-v1 dump"),
            flags::toggle("--self-check", &opts.self_check,
                          "validate the dump's structure and exit"),
            flags::count("--node", &opts.node, "only this node's rows"),
            flags::count("--windows", &opts.windows,
                         "windows the rate columns span (0 = all)")})
      .parse(argc, argv, 2);
  return obs::run_top(file, opts, std::cout, std::cerr);
}

int cmd_explain(flags::Table& table, int argc, char** argv) {
  std::string file;
  obs::ExplainOptions opts;
  table
      .add({flags::positional("FILE", &file, "dcs-timeseries-v1 dump"),
            flags::path("--hotset", &opts.hotset, "dcs-hotset-v1 dump"),
            flags::path("--exemplars", &opts.exemplars,
                        "dcs-exemplar-v1 dump"),
            flags::path("--postmortem", &opts.postmortem,
                        "dcs-postmortem-v1 dump"),
            flags::count("--top", &opts.top,
                         "rows per hot-key table and exemplar series"),
            flags::toggle("--self-check", &opts.self_check,
                          "validate every dump's structure and exit")})
      .parse(argc, argv, 2);
  return obs::run_explain(file, opts, std::cout, std::cerr);
}

int cmd_flame(flags::Table& table, int argc, char** argv) {
  std::string file, out_path;
  table
      .add({flags::positional("FILE", &file, "--trace-out Chrome trace"),
            flags::path("--out", &out_path,
                        "write the profile here instead of stdout")})
      .parse(argc, argv, 2);
  if (out_path.empty()) return obs::run_flame(file, std::cout, std::cerr);
  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "flame: cannot open %s\n", out_path.c_str());
    return 2;
  }
  const int rc = obs::run_flame(file, os, std::cerr);
  if (rc == 0) std::fprintf(stderr, "flame: -> %s\n", out_path.c_str());
  return rc;
}

struct Command {
  const char* name;
  const char* about;
  int (*run)(flags::Table& table, int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"params", "dump the fabric cost model", cmd_params},
    {"cache", "cooperative cache run", cmd_cache},
    {"locks", "lock cascade run", cmd_locks},
    {"monitor", "resource monitor probe", cmd_monitor},
    {"storm", "STORM query run", cmd_storm},
    {"wedge", "seeded wedged run that trips the flight recorder", cmd_wedge},
    {"inspect", "offline debugger over postmortem/trace JSON", cmd_inspect},
    {"top", "cluster health tables and firing alerts from a timeseries dump",
     cmd_top},
    {"explain", "breach attribution: firing rules, hot keys, tail exemplars",
     cmd_explain},
    {"flame", "speedscope self-time profile from a --trace-out trace",
     cmd_flame},
};

/// The top-level usage: every command of kCommands, each of whose flag
/// tables prints its own usage under `dcs <command> --help`.
std::string usage() {
  std::string out =
      "usage: dcs <command> [flags]\n"
      "Scenario driver and offline debugger; `dcs <command> --help` lists\n"
      "a command's flags.  cache, locks, monitor and storm run as the\n"
      "bench::Harness scenario \"run\" and take its output flags.\n\n"
      "commands:\n";
  for (const Command& c : kCommands) {
    std::string head = std::string("  ") + c.name;
    head.resize(11, ' ');
    out += head + c.about + "\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "--help") {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }
  for (const Command& c : kCommands) {
    if (cmd != c.name) continue;
    flags::Table table("dcs " + cmd, c.about);
    return c.run(table, argc, argv);
  }
  std::fprintf(stderr, "dcs: %s\n%s",
               cmd.empty() ? "missing command"
                           : ("unknown command '" + cmd + "'").c_str(),
               usage().c_str());
  return 2;
}
