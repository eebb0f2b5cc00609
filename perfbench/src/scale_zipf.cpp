// Workload `scale-zipf`: the 1024-node sharded data center of
// bench/bench_datacenter_scale.cpp, driven open loop.
//
// 16 partitions (each a Fabric of 64 two-core nodes with 64 KB of
// registered memory, a verbs network, DDSS, an N-CoSED lock manager and an
// RDMA-Sync health plane) run on sim::ShardedEngine worker threads.  Four
// client strands per partition issue operations on a seeded virtual-time
// schedule, keyed by Zipf over the GLOBAL node space.  Each operation is
// spawned at its due time, so the generator is never late.  A local key is
// a DDSS get on the keyed node (every 8th local operation of a client also
// takes an N-CoSED exclusive lock from the client's node); a remote key
// crosses partitions as a request the owner serves with host CPU and a
// DDSS get, then answers.  Latency runs from the due time to completion.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "fabric/fabric.hpp"
#include "monitor/telemetry.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "probe.hpp"
#include "sim/shard.hpp"
#include "sim/sync.hpp"
#include "trace/shard_metrics.hpp"
#include "trace/trace.hpp"

namespace dcs::perfbench {
namespace {

constexpr std::uint64_t kReq = 1;   // a = op seq << 16 | key, b = due time
constexpr std::uint64_t kResp = 2;  // echoes the request's a and b
constexpr std::size_t kAllocs = 8;
constexpr std::size_t kValueBytes = 64;
constexpr SimNanos kSlowServeNs = 20000;

struct ScaleConfig {
  std::size_t nodes = 1024;
  std::uint32_t partitions = 16;
  std::uint32_t workers = 2;
  std::uint32_t clients = 4;   // client strands per partition
  std::uint32_t ops = 640;     // operations per client strand
  double alpha = 0.9;
  std::size_t mem_per_node = 64u << 10;
  SimNanos settle = microseconds(50);
  SimNanos gap_lo = microseconds(4);   // open-loop inter-arrival, uniform
  SimNanos gap_hi = microseconds(28);
  std::uint32_t lock_every = 8;  // every Nth local op of a client locks
  SimNanos scrape_interval = microseconds(50);
  std::uint64_t seed = 1;

  std::uint64_t scrapes() const {
    return static_cast<std::uint64_t>((settle + ops * gap_hi) /
                                      scrape_interval) + 1;
  }
};

monitor::TelemetrySchema serve_schema() {
  using monitor::MetricKind;
  return monitor::TelemetrySchema(
      std::vector<monitor::TelemetrySchema::Entry>{
          {DCS_SERIES("scale.serve.latency_ns"), MetricKind::kHistogram},
          {DCS_SERIES("scale.serve.slow"), MetricKind::kCounter},
          {DCS_SERIES("scale.serve.total"), MetricKind::kCounter}});
}

struct Pending {
  SimNanos due = 0;
  std::size_t root = 0;  // span slot
  bool answered = false;
};

/// One partition's slice of the data center and of the measurements.
/// Built by the setup factory on the owning worker and parked there.
struct Part {
  Part(sim::Shard& shard, const ScaleConfig& cfg, bool traced)
      : eng(shard.engine()), spans(traced, shard.index()) {
    {
      HostTimer t(&fabric_setup_s);
      fab = std::make_unique<fabric::Fabric>(
          eng, fabric::FabricParams{},
          fabric::ClusterSpec{.num_nodes = cfg.nodes / cfg.partitions,
                              .cores_per_node = 2,
                              .mem_per_node = cfg.mem_per_node});
    }
    {
      HostTimer t(&verbs_setup_s);
      net = std::make_unique<verbs::Network>(*fab);
    }
    {
      HostTimer t(&ddss_setup_s);
      substrate = std::make_unique<ddss::Ddss>(*net);
      substrate->start();
    }
    locks = std::make_unique<dlm::NcosedLockManager>(*net, /*home=*/0);
    zipf = std::make_unique<ZipfSampler>(cfg.nodes, cfg.alpha);
    exporter = std::make_unique<monitor::TelemetryExporter>(
        *net, /*node=*/0, serve_schema(), cfg.scrape_interval, &serve_reg);
    scraper = std::make_unique<monitor::TelemetryScraper>(*net, 1);
    scraper->attach(*exporter);
    store = std::make_unique<obs::TimeSeriesStore>(obs::TimeSeriesConfig{
        .window = cfg.scrape_interval, .retention = 64});
    slo = std::make_unique<obs::SloEngine>(*store);
    obs::SloRule burn;
    burn.name = DCS_SLO_NAME("serve-slow-burn");
    burn.kind = obs::SloKind::kBurnRate;
    burn.series = DCS_SERIES("scale.serve.slow");
    burn.total = DCS_SERIES("scale.serve.total");
    burn.threshold = 0.05;
    burn.fast_windows = 2;
    burn.slow_windows = 8;
    burn.fast_burn = 4.0;
    burn.slow_burn = 2.0;
    slo->add_rule(std::move(burn));
    for (std::uint32_t c = 0; c < cfg.clients; ++c) {
      gates.push_back(std::make_unique<sim::Mutex>(eng));
    }
  }

  sim::Engine& eng;
  std::unique_ptr<fabric::Fabric> fab;
  std::unique_ptr<verbs::Network> net;
  std::unique_ptr<ddss::Ddss> substrate;
  std::unique_ptr<dlm::NcosedLockManager> locks;
  std::unique_ptr<ZipfSampler> zipf;
  trace::Registry serve_reg;
  std::unique_ptr<monitor::TelemetryExporter> exporter;
  std::unique_ptr<monitor::TelemetryScraper> scraper;
  std::unique_ptr<obs::TimeSeriesStore> store;
  std::unique_ptr<obs::SloEngine> slo;
  /// N-CoSED admits one holder of a lock per node, so each client holds
  /// at most one lock at a time even when its operations overlap.
  std::vector<std::unique_ptr<sim::Mutex>> gates;
  std::vector<ddss::Allocation> allocs;

  // Measurements (written only by this partition's strands).
  SpanLog spans;
  LatencyLog op_lat, get_lat, lock_lat, scrape_lat;
  std::vector<Pending> pending;  // by op seq - 1
  std::uint64_t completed = 0, remote_sent = 0, remote_answered = 0;
  std::uint64_t served = 0, stray_responses = 0;
  SimNanos last_done = 0;
  double fabric_setup_s = 0, verbs_setup_s = 0, ddss_setup_s = 0;
};

std::uint64_t request_of(std::uint32_t owner, std::uint64_t seq) {
  return (std::uint64_t{owner} + 1) << 40 | seq;
}

/// The DDSS object a key maps to.  The settle delay orders every
/// partition's boot before the first operation can arrive.
const ddss::Allocation& alloc_of(const Part& p, std::size_t key) {
  DCS_CHECK_MSG(!p.allocs.empty(), "operation arrived before boot finished");
  return p.allocs[key % p.allocs.size()];
}

void finish_op(Part& p, std::size_t root, SimNanos due) {
  const SimNanos now = p.eng.now();
  p.op_lat.add(now - due);
  p.spans.close(root, now);
  ++p.completed;
  p.last_done = std::max(p.last_done, now);
}

sim::Task<void> local_op(sim::Shard& shard, Part* p, std::uint32_t client,
                         std::size_t key, bool lock, std::uint64_t seq,
                         SimNanos due) {
  auto& eng = shard.engine();
  const std::uint64_t request = request_of(shard.index(), seq);
  const std::size_t root = p->spans.open_root("op", request, due);
  const SpanCtx ctx{request, request};
  const auto node = static_cast<fabric::NodeId>(key % p->fab->size());
  std::array<std::byte, kValueBytes> buf{};
  co_await timed(eng, p->spans, p->get_lat, "ddss.get", ctx,
                 p->substrate->client(node).get(alloc_of(*p, key), buf));
  if (lock) {
    const auto self = static_cast<fabric::NodeId>(client);
    const auto id = static_cast<dlm::LockId>(key % 16);
    co_await p->gates[client]->acquire();
    co_await timed(eng, p->spans, p->lock_lat, "dlm.lock", ctx,
                   p->locks->lock(self, id, dlm::LockMode::kExclusive));
    co_await p->fab->node(self).execute(microseconds(2));
    co_await p->locks->unlock(self, id);
    p->gates[client]->release();
  }
  finish_op(*p, root, due);
}

/// Open-loop generator: sleeps to each due time and spawns the operation,
/// so no operation waits on an earlier one.
sim::Task<void> client_strand(sim::Shard& shard, Part* p, ScaleConfig cfg,
                              std::uint32_t client) {
  auto& eng = shard.engine();
  Rng rng(cfg.seed ^ (std::uint64_t{shard.index()} << 32) ^
          (std::uint64_t{client + 1} * 0x9E3779B97F4A7C15ULL));
  SimNanos due = cfg.settle + client * nanoseconds(137);
  std::uint32_t local_ops = 0;
  for (std::uint32_t op = 0; op < cfg.ops; ++op) {
    due += rng.uniform(cfg.gap_lo, cfg.gap_hi);
    co_await eng.delay(due - eng.now());
    const std::size_t key = p->zipf->sample(rng);
    const auto target = static_cast<std::uint32_t>(key / p->fab->size());
    p->pending.push_back(Pending{.due = due});
    const std::uint64_t seq = p->pending.size();
    if (target != shard.index()) {
      p->pending.back().root = p->spans.open_root(
          "op", request_of(shard.index(), seq), due);
      ++p->remote_sent;
      shard.send(target, kReq, seq << 16 | key,
                 static_cast<std::uint64_t>(due));
      continue;
    }
    p->pending.back().answered = true;
    const bool lock = local_ops++ % cfg.lock_every == 0;
    eng.spawn(local_op(shard, p, client, key, lock, seq, due));
  }
}

/// Serves a remote request on the partition that owns its key.
sim::Task<void> serve(sim::Shard& shard, Part* p, sim::ShardMsg msg) {
  auto& eng = shard.engine();
  const SimNanos t0 = eng.now();
  const std::size_t key = msg.a & 0xFFFF;
  const std::uint64_t request = request_of(msg.src, msg.a >> 16);
  SpanCtx ctx;
  const std::size_t slot =
      p->spans.open("serve.remote", SpanCtx{request, request}, t0, &ctx);
  const auto node = static_cast<fabric::NodeId>(key % p->fab->size());
  co_await p->fab->node(node).execute(microseconds(1) +
                                      (key % 4) * nanoseconds(500));
  std::array<std::byte, kValueBytes> buf{};
  co_await timed(eng, p->spans, p->get_lat, "ddss.get", ctx,
                 p->substrate->client(node).get(alloc_of(*p, key), buf));
  const SimNanos took = eng.now() - t0;
  p->serve_reg.counter("scale.serve.total").add(1);
  if (took > kSlowServeNs) p->serve_reg.counter("scale.serve.slow").add(1);
  p->serve_reg.histogram("scale.serve.latency_ns")
      .record(static_cast<std::uint64_t>(took));
  ++p->served;
  p->spans.close(slot, eng.now());
  shard.send(msg.src, kResp, msg.a, msg.b);
}

void on_response(Part& p, const sim::ShardMsg& msg) {
  const std::uint64_t seq = msg.a >> 16;
  if (seq == 0 || seq > p.pending.size() || p.pending[seq - 1].answered) {
    ++p.stray_responses;
    return;
  }
  Pending& op = p.pending[seq - 1];
  op.answered = true;
  ++p.remote_answered;
  finish_op(p, op.root, op.due);
}

sim::Task<void> scrape_strand(sim::Shard& shard, Part* p, ScaleConfig cfg) {
  auto& eng = shard.engine();
  co_await eng.delay(cfg.scrape_interval / 2);
  const std::vector<fabric::NodeId> targets = {0};
  for (std::uint64_t pass = 0; pass < cfg.scrapes(); ++pass) {
    co_await eng.delay(cfg.scrape_interval);
    const std::uint64_t request =
        request_of(shard.index(), (std::uint64_t{1} << 32) + pass);
    const std::size_t root = p->spans.open_root("monitor.scrape", request,
                                                eng.now());
    const SimNanos t0 = eng.now();
    const auto snaps = co_await p->scraper->scrape_many(targets);
    p->scrape_lat.add(eng.now() - t0);
    p->spans.close(root, eng.now());
    p->store->ingest(shard.index(), p->exporter->schema(), snaps[0]);
    p->slo->evaluate(eng.now());
  }
}

sim::Task<void> boot(sim::Shard& shard, Part* p, ScaleConfig cfg) {
  auto client = p->substrate->client(0);
  for (std::size_t i = 0; i < kAllocs; ++i) {
    p->allocs.push_back(
        co_await client.allocate(kValueBytes, ddss::Coherence::kWrite));
  }
  for (std::uint32_t c = 0; c < cfg.clients; ++c) {
    shard.engine().spawn(client_strand(shard, p, cfg, c));
  }
}

double sum_of(const std::vector<Part*>& parts, double Part::*field) {
  double total = 0;
  for (const Part* p : parts) total += p->*field;
  return total;
}

}  // namespace

Record run_scale_zipf(const Options& opts) {
  ScaleConfig cfg;
  cfg.seed = opts.seed;
  if (opts.workers != 0) cfg.workers = opts.workers;
  Record rec;
  rec.config = {{"nodes", std::to_string(cfg.nodes)},
                {"partitions", std::to_string(cfg.partitions)},
                {"clients_per_partition", std::to_string(cfg.clients)},
                {"ops_per_client", std::to_string(cfg.ops)},
                {"zipf_alpha", "0.9"},
                {"mem_per_node_bytes", std::to_string(cfg.mem_per_node)},
                {"loop", "open"},
                {"interarrival_us", "uniform[4,28]"},
                {"lock_every_local_op", std::to_string(cfg.lock_every)},
                {"scrape_interval_us", "50"}};

  const auto t_start = HostClock::now();
  std::vector<Part*> parts(cfg.partitions, nullptr);
  double run_s = 0;
  {
    sim::ShardedEngine sharded(
        {.partitions = cfg.partitions,
         .workers = cfg.workers,
         .lookahead = fabric::FabricParams{}.link_latency});
    sharded.setup([&](sim::Shard& shard) {
      auto part = std::make_shared<Part>(shard, cfg, opts.traced);
      Part* p = part.get();
      parts[shard.index()] = p;
      shard.set_handler([p](sim::Shard& s, const sim::ShardMsg& msg) {
        if (msg.tag == kReq) {
          s.engine().spawn(serve(s, p, msg));
        } else {
          on_response(*p, msg);
        }
      });
      p->exporter->start(cfg.scrapes() + 1);
      shard.engine().spawn(boot(shard, p, cfg));
      shard.engine().spawn(scrape_strand(shard, p, cfg));
      shard.keep_alive(std::move(part));
    });
    const auto t_run = HostClock::now();
    rec.host["setup_s"] = seconds_between(t_start, t_run);
    sharded.run();
    run_s = seconds_between(t_run, HostClock::now());
    rec.host["run_s"] = run_s;

    // ---- simulator layer ----
    const auto events = sharded.partition_events();
    const auto walls = sharded.worker_wall_ns();
    const double busiest =
        static_cast<double>(*std::max_element(walls.begin(), walls.end())) /
        1e9;
    const double mean_events =
        static_cast<double>(sharded.events_dispatched()) /
        static_cast<double>(events.size());
    rec.host["sim.busiest_worker_s"] = busiest;
    rec.host["sim.outside_window_s"] = run_s - busiest;
    rec.sim["sim.events"] = static_cast<double>(sharded.events_dispatched());
    rec.sim["sim.cross_msgs"] = static_cast<double>(sharded.cross_messages());
    rec.sim["sim.windows"] = static_cast<double>(sharded.windows());
    rec.sim["sim.partition_imbalance"] =
        static_cast<double>(*std::max_element(events.begin(), events.end())) /
        mean_events;
    rec.fingerprint = sharded.merged_fingerprint();

    // ---- client operations ----
    LatencyLog ops, gets, locks, scrapes;
    std::uint64_t issued = 0, completed = 0, sent = 0, answered = 0;
    std::uint64_t served = 0, strays = 0, alerts = 0;
    SimNanos last_done = 0;
    double registered = 0, wire = 0;
    for (Part* p : parts) {
      ops.merge(p->op_lat);
      gets.merge(p->get_lat);
      locks.merge(p->lock_lat);
      scrapes.merge(p->scrape_lat);
      issued += p->pending.size();
      completed += p->completed;
      sent += p->remote_sent;
      answered += p->remote_answered;
      served += p->served;
      strays += p->stray_responses;
      alerts += p->slo->alerts().size();
      last_done = std::max(last_done, p->last_done);
      registered += registered_mb(*p->fab);
      wire += static_cast<double>(p->fab->bytes_transferred());
      for (auto& s : p->spans.spans()) rec.spans.push_back(s);
    }
    rec.attempted = std::uint64_t{cfg.partitions} * cfg.clients * cfg.ops;
    if (issued != rec.attempted) {
      rec.violations.push_back("issued " + std::to_string(issued) +
                               " of " + std::to_string(rec.attempted) +
                               " operations");
    }
    if (answered != sent || served != sent || strays != 0) {
      rec.violations.push_back(
          "cross-shard requests: sent " + std::to_string(sent) +
          ", served " + std::to_string(served) + ", answered " +
          std::to_string(answered) + ", stray " + std::to_string(strays));
    }
    rec.failed = rec.attempted - std::min(rec.attempted, completed);
    const double span_s = to_secs(last_done - cfg.settle);
    rec.sim["sim_ops_per_s"] =
        span_s > 0 ? static_cast<double>(completed) / span_s : 0.0;
    rec.sim["sim_p50_us"] = ops.percentile_us(0.50);
    rec.sim["sim_p99_us"] = ops.percentile_us(0.99);
    rec.sim["sim_samples"] = static_cast<double>(ops.count());
    rec.sim["fabric.registered_mb"] = registered;
    rec.sim["fabric.wire_bytes"] = wire;
    rec.sim["ddss.get_calls"] = static_cast<double>(gets.count());
    rec.sim["ddss.get.sim_p50_us"] = gets.percentile_us(0.50);
    rec.sim["ddss.get.sim_p99_us"] = gets.percentile_us(0.99);
    rec.sim["dlm.acquires"] = static_cast<double>(locks.count());
    rec.sim["dlm.acquire.sim_p50_us"] = locks.percentile_us(0.50);
    rec.sim["dlm.acquire.sim_p99_us"] = locks.percentile_us(0.99);
    double drain_polls = 0;
    for (Part* p : parts) {
      drain_polls += static_cast<double>(p->locks->drain_polls());
    }
    rec.sim["dlm.drain_polls_per_acquire"] =
        locks.count() > 0 ? drain_polls / static_cast<double>(locks.count())
                          : 0.0;
    rec.sim["monitor.scrapes"] = static_cast<double>(scrapes.count());
    rec.sim["monitor.scrape.sim_p50_us"] = scrapes.percentile_us(0.50);
    rec.sim["obs.alert_transitions"] = static_cast<double>(alerts);
    rec.host["fabric.setup_s"] = sum_of(parts, &Part::fabric_setup_s);
    rec.host["verbs.setup_s"] = sum_of(parts, &Part::verbs_setup_s);
    rec.host["ddss.setup_s"] = sum_of(parts, &Part::ddss_setup_s);

    // The layers' registry counters sit behind process-wide metric caches
    // pinned to the first worker's registry, so they are exact only when
    // one worker runs every partition.
    if (sharded.workers() == 1) {
      trace::collect_shard_registries(sharded);
      read_verbs_counters(rec);
      const double excl = registry_count("dlm.ncosed.exclusive_acquires");
      rec.sim["dlm.handoff_ratio"] =
          excl > 0 ? registry_count("dlm.ncosed.direct_handoffs") / excl
                   : 0.0;
    }
    rec.config["workers"] = std::to_string(sharded.workers());
  }
  return rec;
}

}  // namespace dcs::perfbench
