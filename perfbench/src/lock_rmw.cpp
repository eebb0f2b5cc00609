// Workload `lock-rmw`: N-CoSED-guarded read-modify-write over DDSS.
//
// One engine, 32 nodes with 1 MB of registered memory each, and exactly
// ONE closed-loop client strand per node: two strands on one node that
// take the same lock abort on N-CoSED's one-holder-per-node check
// (dlm/ncosed.cpp), so the multi-strand case waits for a node-local waiter
// queue.  Each operation picks one of 16 locks by Zipf.  About a quarter
// take the lock exclusive and increment the lock's DDSS counter (get ->
// +1 -> put, kWrite coherence); the rest take it shared and read the
// counter.  Two oracles check the outputs: every read under a lock sees
// the last committed value, and each counter finally equals the number of
// increments applied to it (no lost update).
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "ddss/ddss.hpp"
#include "dlm/ncosed.hpp"
#include "fabric/fabric.hpp"
#include "probe.hpp"

namespace dcs::perfbench {
namespace {

struct RmwConfig {
  std::size_t nodes = 32;
  std::size_t mem_per_node = 1u << 20;
  std::uint32_t ops = 2000;  // operations per client strand
  std::uint32_t locks = 16;
  double alpha = 0.9;
  double exclusive_share = 0.25;
  SimNanos think_lo = microseconds(1);  // closed-loop think time, uniform
  SimNanos think_hi = microseconds(5);
  std::uint64_t seed = 1;
};

using Counter = std::array<std::byte, sizeof(std::uint64_t)>;

std::uint64_t decode(const Counter& c) {
  std::uint64_t v = 0;
  std::memcpy(&v, c.data(), sizeof v);
  return v;
}

Counter encode(std::uint64_t v) {
  Counter c{};
  std::memcpy(c.data(), &v, sizeof v);
  return c;
}

struct Rig {
  Rig(sim::Engine& e, const RmwConfig& c, bool traced)
      : eng(e), cfg(c), spans(traced, 0), zipf(c.locks, c.alpha),
        committed(c.locks, 0), increments(c.locks, 0) {}

  sim::Engine& eng;
  RmwConfig cfg;
  std::unique_ptr<fabric::Fabric> fab;
  std::unique_ptr<verbs::Network> net;
  std::unique_ptr<ddss::Ddss> substrate;
  std::unique_ptr<dlm::NcosedLockManager> locks;
  std::vector<ddss::Allocation> counters;  // one per lock

  SpanLog spans;
  ZipfSampler zipf;
  LatencyLog op_lat, lock_lat, get_lat, put_lat;
  std::vector<std::uint64_t> committed;   // last value written, per lock
  std::vector<std::uint64_t> increments;  // exclusive increments, per lock
  std::uint64_t completed = 0, stale_reads = 0;
  SimNanos first_start = 0, last_done = 0;
};

sim::Task<void> client(Rig* r, fabric::NodeId self) {
  auto& eng = r->eng;
  Rng rng(r->cfg.seed ^ (std::uint64_t{self + 1} * 0x9E3779B97F4A7C15ULL));
  auto dc = r->substrate->client(self);
  for (std::uint32_t op = 0; op < r->cfg.ops; ++op) {
    co_await eng.delay(rng.uniform(r->cfg.think_lo, r->cfg.think_hi));
    const auto id = static_cast<dlm::LockId>(r->zipf.sample(rng));
    const bool exclusive = rng.chance(r->cfg.exclusive_share);
    const ddss::Allocation& alloc = r->counters[id];
    const SimNanos t0 = eng.now();
    const std::uint64_t request = r->spans.next_request();
    const std::size_t root = r->spans.open_root("op", request, t0);
    const SpanCtx ctx{request, request};
    co_await timed(eng, r->spans, r->lock_lat, "dlm.lock", ctx,
                   r->locks->lock(self, id,
                                  exclusive ? dlm::LockMode::kExclusive
                                            : dlm::LockMode::kShared));
    Counter value{};
    co_await timed(eng, r->spans, r->get_lat, "ddss.get", ctx,
                   dc.get(alloc, value));
    if (decode(value) != r->committed[id]) ++r->stale_reads;
    if (exclusive) {
      const std::uint64_t next = decode(value) + 1;
      const Counter bytes = encode(next);
      co_await timed(eng, r->spans, r->put_lat, "ddss.put", ctx,
                     dc.put(alloc, bytes));
      r->committed[id] = next;
      ++r->increments[id];
    }
    const std::size_t unlock = r->spans.open("dlm.unlock", ctx, eng.now());
    co_await r->locks->unlock(self, id);
    r->spans.close(unlock, eng.now());
    r->op_lat.add(eng.now() - t0);
    r->spans.close(root, eng.now());
    ++r->completed;
    r->last_done = eng.now();
  }
}

sim::Task<void> boot(Rig* r) {
  auto dc = r->substrate->client(0);
  for (std::uint32_t i = 0; i < r->cfg.locks; ++i) {
    r->counters.push_back(co_await dc.allocate(
        sizeof(std::uint64_t), ddss::Coherence::kWrite,
        ddss::Placement::kRoundRobin));
    co_await dc.put(r->counters.back(), encode(0));
  }
  r->first_start = r->eng.now();
  for (std::size_t n = 0; n < r->cfg.nodes; ++n) {
    r->eng.spawn(client(r, static_cast<fabric::NodeId>(n)));
  }
}

/// Reads every counter back after the run (the lost-update oracle).
sim::Task<void> read_back(Rig* r, std::vector<std::uint64_t>* out) {
  auto dc = r->substrate->client(0);
  for (const ddss::Allocation& alloc : r->counters) {
    Counter value{};
    co_await dc.get(alloc, value);
    out->push_back(decode(value));
  }
}

}  // namespace

Record run_lock_rmw(const Options& opts) {
  RmwConfig cfg;
  cfg.seed = opts.seed;
  Record rec;
  rec.config = {{"nodes", std::to_string(cfg.nodes)},
                {"mem_per_node_bytes", std::to_string(cfg.mem_per_node)},
                {"engine", "single"},
                {"workers", "1"},
                {"clients", std::to_string(cfg.nodes) + " (one per node)"},
                {"ops_per_client", std::to_string(cfg.ops)},
                {"locks", std::to_string(cfg.locks)},
                {"zipf_alpha", "0.9"},
                {"exclusive_share", "0.25"},
                {"loop", "closed"},
                {"think_us", "uniform[1,5]"}};

  const auto t_start = HostClock::now();
  sim::Engine eng;
  Rig rig(eng, cfg, opts.traced);
  {
    HostTimer t(&rec.host["fabric.setup_s"]);
    rig.fab = std::make_unique<fabric::Fabric>(
        eng, fabric::FabricParams{},
        fabric::ClusterSpec{.num_nodes = cfg.nodes,
                            .cores_per_node = 2,
                            .mem_per_node = cfg.mem_per_node});
  }
  {
    HostTimer t(&rec.host["verbs.setup_s"]);
    rig.net = std::make_unique<verbs::Network>(*rig.fab);
  }
  {
    HostTimer t(&rec.host["ddss.setup_s"]);
    rig.substrate = std::make_unique<ddss::Ddss>(*rig.net);
    rig.substrate->start();
  }
  rig.locks = std::make_unique<dlm::NcosedLockManager>(*rig.net, /*home=*/0);
  eng.spawn(boot(&rig));
  const auto t_run = HostClock::now();
  rec.host["setup_s"] = seconds_between(t_start, t_run);
  eng.run();
  const double run_s = seconds_between(t_run, HostClock::now());
  rec.host["run_s"] = run_s;
  rec.sim["sim.events"] = static_cast<double>(eng.events_dispatched());
  rec.fingerprint = eng.dispatch_fingerprint();

  // Registry reads happen before the read-back adds its own traffic.
  const double puts = static_cast<double>(rig.put_lat.count());
  const double excl = registry_count("dlm.ncosed.exclusive_acquires");
  read_verbs_counters(rec);
  rec.sim["ddss.lock_retry_ratio"] =
      puts > 0 ? registry_count("ddss.lock.cas_retries") / puts : 0.0;
  rec.sim["dlm.handoff_ratio"] =
      excl > 0 ? registry_count("dlm.ncosed.direct_handoffs") / excl : 0.0;
  rec.sim["fabric.wire_bytes"] =
      static_cast<double>(rig.fab->bytes_transferred());

  std::vector<std::uint64_t> finals;
  eng.spawn(read_back(&rig, &finals));
  eng.run();

  rec.attempted = std::uint64_t{cfg.nodes} * cfg.ops;
  rec.failed = rec.attempted - std::min(rec.attempted, rig.completed) +
               rig.stale_reads;
  if (rig.stale_reads != 0) {
    rec.violations.push_back(std::to_string(rig.stale_reads) +
                             " read(s) under a lock missed the last commit");
  }
  std::uint64_t lost = 0;
  for (std::uint32_t i = 0; i < cfg.locks; ++i) {
    if (i >= finals.size() || finals[i] != rig.increments[i]) ++lost;
  }
  if (lost != 0) {
    rec.violations.push_back(std::to_string(lost) +
                             " counter(s) differ from their increment count");
    rec.failed += lost;
  }

  const double span_s = to_secs(rig.last_done - rig.first_start);
  rec.sim["sim_ops_per_s"] =
      span_s > 0 ? static_cast<double>(rig.completed) / span_s : 0.0;
  rec.sim["sim_p50_us"] = rig.op_lat.percentile_us(0.50);
  rec.sim["sim_p99_us"] = rig.op_lat.percentile_us(0.99);
  rec.sim["sim_samples"] = static_cast<double>(rig.op_lat.count());
  rec.sim["fabric.registered_mb"] = registered_mb(*rig.fab);
  rec.sim["ddss.get_calls"] = static_cast<double>(rig.get_lat.count());
  rec.sim["ddss.get.sim_p50_us"] = rig.get_lat.percentile_us(0.50);
  rec.sim["ddss.get.sim_p99_us"] = rig.get_lat.percentile_us(0.99);
  rec.sim["ddss.put_calls"] = puts;
  rec.sim["ddss.put.sim_p50_us"] = rig.put_lat.percentile_us(0.50);
  rec.sim["ddss.put.sim_p99_us"] = rig.put_lat.percentile_us(0.99);
  rec.sim["dlm.acquires"] = static_cast<double>(rig.lock_lat.count());
  rec.sim["dlm.acquire.sim_p50_us"] = rig.lock_lat.percentile_us(0.50);
  rec.sim["dlm.acquire.sim_p99_us"] = rig.lock_lat.percentile_us(0.99);
  rec.sim["dlm.drain_polls_per_acquire"] =
      rig.lock_lat.count() > 0
          ? static_cast<double>(rig.locks->drain_polls()) /
                static_cast<double>(rig.lock_lat.count())
          : 0.0;
  rec.spans = std::move(rig.spans.spans());
  return rec;
}

}  // namespace dcs::perfbench
