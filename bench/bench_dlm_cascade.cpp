// E3/E4 — Figure 5: lock cascading latency vs number of waiting processes.
//
//   (a) shared waiters behind one exclusive holder: N-CoSED grants the
//       whole batch at release (near-flat), DQNL serializes a grant chain
//       (steep linear; paper: up to ~317 % worse at 16 nodes), SRSL pays a
//       server round trip per grant (linear).
//   (b) exclusive waiters: N-CoSED/DQNL hand off peer-to-peer (~39 % better
//       than SRSL in the paper).
//
// Also prints the Figure 4 sanity table: one-sided op counts for
// uncontended lock/unlock.
#include <memory>

#include "common/table.hpp"
#include "dlm/dqnl.hpp"
#include "dlm/ncosed.hpp"
#include "dlm/srsl.hpp"
#include "harness.hpp"

namespace {

using namespace dcs;
using dlm::LockMode;

enum class Scheme { kSrsl, kDqnl, kNcosed };
const char* name_of(Scheme s) {
  switch (s) {
    case Scheme::kSrsl: return "SRSL";
    case Scheme::kDqnl: return "DQNL";
    case Scheme::kNcosed: return "N-CoSED";
  }
  return "?";
}

struct World {
  sim::Engine& eng;
  fabric::Fabric fab;
  verbs::Network net;
  std::unique_ptr<dlm::LockManager> mgr;

  World(sim::Engine& engine, Scheme scheme)
      : eng(engine),
        fab(eng, fabric::FabricParams{},
            {.num_nodes = 20, .cores_per_node = 2}),
        net(fab) {
    switch (scheme) {
      case Scheme::kSrsl: {
        auto srsl = std::make_unique<dlm::SrslLockManager>(net, 0);
        srsl->start();
        mgr = std::move(srsl);
        break;
      }
      case Scheme::kDqnl:
        mgr = std::make_unique<dlm::DqnlLockManager>(net, 0);
        break;
      case Scheme::kNcosed:
        mgr = std::make_unique<dlm::NcosedLockManager>(net, 0);
        break;
    }
  }
};

/// Latency (µs) from the holder's release to the LAST pending waiter grant;
/// each waiter's acquisition is a trace::Request, so lock-wait shows up in
/// the attribution.
double cascade_latency_us(bench::Harness& h, Scheme scheme, LockMode mode,
                          int waiters) {
  const std::string name =
      std::string("cascade/") +
      (mode == LockMode::kShared ? "shared/" : "exclusive/") +
      std::to_string(waiters) + "/" + name_of(scheme);
  return h.run(name, [&](bench::Scenario& s) {
    World w(s.engine(), scheme);
    SimNanos release_at = 0, last_grant = 0;
    int granted = 0;
    w.eng.spawn([](World& world, SimNanos& rel) -> sim::Task<void> {
      co_await world.mgr->lock_exclusive(1, 0);
      co_await world.eng.delay(milliseconds(2));
      rel = world.eng.now();
      co_await world.mgr->unlock(1, 0);
    }(w, release_at));
    for (int i = 0; i < waiters; ++i) {
      w.eng.spawn([](World& world, fabric::NodeId self, LockMode m, int& g,
                     SimNanos& last) -> sim::Task<void> {
        co_await world.eng.delay(microseconds(100 + 10 * self));
        {
          trace::Request req("dlm.acquire", self, self);
          co_await world.mgr->lock(self, 0, m);
        }
        ++g;
        last = std::max(last, world.eng.now());
        co_await world.mgr->unlock(self, 0);
      }(w, static_cast<fabric::NodeId>(2 + i), mode, granted, last_grant));
    }
    w.eng.run();
    DCS_CHECK(granted == waiters);
    s.metric("cascade_us", to_micros(last_grant - release_at));
  })["cascade_us"];
}

const std::vector<int> kWaiters = {1, 2, 4, 8, 16};

void print_fig5(bench::Harness& h, LockMode mode, const char* title) {
  Table table({"# waiting", "SRSL (us)", "DQNL (us)", "N-CoSED (us)"});
  for (const int n : kWaiters) {
    table.add_row(std::to_string(n),
                  {cascade_latency_us(h, Scheme::kSrsl, mode, n),
                   cascade_latency_us(h, Scheme::kDqnl, mode, n),
                   cascade_latency_us(h, Scheme::kNcosed, mode, n)},
                  1);
  }
  table.print(title);
}

void print_fig4_op_counts(bench::Harness& h) {
  using Action = sim::Task<void> (*)(World&);
  const std::pair<const char*, Action> rows[] = {
      {"exclusive lock (free)",
       [](World& w) -> sim::Task<void> {
         co_await w.mgr->lock_exclusive(1, 1);
       }},
      {"exclusive unlock (no successor)",
       [](World& w) -> sim::Task<void> { co_await w.mgr->unlock(1, 1); }},
      {"shared lock (free)",
       [](World& w) -> sim::Task<void> { co_await w.mgr->lock_shared(1, 2); }},
      {"shared unlock",
       [](World& w) -> sim::Task<void> { co_await w.mgr->unlock(1, 2); }},
  };
  // One world runs the four operations in sequence, so the table is one
  // scenario with a pair of counters per row.
  auto r = h.run("fig4/op-counts", [&](bench::Scenario& s) {
    World w(s.engine(), Scheme::kNcosed);
    for (const auto& [label, action] : rows) {
      const auto ops0 = w.net.hca(1).one_sided_ops();
      const auto msg0 = w.net.hca(1).messages_sent();
      w.eng.spawn(action(w));
      w.eng.run();
      s.metric(std::string(label) + "/one-sided ops",
               static_cast<double>(w.net.hca(1).one_sided_ops() - ops0));
      s.metric(std::string(label) + "/messages",
               static_cast<double>(w.net.hca(1).messages_sent() - msg0));
    }
  });
  Table table({"operation", "one-sided ops", "messages"});
  for (const auto& [label, action] : rows) {
    const std::string key = label;
    table.add_row({label, Table::fmt(r[key + "/one-sided ops"], 0),
                   Table::fmt(r[key + "/messages"], 0)});
  }
  table.print(
      "Figure 4 — N-CoSED uncontended wire-level op counts "
      "(paper: one CAS / one FAA, no messages)");
}

/// Strands on nodes 1..`nodes` each run `iters` lock+unlock round trips on
/// one lock, every round trip a trace::Request.  Metrics: roundtrip_us
/// (time until the last strand finished / iters: the mean round trip of a
/// single strand) and kops_per_s (round trips per virtual second).
void lock_loop_cell(bench::Scenario& s, Scheme scheme, LockMode mode,
                    int nodes, int iters) {
  World w(s.engine(), scheme);
  SimNanos done = 0;
  int total_ops = 0;
  for (int n = 0; n < nodes; ++n) {
    w.eng.spawn([](World& world, fabric::NodeId self, LockMode m, int k,
                   int& ops, SimNanos& end,
                   bench::Scenario& out) -> sim::Task<void> {
      for (int i = 0; i < k; ++i) {
        const auto t0 = world.eng.now();
        {
          trace::Request req("dlm.roundtrip", self,
                             static_cast<std::uint64_t>(i));
          co_await world.mgr->lock(self, 0, m);
          co_await world.mgr->unlock(self, 0);
        }
        out.latency_ns(static_cast<double>(world.eng.now() - t0));
        ++ops;
      }
      end = std::max(end, world.eng.now());
    }(w, static_cast<fabric::NodeId>(1 + n), mode, iters, total_ops, done,
      s));
  }
  w.eng.run();
  s.metric("roundtrip_us", to_micros(done) / iters);
  s.metric("kops_per_s", static_cast<double>(total_ops) /
                             to_secs(w.eng.now()) / 1000.0);
}

void print_op_latency_table(bench::Harness& h) {
  Table table({"scheme", "excl lock+unlock (us)", "shared lock+unlock (us)"});
  for (const Scheme scheme :
       {Scheme::kSrsl, Scheme::kDqnl, Scheme::kNcosed}) {
    const auto roundtrip_us = [&](LockMode mode) {
      const std::string name =
          std::string("uncontended/") +
          (mode == LockMode::kShared ? "shared/" : "") + name_of(scheme);
      return h.run(name, [&](bench::Scenario& s) {
        lock_loop_cell(s, scheme, mode, 1, 20);
      })["roundtrip_us"];
    };
    table.add_row(name_of(scheme),
                  {roundtrip_us(LockMode::kExclusive),
                   roundtrip_us(LockMode::kShared)},
                  1);
  }
  table.print(
      "Uncontended lock+unlock round-trip latency "
      "(one-sided atomics vs server messaging)");
}

void print_throughput_table(bench::Harness& h) {
  Table table({"contending nodes", "SRSL kops/s", "DQNL kops/s",
               "N-CoSED kops/s"});
  for (const int nodes : {1, 4, 8}) {
    std::vector<double> row;
    for (const Scheme scheme :
         {Scheme::kSrsl, Scheme::kDqnl, Scheme::kNcosed}) {
      const std::string name =
          "throughput/" + std::to_string(nodes) + "/" + name_of(scheme);
      row.push_back(h.run(name, [&](bench::Scenario& s) {
        lock_loop_cell(s, scheme, LockMode::kExclusive, nodes, 60);
      })["kops_per_s"]);
    }
    table.add_row(std::to_string(nodes), row, 1);
  }
  table.print(
      "Exclusive lock throughput under contention (kops/s, one hot lock)");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::extract_harness_flags("dlm_cascade", argc, argv);
  bench::Harness h("dlm_cascade", opts);
  print_fig4_op_counts(h);
  print_op_latency_table(h);
  print_throughput_table(h);
  print_fig5(h, LockMode::kShared,
             "Figure 5a — shared-lock cascade latency after release "
             "(paper: N-CoSED up to ~317 % better than DQNL at 16)");
  print_fig5(h, LockMode::kExclusive,
             "Figure 5b — exclusive-lock cascade latency after release "
             "(paper: N-CoSED ~39 % better than SRSL)");
  return h.finish();
}
