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
  std::unique_ptr<sim::Engine> owned;  // empty when borrowing an engine
  sim::Engine& eng;
  fabric::Fabric fab;
  verbs::Network net;
  std::unique_ptr<dlm::LockManager> mgr;

  explicit World(Scheme scheme) : World(nullptr, scheme) {}
  World(sim::Engine& external, Scheme scheme) : World(&external, scheme) {}

 private:
  World(sim::Engine* external, Scheme scheme)
      : owned(external != nullptr ? nullptr : std::make_unique<sim::Engine>()),
        eng(external != nullptr ? *external : *owned),
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

/// Latency (µs) from the holder's release to the LAST pending waiter grant.
double cascade_latency_on(World& w, LockMode mode, int waiters) {
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
  return to_micros(last_grant - release_at);
}

double cascade_latency_us(Scheme scheme, LockMode mode, int waiters) {
  World w(scheme);
  return cascade_latency_on(w, mode, waiters);
}

const std::vector<int> kWaiters = {1, 2, 4, 8, 16};

void print_fig5(LockMode mode, const char* title) {
  Table table({"# waiting", "SRSL (us)", "DQNL (us)", "N-CoSED (us)"});
  for (const int n : kWaiters) {
    table.add_row(std::to_string(n),
                  {cascade_latency_us(Scheme::kSrsl, mode, n),
                   cascade_latency_us(Scheme::kDqnl, mode, n),
                   cascade_latency_us(Scheme::kNcosed, mode, n)},
                  1);
  }
  table.print(title);
}

void print_fig4_op_counts() {
  Table table({"operation", "one-sided ops", "messages"});
  World w(Scheme::kNcosed);
  auto count = [&w](const char* label, auto&& action) {
    const auto ops0 = w.net.hca(1).one_sided_ops();
    const auto msg0 = w.net.hca(1).messages_sent();
    w.eng.spawn(action(w));
    w.eng.run();
    return std::vector<std::string>{
        label, std::to_string(w.net.hca(1).one_sided_ops() - ops0),
        std::to_string(w.net.hca(1).messages_sent() - msg0)};
  };
  table.add_row(count("exclusive lock (free)", [](World& world) {
    return [](World& ww) -> sim::Task<void> {
      co_await ww.mgr->lock_exclusive(1, 1);
    }(world);
  }));
  table.add_row(count("exclusive unlock (no successor)", [](World& world) {
    return [](World& ww) -> sim::Task<void> {
      co_await ww.mgr->unlock(1, 1);
    }(world);
  }));
  table.add_row(count("shared lock (free)", [](World& world) {
    return [](World& ww) -> sim::Task<void> {
      co_await ww.mgr->lock_shared(1, 2);
    }(world);
  }));
  table.add_row(count("shared unlock", [](World& world) {
    return [](World& ww) -> sim::Task<void> {
      co_await ww.mgr->unlock(1, 2);
    }(world);
  }));
  table.print(
      "Figure 4 — N-CoSED uncontended wire-level op counts "
      "(paper: one CAS / one FAA, no messages)");
}

void print_op_latency_table() {
  Table table({"scheme", "excl lock+unlock (us)", "shared lock+unlock (us)"});
  for (const Scheme scheme :
       {Scheme::kSrsl, Scheme::kDqnl, Scheme::kNcosed}) {
    auto measure = [&scheme](LockMode mode) {
      World w(scheme);
      double us = 0;
      w.eng.spawn([](World& world, LockMode m, double& out) -> sim::Task<void> {
        const auto t0 = world.eng.now();
        constexpr int kIters = 20;
        for (int i = 0; i < kIters; ++i) {
          co_await world.mgr->lock(1, 0, m);
          co_await world.mgr->unlock(1, 0);
        }
        out = to_micros(world.eng.now() - t0) / kIters;
      }(w, mode, us));
      w.eng.run();
      return us;
    };
    table.add_row(name_of(scheme),
                  {measure(LockMode::kExclusive), measure(LockMode::kShared)},
                  1);
  }
  table.print(
      "Uncontended lock+unlock round-trip latency "
      "(one-sided atomics vs server messaging)");
}

void print_throughput_table() {
  Table table({"contending nodes", "SRSL kops/s", "DQNL kops/s",
               "N-CoSED kops/s"});
  for (const int nodes : {1, 4, 8}) {
    std::vector<double> row;
    for (const Scheme scheme :
         {Scheme::kSrsl, Scheme::kDqnl, Scheme::kNcosed}) {
      World w(scheme);
      int total_ops = 0;
      for (int n = 0; n < nodes; ++n) {
        w.eng.spawn([](World& world, fabric::NodeId self, int& ops)
                        -> sim::Task<void> {
          for (int i = 0; i < 60; ++i) {
            co_await world.mgr->lock_exclusive(self, 0);
            co_await world.mgr->unlock(self, 0);
            ++ops;
          }
        }(w, static_cast<fabric::NodeId>(1 + n), total_ops));
      }
      w.eng.run();
      row.push_back(static_cast<double>(total_ops) / to_secs(w.eng.now()) /
                    1000.0);
    }
    table.add_row(std::to_string(nodes), row, 1);
  }
  table.print(
      "Exclusive lock throughput under contention (kops/s, one hot lock)");
}

// Harnessed scenarios (docs/BENCHMARKS.md): per scheme, the Figure 5
// shared-cascade latency at 8 waiters plus uncontended lock+unlock
// round trips (each acquisition a trace::Request, so lock-wait shows up
// in the attribution).
int run_harness(const bench::HarnessOptions& opts) {
  bench::Harness h("dlm_cascade", opts);
  for (const Scheme scheme :
       {Scheme::kSrsl, Scheme::kDqnl, Scheme::kNcosed}) {
    h.run(std::string("cascade/shared/8/") + name_of(scheme),
          [scheme](bench::Scenario& s) {
            World w(s.engine(), scheme);
            s.metric("cascade_us", cascade_latency_on(w, LockMode::kShared, 8));
          });
    h.run(std::string("uncontended/") + name_of(scheme),
          [scheme](bench::Scenario& s) {
            World w(s.engine(), scheme);
            w.eng.spawn([](World& world, bench::Scenario& out)
                            -> sim::Task<void> {
              constexpr int kIters = 20;
              for (int i = 0; i < kIters; ++i) {
                const auto t0 = world.eng.now();
                {
                  trace::Request req("dlm.roundtrip", 1,
                                     static_cast<std::uint64_t>(i));
                  co_await world.mgr->lock(1, 0, LockMode::kExclusive);
                  co_await world.mgr->unlock(1, 0);
                }
                out.latency_ns(static_cast<double>(world.eng.now() - t0));
              }
            }(w, s));
            w.eng.run();
          });
  }
  return h.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto harness = bench::extract_harness_flags(argc, argv);
  if (harness.harness_mode() || !harness.postmortem_dir.empty()) {
    return run_harness(harness);
  }
  print_fig4_op_counts();
  print_op_latency_table();
  print_throughput_table();
  print_fig5(LockMode::kShared,
             "Figure 5a — shared-lock cascade latency after release "
             "(paper: N-CoSED up to ~317 % better than DQNL at 16)");
  print_fig5(LockMode::kExclusive,
             "Figure 5b — exclusive-lock cascade latency after release "
             "(paper: N-CoSED ~39 % better than SRSL)");
  return 0;
}
