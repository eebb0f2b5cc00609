// Property tests for the simulation engine: determinism across runs,
// conservation invariants of the sync primitives under random task graphs,
// and clock monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dcs::sim {
namespace {

// Builds a pseudo-random workload of interacting coroutines and returns a
// fingerprint of the run (event count, final time, and an order-sensitive
// hash of observable actions).
struct RunFingerprint {
  std::uint64_t events;
  Time final_time;
  std::uint64_t action_hash;
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_random_workload(std::uint64_t seed) {
  Engine eng;
  Semaphore sem(eng, 3);
  Mutex mtx(eng);
  Channel<int> chan(eng);
  Event gate(eng);
  std::uint64_t hash = 14695981039346656037ULL;
  auto record = [&hash](std::uint64_t v) {
    hash = (hash ^ v) * 1099511628211ULL;
  };

  for (int id = 0; id < 24; ++id) {
    eng.spawn([](Engine& e, Semaphore& s, Mutex& m, Channel<int>& ch,
                 Event& g, int self, std::uint64_t wseed,
                 decltype(record)& rec) -> Task<void> {
      Rng rng(wseed ^ (self * 0x9E3779B9ULL));
      for (int step = 0; step < 12; ++step) {
        switch (rng.uniform(5)) {
          case 0:
            co_await e.delay(rng.uniform(1, 500));
            break;
          case 1: {
            co_await s.acquire();
            co_await e.delay(rng.uniform(1, 50));
            s.release();
            break;
          }
          case 2: {
            auto guard = co_await m.scoped();
            rec(static_cast<std::uint64_t>(self) * 1000 + step);
            co_await e.delay(rng.uniform(1, 30));
            break;
          }
          case 3:
            ch.push(self * 100 + step);
            break;
          case 4:
            if (auto v = ch.try_recv()) rec(static_cast<std::uint64_t>(*v));
            break;
        }
      }
      if (self == 7) g.set();
      if (self == 8) co_await g.wait();
    }(eng, sem, mtx, chan, gate, id, seed, record));
  }
  eng.run();
  return RunFingerprint{eng.events_dispatched(), eng.now(), hash};
}

TEST(SimPropertyTest, IdenticalSeedsReplayIdentically) {
  for (std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    EXPECT_EQ(run_random_workload(seed), run_random_workload(seed))
        << "seed " << seed;
  }
}

TEST(SimPropertyTest, DifferentSeedsDiffer) {
  EXPECT_NE(run_random_workload(1).action_hash,
            run_random_workload(2).action_hash);
}

TEST(SimPropertyTest, SemaphorePermitsConserved) {
  // Random acquire/release patterns must end with all permits returned and
  // never exceed the configured concurrency.
  Engine eng;
  constexpr std::size_t kPermits = 4;
  Semaphore sem(eng, kPermits);
  int active = 0, peak = 0;
  for (int id = 0; id < 30; ++id) {
    eng.spawn([](Engine& e, Semaphore& s, int self, int& act, int& pk)
                  -> Task<void> {
      Rng rng(7000 + self);
      for (int i = 0; i < 8; ++i) {
        co_await e.delay(rng.uniform(1, 100));
        co_await s.acquire();
        ++act;
        pk = std::max(pk, act);
        co_await e.delay(rng.uniform(1, 40));
        --act;
        s.release();
      }
    }(eng, sem, id, active, peak));
  }
  eng.run();
  EXPECT_EQ(active, 0);
  EXPECT_LE(peak, static_cast<int>(kPermits));
  EXPECT_EQ(sem.available(), kPermits);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(SimPropertyTest, ChannelConservesAndOrdersMessages) {
  // Everything pushed is received exactly once, and per-producer order is
  // preserved (FIFO channel, single consumer).
  Engine eng;
  Channel<std::pair<int, int>> chan(eng);
  constexpr int kProducers = 6, kPerProducer = 40;
  for (int p = 0; p < kProducers; ++p) {
    eng.spawn([](Engine& e, Channel<std::pair<int, int>>& ch, int self)
                  -> Task<void> {
      Rng rng(900 + self);
      for (int i = 0; i < kPerProducer; ++i) {
        co_await e.delay(rng.uniform(1, 60));
        ch.push({self, i});
      }
    }(eng, chan, p));
  }
  std::vector<int> last_seen(kProducers, -1);
  int received = 0;
  bool order_violation = false, duplicate = false;
  eng.spawn([](Channel<std::pair<int, int>>& ch, std::vector<int>& last,
               int& count, bool& ooo, bool& dup) -> Task<void> {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      auto [p, seq] = co_await ch.recv();
      if (seq <= last[p]) (seq == last[p] ? dup : ooo) = true;
      last[p] = seq;
      ++count;
    }
  }(chan, last_seen, received, order_violation, duplicate));
  eng.run();
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_FALSE(order_violation);
  EXPECT_FALSE(duplicate);
  EXPECT_TRUE(chan.empty());
}

TEST(SimPropertyTest, ClockNeverMovesBackwards) {
  Engine eng;
  bool regression = false;
  for (int id = 0; id < 10; ++id) {
    eng.spawn([](Engine& e, int self, bool& bad) -> Task<void> {
      Rng rng(3000 + self);
      Time prev = e.now();
      for (int i = 0; i < 50; ++i) {
        co_await e.delay(rng.uniform(0, 200));
        if (e.now() < prev) bad = true;
        prev = e.now();
      }
    }(eng, id, regression));
  }
  eng.run();
  EXPECT_FALSE(regression);
}

TEST(SimPropertyTest, WhenAllWithRandomDurationsFinishesAtMax) {
  Engine eng;
  Rng rng(31337);
  std::vector<Time> durations;
  for (int i = 0; i < 40; ++i) durations.push_back(rng.uniform(1, 10000));
  const Time expected = *std::max_element(durations.begin(), durations.end());
  eng.spawn([](Engine& e, std::vector<Time> durs, Time want) -> Task<void> {
    std::vector<Task<void>> tasks;
    for (const Time d : durs) {
      tasks.push_back([](Engine& e2, Time dd) -> Task<void> {
        co_await e2.delay(dd);
      }(e, d));
    }
    co_await e.when_all(std::move(tasks));
    DCS_CHECK(e.now() == want);
  }(eng, durations, expected));
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(eng.now(), expected);
}

TEST(SimPropertyTest, ManyEngineLifecyclesAreIndependent) {
  // Engines must not share hidden state: interleaved construction and runs
  // give the same results as isolated ones.
  const auto isolated = run_random_workload(5);
  Engine other;
  other.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(123);
  }(other));
  const auto interleaved = run_random_workload(5);
  other.run();
  EXPECT_EQ(isolated, interleaved);
}

// Timer-queue oracle: thousands of strands drive the ready ring and the
// timer heap through same-time ties, deep queues and far-future deadlines,
// plus schedule_cross wakes, and every dispatch must be the minimum of a
// std::set holding everything scheduled and not yet run.  Seqs are predicted
// by mirroring the engine's counter: each spawn and each delay consumes one,
// a cross wake none.  The set orders by (time, tier, seq), tier 0 for timers
// and 1 for ready-ring entries: due timers run before the ring, which is
// plain (time, seq) order for counter seqs, and also puts a cross wake
// (kCrossSeq) ahead of ring work scheduled at its own time.
struct TimerOracle {
  struct Key {
    Time t;
    int tier;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };

  Engine eng;
  std::set<Key> pending;
  std::uint64_t next_seq = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t same_time_timers = 0;
  std::size_t max_depth = 0;
  std::vector<std::coroutine_handle<>> parked;

  Key expect(Time t) {
    const int tier = t == eng.now() ? 1 : 0;
    // A future deadline another pending timer already holds: a heap tie
    // that only the seq breaks.
    const auto tie = pending.lower_bound({t, 0, 0});
    if (tier == 0 && tie != pending.end() && tie->t == t && tie->tier == 0) {
      ++same_time_timers;
    }
    const Key k{t, tier, next_seq++};
    pending.insert(k);
    max_depth = std::max(max_depth, pending.size());
    return k;
  }

  // Called first thing after every resume: the engine's coordinates for
  // this dispatch must be those of the reference minimum, which must be
  // the entry the resumed strand scheduled.
  void dispatch(const Key& want) {
    const bool ok = !pending.empty() && *pending.begin() == want &&
                    eng.now() == want.t && eng.last_dispatch_seq() == want.seq;
    if (!ok) ++mismatches;
    pending.erase(want);
    ++dispatched;
  }

  void wake_parked(Rng& rng, std::set<Time>& cross_times) {
    for (std::coroutine_handle<> h : parked) {
      Time t;
      do {
        t = eng.now() + rng.uniform(1, 20'000);
      } while (!cross_times.insert(t).second);
      pending.insert({t, 0, Engine::kCrossSeq});
      eng.schedule_cross(h, t);
    }
    parked.clear();
  }
};

Task<void> oracle_strand(TimerOracle& o, std::uint64_t self, int steps,
                         TimerOracle::Key start) {
  o.dispatch(start);
  Rng rng(0x71e3ULL * (self + 1));
  for (int i = 0; i < steps; ++i) {
    if (rng.uniform(16) == 0) {
      // Park until the chop loop sends a cross wake at a fresh distinct time.
      struct Park {
        TimerOracle& o;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) {
          o.parked.push_back(h);
        }
        void await_resume() const noexcept {}
      };
      co_await Park{o};
      o.dispatch({o.eng.now(), 0, Engine::kCrossSeq});
      continue;
    }
    // The two long classes are whole milliseconds and seconds, so strands
    // that have not yet taken a fine-grained step share deadlines: many
    // same-time timers, ordered by seq alone.
    Time d = 0;
    switch (rng.uniform(4)) {
      case 0: break;
      case 1: d = rng.uniform(1, 10'000); break;
      case 2: d = rng.uniform(1, 10) * 1'000'000; break;
      case 3: d = rng.uniform(1, 10) * 1'000'000'000; break;
    }
    const TimerOracle::Key want = o.expect(o.eng.now() + d);
    co_await o.eng.delay(d);
    o.dispatch(want);
  }
}

TEST(SimPropertyTest, TimerQueueMatchesASortedReference) {
  constexpr int kStrands = 3000;
  constexpr int kSteps = 24;
  TimerOracle o;
  for (int id = 0; id < kStrands; ++id) {
    const TimerOracle::Key start = o.expect(0);
    o.eng.spawn(
        oracle_strand(o, static_cast<std::uint64_t>(id), kSteps, start));
  }
  Rng rng(0xc40bULL);
  std::set<Time> cross_times;
  int chops = 0;
  while (o.eng.live_roots() != 0) {
    // Chop at a seeded point: sometimes inside a same-time burst's
    // microseconds, sometimes milliseconds or seconds ahead.
    const Time horizons[] = {10'000, 5'000'000, 3'000'000'000};
    o.eng.run_until(o.eng.now() + rng.uniform(0, horizons[rng.uniform(3)]));
    ++chops;
    ASSERT_EQ(o.mismatches, 0u) << "after chop " << chops;
    const Time want =
        o.pending.empty() ? Engine::kForever : o.pending.begin()->t;
    ASSERT_EQ(o.eng.next_event_time(), want) << "after chop " << chops;
    o.wake_parked(rng, cross_times);
  }
  EXPECT_TRUE(o.pending.empty());
  EXPECT_EQ(o.mismatches, 0u);
  EXPECT_EQ(o.dispatched, std::uint64_t{kStrands} * (kSteps + 1));
  EXPECT_GT(cross_times.size(), 1000u);
  EXPECT_GT(o.same_time_timers, 1000u);
  EXPECT_GE(o.max_depth, 2000u);
  EXPECT_GT(chops, 100);
}

}  // namespace
}  // namespace dcs::sim
