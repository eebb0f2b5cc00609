#include "sim/shard.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/check.hpp"
#include "sim/slab.hpp"
#include "sim/task.hpp"

namespace dcs::sim {
namespace detail {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
std::uint64_t fold(std::uint64_t fp, std::uint64_t v) {
  return (fp ^ v) * kFnvPrime;
}
// Saturating horizon: M + L - 1 without wrapping near kForever.
Time safe_horizon(Time m, Time lookahead) {
  const Time span = lookahead - 1;
  return m > Engine::kForever - span ? Engine::kForever : m + span;
}

/// Spin iterations a barrier waiter makes before it parks (about 1.5 ms on
/// a 4-core x86 VM).  A window of the 1024-node runs takes tens of
/// microseconds, so a waiter almost always sees the barrier open while
/// spinning, and parking is left to long stalls such as a preempted peer.
constexpr int kSpinBudget = 1 << 16;

/// One spin-loop hint: tells the core a waiter is spinning (frees issue
/// slots for a sibling hyperthread, avoids the memory-order exit penalty).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// N-party generation barrier: spin for kSpinBudget iterations, then park
/// on the generation word.  Every write a worker makes before arriving
/// happens-before every read any worker makes after leaving: arrivals are
/// acq_rel RMWs on one counter, and the last arrival publishes the new
/// generation with a store the waiters acquire.
class WindowBarrier {
 public:
  explicit WindowBarrier(std::uint32_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      // seq_cst, not release: notify_all skips the wake when it reads no
      // registered waiter, and that read must not be reordered before this
      // store, or a waiter that registers in between sleeps through it.
      gen_.store(gen + 1, std::memory_order_seq_cst);
      gen_.notify_all();
      return;
    }
    for (int i = 0; i < kSpinBudget; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      // Mostly pause; now and then hand the core to a peer that the
      // scheduler put on this same core, which would otherwise wait for
      // this spinner's time slice to end.
      if (i % 64 == 63) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      gen_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> gen_{0};
  const std::uint32_t parties_;
};

/// What one worker publishes before a window, on its own cache line: its
/// lower bound, and whether it failed in the previous window.
struct alignas(64) BoundSlot {
  Time t = Engine::kForever;
  bool failed = false;
};
}  // namespace

/// One logical partition.  Everything here is touched only by the owning
/// worker, except the outbox buckets: the source worker fills
/// outbox[parity][w] during window k (parity k & 1) and worker w drains it
/// while routing window k + 1.  The window barrier between the two orders
/// every access, and the buckets of window k + 1 are the other parity.
struct Partition {
  std::unique_ptr<Engine> eng;
  std::unique_ptr<Shard> shard;
  std::function<void(Shard&, const ShardMsg&)> handler;

  // Inbound: this window's deliveries, sorted by (t, src, seq); the pump
  // strand drains it inside virtual time and re-parks when empty.
  std::deque<ShardMsg> due;
  std::coroutine_handle<> parked{};
  // Routed here but not yet due, and the minimum t among them.
  std::vector<ShardMsg> pending;
  Time pending_min = Engine::kForever;

  // Outbound: per window parity, one bucket per destination worker, in send
  // order; out_min is the minimum t sent into that parity.  Sends made
  // before the first window (by the setup factory) land in parity 1, the
  // buckets window 0 routes.
  std::array<std::vector<std::vector<ShardMsg>>, 2> outbox;
  std::array<Time, 2> out_min{Engine::kForever, Engine::kForever};
  std::uint32_t out = 1;

  std::vector<std::shared_ptr<void>> keep;
  std::uint64_t next_send_seq = 0;
  std::uint64_t cross_fp = kFnvOffset;
  std::uint64_t cross_delivered = 0;
};

struct ShardedImpl {
  enum class Cmd : std::uint8_t { kSetup, kRun, kTeardown, kCustom, kExit };

  explicit ShardedImpl(ShardedEngine::Spec s)
      : spec(clamp_workers(s)), barrier(spec.workers) {
    DCS_CHECK_MSG(spec.partitions >= 1, "need at least one partition");
    DCS_CHECK_MSG(spec.lookahead >= 1, "lookahead must be >= 1 ns");
    parts.reserve(spec.partitions);
    for (std::uint32_t p = 0; p < spec.partitions; ++p) {
      auto part = std::make_unique<Partition>();
      for (auto& buckets : part->outbox) buckets.resize(spec.workers);
      parts.push_back(std::move(part));
    }
    for (auto& row : bounds) row.resize(spec.workers);
    errors.resize(spec.workers);
    wall_ns.assign(spec.workers, 0);
    pool.reserve(spec.workers);
    for (std::uint32_t w = 0; w < spec.workers; ++w) {
      pool.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~ShardedImpl() {
    if (!torn_down) command(Cmd::kTeardown);
    command(Cmd::kExit);
    for (auto& t : pool) t.join();
  }

  static ShardedEngine::Spec clamp_workers(ShardedEngine::Spec s) {
    s.workers = std::clamp(s.workers, 1u, std::max(s.partitions, 1u));
    return s;
  }

  // --- caller side ---

  /// Issues `c` to every worker and blocks until all report done.
  void command(Cmd c) {
    {
      std::lock_guard lk(mu);
      cmd = c;
      done = 0;
      ++gen;
    }
    cv_cmd.notify_all();
    std::unique_lock lk(mu);
    cv_done.wait(lk, [&] { return done == spec.workers; });
  }

  void rethrow_worker_error() {
    for (auto& e : errors) {
      if (e) {
        failed = true;
        std::exception_ptr err = e;
        e = nullptr;
        std::rethrow_exception(err);
      }
    }
  }

  // --- worker side ---

  void worker_main(std::uint32_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      Cmd c;
      {
        std::unique_lock lk(mu);
        cv_cmd.wait(lk, [&] { return gen != seen; });
        seen = gen;
        c = cmd;
      }
      if (c == Cmd::kExit) {
        finish_one();
        return;
      }
      try {
        switch (c) {
          case Cmd::kSetup:
            for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
              setup_partition(p);
            }
            break;
          case Cmd::kRun:
            run_windows(w);
            break;
          case Cmd::kTeardown:
            for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
              teardown_partition(p);
            }
            break;
          case Cmd::kCustom:
            (*custom)(w);
            break;
          case Cmd::kExit:
            break;
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
      finish_one();
    }
  }

  void finish_one() {
    std::lock_guard lk(mu);
    if (++done == spec.workers) cv_done.notify_one();
  }

  /// The window loop, run by every worker in lockstep through `target`.
  /// Each round: publish this worker's lower bound, meet at the barrier,
  /// reduce every slot to the same M and horizon H = M + L - 1, route the
  /// messages bound for this worker's partitions, run them through H.  All
  /// workers read the same slots, so all take the same decisions; the
  /// slots and outbox buckets alternate by window parity, so a worker that
  /// races ahead into window k + 1 never touches what a peer still reads
  /// for window k.
  void run_windows(std::uint32_t w) {
    const Time t = target;
    Time reached = now;
    std::uint64_t k = windows;
    bool failed_here = false;
    std::uint64_t busy_ns = 0;
    for (;;) {
      const std::size_t par = k & 1;
      bounds[par][w] = {lower_bound(w, par), failed_here};
      barrier.arrive_and_wait();
      // Decide only from the slots: a flag a fast peer raises during this
      // window would reach some workers before they decide and others after.
      Time m = Engine::kForever;
      bool abort = false;
      for (const auto& slot : bounds[par]) {
        m = std::min(m, slot.t);
        abort = abort || slot.failed;
      }
      if (abort) break;
      // Nothing left at or before `t`: one last window clamps every clock
      // to `t` so a later chopped run resumes from exactly here (skipped
      // for unbounded runs and when the clocks are already there).
      const bool last = m == Engine::kForever || m > t;
      if (last && (t == Engine::kForever || reached >= t)) break;
      const Time h = last ? t : std::min(safe_horizon(m, spec.lookahead), t);
      try {
        // dcs-lint: allow(R1, per-worker wall telemetry only feeds the
        // dcs-bench-wall-v1 report, which is outside the byte-stability
        // contract; no sim-visible state reads this clock)
        const auto start = std::chrono::steady_clock::now();
        route(w, par, h);
        for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
          run_partition(p, par, h);
        }
        // dcs-lint: allow(R1, same wall-telemetry measurement as above)
        const auto end = std::chrono::steady_clock::now();
        busy_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count());
      } catch (...) {
        // Peers are running this window or already waiting at the next
        // barrier: arrive there once more so they all see the failure.
        errors[w] = std::current_exception();
        failed_here = true;
      }
      reached = std::max(reached, h);
      ++k;
      if (last) break;
    }
    wall_ns[w] += busy_ns;
    // Every worker read `now` and `windows` above, before its first barrier
    // of this run, so one writer after the loop races with none of them.
    if (w == 0) {
      now = reached;
      windows = k;
    }
  }

  /// Earliest pending dispatch this worker knows of before window parity
  /// `par`: its partitions' next events, the messages routed to them and
  /// not yet due, and what they sent last window (not yet routed).
  Time lower_bound(std::uint32_t w, std::size_t par) const {
    Time m = Engine::kForever;
    for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
      const auto& part = *parts[p];
      m = std::min({m, part.eng->next_event_time(), part.pending_min,
                    part.out_min[par ^ 1]});
    }
    return m;
  }

  /// Pulls last window's messages for this worker's partitions from every
  /// source, in partition order, and moves those due by `h` into `due` in
  /// (t, src, seq) order — a total order, so the result is the same for
  /// any worker count.  `due` is empty here: the previous horizon covered
  /// everything then due, so the pump drained it.
  void route(std::uint32_t w, std::size_t par, Time h) {
    for (const auto& src : parts) {
      auto& bucket = src->outbox[par ^ 1][w];
      for (auto& msg : bucket) parts[msg.dst]->pending.push_back(std::move(msg));
      bucket.clear();
    }
    for (std::uint32_t p = w; p < spec.partitions; p += spec.workers) {
      auto& part = *parts[p];
      auto& pend = part.pending;
      DCS_CHECK(part.due.empty());
      auto ready = std::stable_partition(
          pend.begin(), pend.end(), [&](const ShardMsg& m) { return m.t > h; });
      std::move(ready, pend.end(), std::back_inserter(part.due));
      pend.erase(ready, pend.end());
      part.pending_min = Engine::kForever;
      for (const auto& msg : pend) {
        part.pending_min = std::min(part.pending_min, msg.t);
      }
      std::sort(part.due.begin(), part.due.end(),
                [](const ShardMsg& x, const ShardMsg& y) {
                  return std::tie(x.t, x.src, x.seq) <
                         std::tie(y.t, y.src, y.seq);
                });
    }
  }

  /// Runs on the owning worker: the engine, the pump strand's frame and the
  /// factory's spawns are all born on this thread.
  void setup_partition(std::uint32_t p) {
    auto& part = *parts[p];
    part.eng = std::make_unique<Engine>();
    part.shard.reset(new Shard(*this, p));
    part.eng->spawn(pump(*part.eng, part));
    if (factory) (*factory)(*part.shard);
  }

  void run_partition(std::uint32_t p, std::size_t par, Time h) {
    auto& part = *parts[p];
    // This window's sends go to parity `par`; its buckets were drained
    // while routing the previous window.
    part.out = static_cast<std::uint32_t>(par);
    part.out_min[par] = Engine::kForever;
    if (!part.due.empty()) {
      // Schedule one wake per distinct delivery time, all up front.  The
      // pump handles every message at one time then re-parks before the
      // next wake fires, so all wakes may target the same (parked) frame.
      // schedule_cross keeps the engine's seq counter untouched: where the
      // window boundaries fall must not leak into the fingerprint.
      DCS_CHECK(part.parked);
      Time prev = 0;
      for (const auto& msg : part.due) {
        if (msg.t != prev) part.eng->schedule_cross(part.parked, msg.t);
        prev = msg.t;
      }
    }
    part.eng->run_until(h);
  }

  /// Runs on the owning worker: destroys the workload, then the engine
  /// (which destroys the parked pump frame) — every frame dies on the
  /// thread whose slab allocated it.
  void teardown_partition(std::uint32_t p) {
    auto& part = *parts[p];
    part.handler = nullptr;
    part.keep.clear();
    part.eng.reset();
  }

  /// Long-lived delivery strand: parks until a cross wake fires, then
  /// delivers every message due at exactly that virtual time and re-parks.
  /// It never chains to the next delivery time itself (a delay would draw
  /// from the seq counter at a window-dependent point); run_partition
  /// pre-schedules one counter-neutral wake per distinct time instead.
  /// Delivery order is the sorted (t, src, seq) order — total, and
  /// independent of worker count.
  static Task<void> pump(Engine& eng, Partition& part) {
    struct ParkAwaiter {
      Partition& part;
      std::uint64_t audit_token = 0;
      StrandCtx saved{};
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        part.parked = h;
        saved = strand_ctx();
        if (auto* hook = audit_hook()) audit_token = hook->suspend_strand();
      }
      void await_resume() {
        part.parked = {};
        strand_ctx() = saved;
        if (auto* hook = audit_hook()) hook->resume_strand(audit_token);
      }
    };
    for (;;) {
      if (part.due.empty() || part.due.front().t > eng.now()) {
        co_await ParkAwaiter{part};
        continue;
      }
      ShardMsg msg = std::move(part.due.front());
      part.due.pop_front();
      part.cross_fp = fold(part.cross_fp, msg.t);
      part.cross_fp = fold(part.cross_fp, (std::uint64_t{msg.src} << 32) |
                                              std::uint64_t{msg.dst});
      part.cross_fp = fold(part.cross_fp, msg.seq);
      part.cross_fp = fold(part.cross_fp, msg.tag);
      ++part.cross_delivered;
      if (auto* hook = audit_hook()) hook->on_cross_shard(msg.src, msg.seq);
      if (part.handler) part.handler(*part.shard, msg);
    }
  }

  ShardedEngine::Spec spec;
  std::vector<std::unique_ptr<Partition>> parts;

  std::mutex mu;
  std::condition_variable cv_cmd, cv_done;
  Cmd cmd = Cmd::kExit;
  std::uint64_t gen = 0;
  std::uint32_t done = 0;
  const std::function<void(Shard&)>* factory = nullptr;
  const std::function<void(std::uint32_t)>* custom = nullptr;
  std::vector<std::exception_ptr> errors;   // per worker
  std::vector<std::uint64_t> wall_ns;       // per worker

  // The window loop: target of the current run_until, the barrier and the
  // per-parity bound slots.
  Time target = 0;
  WindowBarrier barrier;
  std::array<std::vector<BoundSlot>, 2> bounds;

  Time now = 0;
  std::uint64_t windows = 0;
  bool setup_done = false;
  bool torn_down = false;
  bool failed = false;

  // Declared last: the workers use every member above.
  std::vector<std::thread> pool;
};

}  // namespace detail

// --- Shard ---

Engine& Shard::engine() { return *impl_.parts[index_]->eng; }

std::uint32_t Shard::partitions() const { return impl_.spec.partitions; }

Time Shard::lookahead() const { return impl_.spec.lookahead; }

void Shard::set_handler(std::function<void(Shard&, const ShardMsg&)> handler) {
  impl_.parts[index_]->handler = std::move(handler);
}

void Shard::send(std::uint32_t dst, std::uint64_t tag, std::uint64_t a,
                 std::uint64_t b, std::vector<std::byte> payload, Time extra) {
  DCS_CHECK_MSG(dst < impl_.spec.partitions, "cross-shard dst out of range");
  auto& part = *impl_.parts[index_];
  ShardMsg msg;
  msg.t = part.eng->now() + impl_.spec.lookahead + extra;
  msg.src = index_;
  msg.dst = dst;
  msg.seq = part.next_send_seq++;
  msg.tag = tag;
  msg.a = a;
  msg.b = b;
  msg.payload = std::move(payload);
  part.out_min[part.out] = std::min(part.out_min[part.out], msg.t);
  part.outbox[part.out][dst % impl_.spec.workers].push_back(std::move(msg));
}

void Shard::keep_alive(std::shared_ptr<void> obj) {
  impl_.parts[index_]->keep.push_back(std::move(obj));
}

std::uint64_t Shard::events_dispatched() const {
  return impl_.parts[index_]->eng->events_dispatched();
}

std::uint64_t Shard::cross_delivered() const {
  return impl_.parts[index_]->cross_delivered;
}

// --- ShardedEngine ---

ShardedEngine::ShardedEngine(Spec spec)
    : impl_(std::make_unique<detail::ShardedImpl>(spec)) {}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::setup(const std::function<void(Shard&)>& factory) {
  DCS_CHECK_MSG(!impl_->setup_done, "setup() may only be called once");
  impl_->setup_done = true;
  impl_->factory = &factory;
  impl_->command(detail::ShardedImpl::Cmd::kSetup);
  impl_->factory = nullptr;
  impl_->rethrow_worker_error();
}

void ShardedEngine::run() { run_until(Engine::kForever); }

void ShardedEngine::run_until(Time t) {
  DCS_CHECK_MSG(impl_->setup_done, "call setup() before running");
  DCS_CHECK_MSG(!impl_->failed, "a worker already failed");
  impl_->target = t;
  impl_->command(detail::ShardedImpl::Cmd::kRun);
  impl_->rethrow_worker_error();
}

Time ShardedEngine::now() const { return impl_->now; }

std::uint64_t ShardedEngine::merged_fingerprint() const {
  std::uint64_t fp = detail::kFnvOffset;
  for (const auto& p : impl_->parts) {
    fp = detail::fold(fp, p->eng->dispatch_fingerprint());
    fp = detail::fold(fp, p->cross_fp);
  }
  return fp;
}

std::uint64_t ShardedEngine::events_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& p : impl_->parts) total += p->eng->events_dispatched();
  return total;
}

std::uint64_t ShardedEngine::cross_messages() const {
  std::uint64_t total = 0;
  for (const auto& p : impl_->parts) total += p->cross_delivered;
  return total;
}

std::uint32_t ShardedEngine::partitions() const {
  return impl_->spec.partitions;
}

std::uint32_t ShardedEngine::workers() const { return impl_->spec.workers; }

void ShardedEngine::for_each_worker(
    const std::function<void(std::uint32_t)>& fn) {
  impl_->custom = &fn;
  impl_->command(detail::ShardedImpl::Cmd::kCustom);
  impl_->custom = nullptr;
  impl_->rethrow_worker_error();
}

std::vector<std::uint64_t> ShardedEngine::partition_events() const {
  std::vector<std::uint64_t> out;
  out.reserve(impl_->parts.size());
  for (const auto& p : impl_->parts) out.push_back(p->eng->events_dispatched());
  return out;
}

std::vector<std::uint64_t> ShardedEngine::worker_wall_ns() const {
  return impl_->wall_ns;
}

std::uint64_t ShardedEngine::windows() const { return impl_->windows; }

}  // namespace dcs::sim
