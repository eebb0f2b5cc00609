// Measurement plumbing of the repo benchmark: host timers around
// synchronous layer calls, virtual-time wrappers around each co_await into
// a layer, the in-memory span log of a traced run, and the one-object
// result record every workload returns.
//
// Everything here observes the simulator from OUTSIDE: it only calls the
// public layer APIs and reads sim::Engine::now().  The wrappers add no
// engine events (awaiting a sim::Task is a symmetric transfer), so a traced
// and an untraced run dispatch the same event stream and share one
// fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "fabric/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace dcs::perfbench {

using HostClock = std::chrono::steady_clock;

double seconds_between(HostClock::time_point a, HostClock::time_point b);

/// Adds the host seconds of its lifetime to `*sink` (one synchronous call
/// into a layer: a constructor, start(), run()).
class HostTimer {
 public:
  explicit HostTimer(double* sink) : sink_(sink), t0_(HostClock::now()) {}
  ~HostTimer() { *sink_ += seconds_between(t0_, HostClock::now()); }
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;

 private:
  double* sink_;
  HostClock::time_point t0_;
};

/// Virtual-time latency samples of one call site.
class LatencyLog {
 public:
  void add(SimNanos d) { ns_.push_back(d); }
  void merge(const LatencyLog& other);
  std::uint64_t count() const { return ns_.size(); }
  /// Nearest-rank percentile (q in (0, 1]) in simulated microseconds;
  /// 0 when there are no samples.
  double percentile_us(double q) const;

 private:
  std::vector<SimNanos> ns_;
};

/// Where a new span hangs: the client operation it serves and its parent.
struct SpanCtx {
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
};

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // shared by every span of one client operation
  SimNanos v_start = 0, v_end = 0;             // virtual ns
  std::int64_t h_start_ns = 0, h_end_ns = 0;   // host steady-clock ns
};

/// The spans of one engine (or one partition).  Never shared between
/// threads: a partition's strands all run on its owning worker.  Ids carry
/// the owner in their top bits, so they are unique across partitions and a
/// request id doubles as the id of the request's root span.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t owner);

  bool enabled() const { return enabled_; }
  /// A fresh client-operation id (also its root span's id).
  std::uint64_t next_request() { return base_ | ++requests_; }

  /// Opens the root span of `request` (its id is the request id).
  /// Returns the slot close() takes; 0 when disabled.
  std::size_t open_root(const char* name, std::uint64_t request,
                        SimNanos now);
  /// Opens a child span under `ctx`.  `*child_ctx`, when given, receives
  /// the context of this span's own children.
  std::size_t open(const char* name, SpanCtx ctx, SimNanos now,
                   SpanCtx* child_ctx = nullptr);
  void close(std::size_t slot, SimNanos now);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  static constexpr std::uint64_t kChildBit = std::uint64_t{1} << 39;
  bool enabled_;
  std::uint64_t base_;
  std::uint64_t requests_ = 0;
  std::uint64_t children_ = 0;
  std::vector<Span> spans_;
};

/// Awaits `inner` as one call into a layer: its virtual latency goes to
/// `log` and, when `spans` is enabled, a span named `name` under `ctx`.
template <class T>
sim::Task<T> timed(sim::Engine& eng, SpanLog& spans, LatencyLog& log,
                   const char* name, SpanCtx ctx, sim::Task<T> inner) {
  const SimNanos t0 = eng.now();
  const std::size_t slot = spans.open(name, ctx, t0);
  if constexpr (std::is_void_v<T>) {
    co_await std::move(inner);
    log.add(eng.now() - t0);
    spans.close(slot, eng.now());
  } else {
    T result = co_await std::move(inner);
    log.add(eng.now() - t0);
    spans.close(slot, eng.now());
    co_return result;
  }
}

/// One workload run's output.  `host` holds host-clock measurements,
/// `sim` everything that must repeat exactly for a fixed seed (simulated
/// metrics, counts, virtual latencies).
struct Record {
  std::map<std::string, std::string> config;
  std::map<std::string, double> host;
  std::map<std::string, double> sim;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<Span> spans;  // traced runs only
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t workers = 0;  // 0 = the workload's default
  bool traced = false;
};

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// A counter of this thread's trace registry; 0 when never created.
double registry_count(const char* name);

/// Reads verbs.read_ops, verbs.write_ops, verbs.atomic_ops and
/// verbs.send_msgs into `rec.sim` from this thread's trace registry.
void read_verbs_counters(Record& rec);

/// Registered memory of every node of `fab`, in MB.
double registered_mb(fabric::Fabric& fab);

/// Fills the per-layer virtual self time (`<layer>.sim_self_ms`, a span's
/// duration minus the part its children cover, summed per layer) and
/// `trace.spans` from `rec.spans`.
void summarize_spans(Record& rec);

/// Writes the spans as JSON (one object per span) to `path`.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// The record as one JSON object on one line.
std::string to_json(const Record& rec);

Record run_scale_zipf(const Options& opts);
Record run_lock_rmw(const Options& opts);
Record run_webfarm_coop(const Options& opts);

}  // namespace dcs::perfbench
