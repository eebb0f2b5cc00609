// Unified benchmark telemetry harness (docs/BENCHMARKS.md).
//
// A harnessed bench declares named scenarios; each runs under a fresh
// engine with the global metrics registry reset and a tracer installed, so
// the harness can snapshot everything a perf trajectory needs — scenario
// metrics, latency percentiles, the registry, and the critical-path
// attribution — into one canonical `BENCH_<name>.json`.  Output is
// byte-deterministic for same-seed runs: scenarios appear in run order,
// maps in sorted order, and every number prints with fixed precision.
//
// `--bench-wall-json` additionally writes a sibling `BENCH_<name>.wall.json`
// (schema `dcs-bench-wall-v1`) with wall-clock events/sec and ns/event per
// scenario.  Wall time varies run to run and machine to machine, so it is
// kept strictly out of the byte-stable dcs-bench-v1 files and out of the
// CI byte-identity assertion (docs/BENCHMARKS.md).
//
// Usage (see bench_sdp.cpp):
//
//   int main(int argc, char** argv) {
//     auto opts = bench::extract_harness_flags(argc, argv);
//     if (opts.harness_mode()) {
//       bench::Harness h("sdp", opts);
//       h.run("buffered_copy/64K", [](bench::Scenario& s) { ... });
//       return h.finish();
//     }
//     if (opts.observe_mode()) { ... trace::ObservedRun path ... }
//     ... print the paper tables ...
//   }
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "trace/critical_path.hpp"
#include "trace/exemplar.hpp"
#include "trace/observe.hpp"
#include "trace/trace.hpp"

namespace dcs::bench {

/// Every observability/telemetry flag the repo's binaries accept, parsed
/// in exactly one place.  Empty string = not requested.
///
/// Harness flags (multi-scenario dcs-bench-v1 telemetry):
///   --bench-json FILE       canonical BENCH_<name>.json
///   --bench-wall-json FILE  wall-clock BENCH_<name>.wall.json
///   --critical-path FILE    plain-text attribution report
///   --timeseries-out FILE   dcs-timeseries-v1 cluster time-series dump
///   --slo FILE              SLO rule file evaluated against the dump
///   --exemplars-out FILE    dcs-exemplar-v1 tail-exemplar dump
///   --hotset-out FILE       dcs-hotset-v1 hot-key sketch dump
///   --hot-keys N            print the top-N hot-key table per domain
/// Single-run observation flags (trace::ObservedRun):
///   --trace-out FILE        Chrome trace_event JSON
///   --metrics-out FILE      metrics registry dump
///   --postmortem-dir DIR    arm a flight recorder dumping here
///
/// `--postmortem-dir` applies to both modes: in harness mode every
/// scenario runs with an armed trace::FlightRecorder, in observed mode the
/// whole run does.
struct HarnessOptions {
  std::string bench_json;     // canonical BENCH_<name>.json
  std::string wall_json;      // wall-clock BENCH_<name>.wall.json
  std::string critical_path;  // plain-text attribution report
  std::string timeseries_out; // dcs-timeseries-v1 dump (obs/timeseries.hpp)
  std::string slo_rules;      // SLO rule file (obs/slo.hpp syntax)
  std::string exemplars_out;  // dcs-exemplar-v1 dump (trace/exemplar.hpp)
  std::string hotset_out;     // dcs-hotset-v1 dump (obs/heavy.hpp)
  std::string trace_out;      // Chrome trace_event JSON file
  std::string metrics_out;    // plain-text metrics dump file
  std::string postmortem_dir; // flight-recorder dump directory
  /// --batch N: maximum batch depth for benches that sweep the batched
  /// verbs data path (0 = the bench's default sweep).  Benches record the
  /// depth per scenario via Scenario::batch_depth; it lands as a "batch"
  /// field in the wall JSON so batch depth is a first-class bench axis.
  std::size_t batch = 0;
  /// --hot-keys N: print the top-N entries of every DCS_HOT domain after
  /// the run (0 = no table).  Independent of --hotset-out.
  std::size_t hot_keys = 0;

  /// Multi-scenario telemetry requested (run the bench::Harness path).
  bool harness_mode() const {
    return !bench_json.empty() || !wall_json.empty() ||
           !critical_path.empty() || !timeseries_out.empty() ||
           attribution_mode();
  }
  /// Hot-key / exemplar attribution requested (a HeavyHitters sink is
  /// installed around every scenario and exemplars are retained).
  bool attribution_mode() const {
    return !exemplars_out.empty() || !hotset_out.empty() || hot_keys > 0;
  }
  /// Single-run observation requested (run the trace::ObservedRun path).
  bool observe_mode() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !postmortem_dir.empty();
  }
  /// The single-run observation subset, for trace::ObservedRun.  The
  /// critical-path/bench-json sinks ride along so a binary with no
  /// harness path (the `dcs` CLI) still honors them.
  trace::ObserveOptions observe(const std::string& bench_name) const {
    return {.trace_out = trace_out,
            .metrics_out = metrics_out,
            .critical_path_out = critical_path,
            .bench_json = bench_json,
            .postmortem_dir = postmortem_dir,
            .bench_name = bench_name};
  }
};

/// Removes the flags above from argv (shifting later arguments down and
/// decrementing argc) and returns the extracted values, so a bench's own
/// argument parser sees only the arguments left over.
HarnessOptions extract_harness_flags(int& argc, char** argv);

/// Batch depths a bench sweeps for `--batch max` (powers of two up to and
/// including `max`); `max == 0` yields the default sweep {1, 2, 4, 8}.
std::vector<std::size_t> batch_sweep(std::size_t max);

/// One scenario run: the engine to drive plus sinks for results.
class Scenario {
 public:
  Scenario(sim::Engine& eng) : eng_(eng) {}
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  sim::Engine& engine() { return eng_; }
  /// Records a scalar result (throughput, ratio, error, ...).
  void metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// Records one end-to-end latency sample in nanoseconds.
  void latency_ns(double ns) { latency_.add(ns); }
  /// Tags the scenario with the verbs batch depth it ran at; written as the
  /// "batch" field of the wall JSON (0 = not a batched scenario).
  void batch_depth(std::size_t n) { batch_depth_ = n; }
  /// Tags the scenario with its workload's Zipf skew; written as the
  /// "zipf_alpha" field of the wall JSON so hot-key tables are
  /// interpretable (negative = no Zipf workload).
  void zipf_alpha(double alpha) { zipf_alpha_ = alpha; }

 private:
  friend class Harness;
  sim::Engine& eng_;
  std::map<std::string, double> metrics_;
  LatencySamples latency_;
  std::size_t batch_depth_ = 0;
  double zipf_alpha_ = -1.0;
};

/// Collects scenario snapshots and writes the canonical JSON.
class Harness {
 public:
  Harness(std::string bench, HarnessOptions opts);

  /// Runs `body` under a fresh engine, reset registry, and installed
  /// tracer, then snapshots the results.  Scenarios run in call order.
  /// When --timeseries-out / --slo is set, the scenario's final registry
  /// additionally ingests into the cluster time-series store, with the
  /// scenario ordinal standing in as the node id.
  void run(const std::string& scenario,
           const std::function<void(Scenario&)>& body);

  /// Prints one row per scenario run so far to stdout: events dispatched
  /// and host ns/event, the numbers `--bench-wall-json` records.
  void print_wall_table() const;

  /// Writes the requested files.  Returns a process exit code (non-zero
  /// when a file could not be written).
  int finish();

 private:
  struct Snapshot {
    std::string name;
    SimNanos virtual_ns = 0;
    // Wall-clock telemetry (docs/BENCHMARKS.md).  Written only to the
    // `.wall.json` sibling: wall time is machine-dependent, so it must
    // never leak into the byte-stable dcs-bench-v1 output.
    std::uint64_t events = 0;    // engine events dispatched by the scenario
    double wall_ns = 0;          // host time spent inside the body
    std::size_t batch = 0;       // verbs batch depth (0 = not batched)
    double zipf_alpha = -1.0;    // workload Zipf skew (negative = none)
    std::map<std::string, double> metrics;
    // Latency percentiles (ns); count == 0 when the scenario recorded none.
    std::size_t latency_count = 0;
    double latency_mean = 0, p0 = 0, p50 = 0, p99 = 0, p100 = 0;
    std::string registry_json;       // pre-rendered registry object
    std::string critical_path_json;  // aggregate breakdown object, or empty
    std::string critical_path_report;  // plain-text report
  };

  std::string bench_;
  HarnessOptions opts_;
  std::vector<Snapshot> snapshots_;
  obs::TimeSeriesStore store_;
  /// Attribution sinks, fed across scenarios: the hot sink is installed
  /// thread-locally around each body; exemplars ingest from the tracer's
  /// per-request critical paths after each scenario.
  obs::HeavyHitters hot_;
  trace::ExemplarStore exemplars_;
};

}  // namespace dcs::bench
