// Unified benchmark telemetry harness (docs/BENCHMARKS.md).
//
// A bench declares named scenarios; each runs under a fresh engine with
// the global metrics registry reset and, when an output flag asks for it,
// a tracer installed, so the harness can snapshot everything a perf
// trajectory needs — scenario metrics, latency percentiles, the registry,
// and the critical-path attribution — into one canonical
// `BENCH_<name>.json`.  Output is
// byte-deterministic for same-seed runs: scenarios appear in run order,
// maps in sorted order, and every number prints with fixed precision.
//
// `--bench-wall-json` additionally writes a sibling `BENCH_<name>.wall.json`
// (schema `dcs-bench-wall-v1`) with wall-clock events/sec and ns/event per
// scenario.  Wall time varies run to run and machine to machine, so it is
// kept strictly out of the byte-stable dcs-bench-v1 files and out of the
// CI byte-identity assertion (docs/BENCHMARKS.md).
//
// Every figure bench and every `dcs` run command runs every simulation
// through Harness::run: one scenario per table cell (one scenario named
// "run" for a `dcs` command), and the table prints the metrics that run
// returns.  With no output flag the harness installs no tracer and renders
// no registry, so the plain table path costs what the simulations cost.
// Usage (see bench_storm.cpp):
//
//   int main(int argc, char** argv) {
//     bench::HarnessOptions opts;
//     flags::Table("bench_storm", "Figure 3b", bench::harness_flags(opts))
//         .parse(argc, argv);
//     bench::Harness h("storm", opts);
//     print_fig3b(h);  // h.run("query/STORM-DDSS/1000", ...) per cell
//     return h.finish();
//   }
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "common/stats.hpp"
#include "obs/heavy.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "trace/critical_path.hpp"
#include "trace/exemplar.hpp"
#include "trace/trace.hpp"

namespace dcs::bench {

/// Every observability/telemetry flag the repo's binaries accept; the rows
/// of harness_flags() write them.  Empty = not requested.  Each file holds
/// every scenario the binary ran, in run order.
struct HarnessOptions {
  std::string bench_json;     // canonical BENCH_<name>.json
  std::string wall_json;      // wall-clock BENCH_<name>.wall.json
  std::string critical_path;  // plain-text attribution report
  std::string timeseries_out; // dcs-timeseries-v1 dump (obs/timeseries.hpp)
  /// --slo FILE: the rules, read and checked when the flag is parsed.
  std::vector<obs::SloRule> slo_rules;
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

  /// Hot-key / exemplar attribution requested (a HeavyHitters sink is
  /// installed around every scenario and exemplars are retained).
  bool attribution_mode() const {
    return !exemplars_out.empty() || !hotset_out.empty() || hot_keys > 0;
  }
};

/// The flag-table rows (common/flags.hpp) that fill `opts`: every flag
/// above but --batch when `only` is empty, else just the rows `only`
/// names.  A binary lists the rows of the outputs it writes, so a flag it
/// does not write is unknown to it.  `--slo` reads and checks its rule
/// file while the command line is parsed.
std::vector<flags::Flag> harness_flags(
    HarnessOptions& opts, std::initializer_list<std::string_view> only = {});

/// Prints the top `n` entries of every domain of `hot` to stdout, domains
/// in name order: the `--hot-keys N` table.
void print_hot_keys(const obs::HeavyHitters& hot, std::size_t n);

/// Writes one output file through `write`, then reports "bench: <what> ->
/// <path>" on stderr.  Returns 1, with a message, when `path` cannot be
/// opened, else 0.
int write_file(const std::string& path, const std::string& what,
               const std::function<void(std::ostream&)>& write);

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

  /// Runs `body` under a fresh engine and reset registry, snapshots the
  /// results and returns the scenario's metrics (the values its "metrics"
  /// JSON object holds).  Scenarios run in call order.  A tracer is
  /// installed and the registry rendered only when an output flag asks for
  /// them.  When --timeseries-out / --slo is set, the scenario's final
  /// registry additionally ingests into the cluster time-series store,
  /// with the scenario ordinal standing in as the node id.  For
  /// --trace-out the scenario's events join one trace after the earlier
  /// scenarios': its virtual time shifted by their summed virtual_ns, its
  /// request and span ids by the largest ids they used.
  std::map<std::string, double> run(
      const std::string& scenario,
      const std::function<void(Scenario&)>& body);

  /// Prints one row per scenario run so far to stdout: events dispatched
  /// and host ns/event, the numbers `--bench-wall-json` records.
  void print_wall_table() const;

  /// Scenarios run so far; pass it to print_table to start a table there.
  std::size_t scenarios() const { return snapshots_.size(); }

  /// Prints the scenarios run since the `first`-th to stdout, one row each:
  /// every recorded metric, and the mean recorded latency in µs when any
  /// scenario recorded one.  For scenarios no paper table prints.
  void print_table(const std::string& title, std::size_t first) const;

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
    std::string registry_text;       // Registry::write dump (--metrics-out)
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
  /// --trace-out: every scenario's events, already shifted (see run()),
  /// and the shifts for the next scenario.
  std::vector<trace::TraceEvent> trace_;
  SimNanos trace_ns_ = 0;
  std::uint64_t trace_requests_ = 0;
  std::uint64_t trace_spans_ = 0;
};

}  // namespace dcs::bench
