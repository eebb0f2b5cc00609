#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>

#include "common/table.hpp"
#include "trace/flight.hpp"
#include "trace/hot.hpp"

namespace dcs::bench {

namespace {

std::string fmt_f3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Host nanoseconds per dispatched event (0 for an eventless scenario).
double ns_per_event(double wall_ns, std::uint64_t events) {
  return events > 0 ? wall_ns / static_cast<double>(events) : 0;
}

/// Scenario names embed '/' separators; dump prefixes become file names.
std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '/' || c == ' ') c = '_';
  }
  return name;
}

/// Largest `--batch` depth: the batched scenarios allocate one 4 KB object
/// per depth step on a 4 MB node, and 1024 no longer fits.
constexpr std::uint64_t kMaxBatch = 512;

/// Largest `--hot-keys` count; a domain's sketch keeps far fewer keys.
constexpr std::uint64_t kMaxHotKeys = 1024;

/// Some flag asks for a per-scenario file or table.
bool wants_output(const HarnessOptions& o) {
  return !o.bench_json.empty() || !o.wall_json.empty() ||
         !o.critical_path.empty() || !o.timeseries_out.empty() ||
         !o.slo_rules.empty() || !o.trace_out.empty() ||
         !o.metrics_out.empty() || o.attribution_mode();
}

}  // namespace

std::vector<flags::Flag> harness_flags(
    HarnessOptions& opts, std::initializer_list<std::string_view> only) {
  std::vector<flags::Flag> rows = {
      flags::path("--bench-json", &opts.bench_json,
                  "write every scenario's dcs-bench-v1 telemetry"),
      flags::path("--bench-wall-json", &opts.wall_json,
                  "write host wall-time telemetry (dcs-bench-wall-v1)"),
      flags::path("--critical-path", &opts.critical_path,
                  "write the critical-path attribution report"),
      flags::path("--timeseries-out", &opts.timeseries_out,
                  "write a dcs-timeseries-v1 cluster time-series dump"),
      {.name = "--slo",
       .meta = "FILE",
       .help = "evaluate the SLO rules in FILE; alert stream to stderr",
       .store =
           [&opts](const std::string& path) {
             std::string error;
             opts.slo_rules = obs::parse_slo_rules_file(path, &error);
             return error;
           }},
      flags::path("--trace-out", &opts.trace_out,
                  "write one Chrome trace_event JSON, scenarios end to end"),
      flags::path("--metrics-out", &opts.metrics_out,
                  "write the metrics registry dump, one section per scenario"),
      flags::path("--postmortem-dir", &opts.postmortem_dir,
                  "arm a flight recorder; trips dump there", "DIR"),
      flags::path("--exemplars-out", &opts.exemplars_out,
                  "write the dcs-exemplar-v1 tail exemplars"),
      flags::path("--hotset-out", &opts.hotset_out,
                  "write the dcs-hotset-v1 hot-key dump"),
      flags::count("--hot-keys", &opts.hot_keys, 0, kMaxHotKeys,
                   "print the top-N hot keys per domain"),
      flags::count("--batch", &opts.batch, 0, kMaxBatch,
                   "deepest verbs batch the batched sweeps run (0: 1..8)"),
  };
  std::erase_if(rows, [&](const flags::Flag& row) {
    return only.size() == 0 ? row.name == "--batch"
                            : std::find(only.begin(), only.end(), row.name) ==
                                  only.end();
  });
  DCS_CHECK(only.size() == 0 || rows.size() == only.size());
  return rows;
}

void print_hot_keys(const obs::HeavyHitters& hot, std::size_t n) {
  for (const std::string& domain : hot.domains()) {
    std::printf("hot %s (total=%llu):\n", domain.c_str(),
                static_cast<unsigned long long>(hot.total(domain)));
    for (const obs::HotEntry& e : hot.top(domain, n)) {
      std::printf("  key=%llu count=%llu error=%llu\n",
                  static_cast<unsigned long long>(e.key),
                  static_cast<unsigned long long>(e.count),
                  static_cast<unsigned long long>(e.error));
    }
  }
}

std::vector<std::size_t> batch_sweep(std::size_t max) {
  if (max == 0) return {1, 2, 4, 8};
  std::vector<std::size_t> out;
  for (std::size_t k = 1; k < max; k *= 2) out.push_back(k);
  out.push_back(max);
  return out;
}

Harness::Harness(std::string bench, HarnessOptions opts)
    : bench_(std::move(bench)), opts_(std::move(opts)) {}

std::map<std::string, double> Harness::run(
    const std::string& scenario, const std::function<void(Scenario&)>& body) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  // Declared after the engine/tracer so it uninstalls first: a wedged
  // scenario's post-mortem must capture ring context before teardown.
  std::unique_ptr<trace::FlightRecorder> flight;
  trace::Registry::global().reset();
  const bool recording = wants_output(opts_);
  if (recording) tracer.install();
  if (!opts_.postmortem_dir.empty()) {
    flight = std::make_unique<trace::FlightRecorder>(
        eng, trace::FlightConfig{.postmortem_dir = opts_.postmortem_dir,
                                 .prefix = bench_ + "." + sanitize(scenario)});
    flight->install();
  }
  Scenario ctx(eng);
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // DCS_HOT sites in ddss/dlm/verbs feed the shared sketch while the
    // body runs; without attribution the sites stay one disarmed branch.
    trace::ScopedHotSink hot_sink(opts_.attribution_mode() ? &hot_ : nullptr);
    body(ctx);
  }
  const auto wall_end = std::chrono::steady_clock::now();
  if (flight != nullptr) flight->uninstall();
  tracer.uninstall();

  Snapshot snap;
  snap.name = scenario;
  snap.virtual_ns = eng.now();
  snap.events = eng.events_dispatched();
  snap.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                           wall_start)
          .count());
  snap.batch = ctx.batch_depth_;
  snap.zipf_alpha = ctx.zipf_alpha_;
  snap.metrics = std::move(ctx.metrics_);
  snap.latency_count = ctx.latency_.count();
  if (snap.latency_count > 0) {
    snap.latency_mean = ctx.latency_.mean();
    snap.p0 = ctx.latency_.percentile(0.0);
    snap.p50 = ctx.latency_.percentile(50.0);
    snap.p99 = ctx.latency_.percentile(99.0);
    snap.p100 = ctx.latency_.percentile(100.0);
  }
  if (!opts_.timeseries_out.empty() || !opts_.slo_rules.empty()) {
    // Scenario ordinal as node id: each scenario is "one node" of the
    // bench's cluster dump, so per-scenario history stays disjoint.
    store_.ingest_registry(static_cast<std::uint32_t>(snapshots_.size()),
                           eng.now(), trace::Registry::global());
  }
  if (recording) {
    std::ostringstream reg;
    trace::Registry::global().write_json(reg);
    snap.registry_json = reg.str();
    const trace::CriticalPath cp(tracer);
    if (opts_.attribution_mode()) {
      // Every traced request becomes an exemplar candidate: the scenario
      // ordinal stands in as the node id (as in the time-series ingest)
      // and the request name keys the series.
      for (const trace::Breakdown& bd : cp.requests()) {
        exemplars_.record(static_cast<std::uint32_t>(snapshots_.size()),
                          bd.name, bd.total, bd.request, bd.by_cost);
      }
    }
    if (!opts_.metrics_out.empty()) {
      std::ostringstream text;
      trace::Registry::global().write(text);
      snap.registry_text = text.str();
    }
    if (!opts_.trace_out.empty()) {
      const std::uint64_t requests = trace_requests_;
      const std::uint64_t spans = trace_spans_;
      for (trace::TraceEvent ev : tracer.events()) {
        ev.start += trace_ns_;
        ev.end += trace_ns_;
        if (ev.request != 0) ev.request += requests;
        if (ev.span != 0) ev.span += spans;
        if (ev.parent != 0) ev.parent += spans;
        trace_requests_ = std::max(trace_requests_, ev.request);
        trace_spans_ = std::max(trace_spans_, ev.span);
        trace_.push_back(ev);
      }
      trace_ns_ += eng.now();
    }
    if (cp.aggregate().count > 0) {
      std::ostringstream agg;
      trace::write_breakdown_json(agg, cp.aggregate());
      snap.critical_path_json = agg.str();
      std::ostringstream report;
      cp.write_report(report);
      snap.critical_path_report = report.str();
    }
  }
  snapshots_.push_back(std::move(snap));
  return snapshots_.back().metrics;
}

void Harness::print_wall_table() const {
  Table table({"scenario", "events", "ns/event"});
  for (const Snapshot& sn : snapshots_) {
    table.add_row({sn.name, std::to_string(sn.events),
                   Table::fmt(ns_per_event(sn.wall_ns, sn.events), 1)});
  }
  table.print(bench_ + " — host wall time per dispatched event");
}

void Harness::print_table(const std::string& title, std::size_t first) const {
  const std::span<const Snapshot> rows(snapshots_.begin() + first,
                                       snapshots_.end());
  std::set<std::string> keys;
  bool latency = false;
  for (const Snapshot& sn : rows) {
    for (const auto& [name, value] : sn.metrics) keys.insert(name);
    latency = latency || sn.latency_count > 0;
  }
  std::vector<std::string> header = {"scenario"};
  header.insert(header.end(), keys.begin(), keys.end());
  if (latency) header.push_back("mean latency (us)");
  Table table(header);
  for (const Snapshot& sn : rows) {
    std::vector<std::string> row = {sn.name};
    for (const std::string& key : keys) {
      const auto it = sn.metrics.find(key);
      row.push_back(it == sn.metrics.end() ? "-" : Table::fmt(it->second));
    }
    if (latency) row.push_back(Table::fmt(sn.latency_mean / 1e3));
    table.add_row(std::move(row));
  }
  table.print(title);
}

int write_file(const std::string& path, const std::string& what,
               const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench: cannot open %s\n", path.c_str());
    return 1;
  }
  write(os);
  std::fprintf(stderr, "bench: %s -> %s\n", what.c_str(), path.c_str());
  return 0;
}

int Harness::finish() {
  int rc = 0;
  if (!opts_.bench_json.empty()) {
    const std::string what = std::to_string(snapshots_.size()) + " scenarios";
    rc |= write_file(opts_.bench_json, what, [&](std::ostream& os) {
      os << "{\n  \"schema\": \"dcs-bench-v1\",\n  \"bench\": "
         << quoted(bench_) << ",\n  \"scenarios\": {\n";
      for (std::size_t s = 0; s < snapshots_.size(); ++s) {
        const Snapshot& sn = snapshots_[s];
        os << "    " << quoted(sn.name) << ": {\n";
        os << "      \"virtual_ns\": " << sn.virtual_ns << ",\n";
        os << "      \"metrics\": {";
        bool first = true;
        for (const auto& [name, value] : sn.metrics) {
          os << (first ? "" : ", ") << quoted(name) << ": " << fmt_f3(value);
          first = false;
        }
        os << "},\n";
        os << "      \"latency_ns\": {\"count\": " << sn.latency_count;
        if (sn.latency_count > 0) {
          os << ", \"mean\": " << fmt_f3(sn.latency_mean)
             << ", \"p0\": " << fmt_f3(sn.p0) << ", \"p50\": " << fmt_f3(sn.p50)
             << ", \"p99\": " << fmt_f3(sn.p99)
             << ", \"p100\": " << fmt_f3(sn.p100);
        }
        os << "},\n";
        os << "      \"registry\": " << sn.registry_json;
        if (!sn.critical_path_json.empty()) {
          os << ",\n      \"critical_path\": " << sn.critical_path_json;
        }
        os << "\n    }" << (s + 1 < snapshots_.size() ? "," : "") << "\n";
      }
      os << "  }\n}\n";
    });
  }
  if (!opts_.wall_json.empty()) {
    rc |= write_file(opts_.wall_json, "wall telemetry", [&](std::ostream& os) {
      os << "{\n  \"schema\": \"dcs-bench-wall-v1\",\n  \"bench\": "
         << quoted(bench_) << ",\n  \"scenarios\": {\n";
      for (std::size_t s = 0; s < snapshots_.size(); ++s) {
        const Snapshot& sn = snapshots_[s];
        const double secs = sn.wall_ns / 1e9;
        const double eps = secs > 0 ? static_cast<double>(sn.events) / secs : 0;
        const double npe = ns_per_event(sn.wall_ns, sn.events);
        os << "    " << quoted(sn.name) << ": {\n"
           << "      \"virtual_ns\": " << sn.virtual_ns << ",\n"
           << "      \"events\": " << sn.events << ",\n"
           << "      \"wall_ns\": " << fmt_f3(sn.wall_ns) << ",\n"
           << "      \"events_per_sec\": " << fmt_f3(eps) << ",\n"
           << "      \"ns_per_event\": " << fmt_f3(npe);
        if (sn.batch > 0) os << ",\n      \"batch\": " << sn.batch;
        if (sn.zipf_alpha >= 0) {
          os << ",\n      \"zipf_alpha\": " << fmt_f3(sn.zipf_alpha);
        }
        os << "\n    }" << (s + 1 < snapshots_.size() ? "," : "") << "\n";
        std::fprintf(stderr,
                     "bench: wall %s/%s: %llu events, %.1f ns/event, "
                     "%.0f events/sec\n",
                     bench_.c_str(), sn.name.c_str(),
                     static_cast<unsigned long long>(sn.events), npe, eps);
      }
      os << "  }\n}\n";
    });
  }
  if (!opts_.critical_path.empty()) {
    rc |= write_file(opts_.critical_path, "critical path",
                     [&](std::ostream& os) {
      for (const Snapshot& sn : snapshots_) {
        if (sn.critical_path_report.empty()) continue;
        os << "== scenario " << sn.name << " ==\n"
           << sn.critical_path_report;
      }
    });
  }
  if (!opts_.trace_out.empty()) {
    rc |= write_file(opts_.trace_out,
                     std::to_string(trace_.size()) + " trace events",
                     [&](std::ostream& os) {
                       trace::write_chrome_json(os, trace_);
                     });
  }
  if (!opts_.metrics_out.empty()) {
    rc |= write_file(opts_.metrics_out, "metrics", [&](std::ostream& os) {
      for (const Snapshot& sn : snapshots_) {
        os << "== scenario " << sn.name << " ==\n" << sn.registry_text;
      }
    });
  }
  if (!opts_.timeseries_out.empty() || !opts_.slo_rules.empty()) {
    obs::SloEngine slo(store_);
    if (!opts_.slo_rules.empty()) {
      for (const obs::SloRule& rule : opts_.slo_rules) slo.add_rule(rule);
      SimNanos now = 0;
      for (const Snapshot& sn : snapshots_) {
        if (sn.virtual_ns > now) now = sn.virtual_ns;
      }
      slo.evaluate(now);
      // The alert stream goes to stderr in both modes; firing alerts are
      // diagnostics, not a failure (the exit code stays about file I/O).
      std::ostringstream stream;
      obs::write_alert_stream(stream, slo.alerts());
      std::fputs(stream.str().c_str(), stderr);
    }
    if (!opts_.timeseries_out.empty()) {
      rc |= write_file(opts_.timeseries_out,
                       std::to_string(store_.all().size()) + " series",
                       [&](std::ostream& os) {
                         obs::write_timeseries_json(os, store_, slo.alerts());
                       });
    }
  }
  if (!opts_.hotset_out.empty()) {
    rc |= write_file(opts_.hotset_out, "hotset", [&](std::ostream& os) {
      obs::write_hotset_json(os, hot_);
    });
  }
  if (!opts_.exemplars_out.empty()) {
    rc |= write_file(opts_.exemplars_out, "exemplars", [&](std::ostream& os) {
      trace::write_exemplar_json(os, exemplars_);
    });
  }
  if (opts_.hot_keys > 0) print_hot_keys(hot_, opts_.hot_keys);
  return rc;
}

}  // namespace dcs::bench
