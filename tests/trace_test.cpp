// Observability layer: metrics registry semantics, tracer span recording,
// CLI flag extraction, and the headline guarantee — two same-seed runs
// produce byte-identical trace and metrics output.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"
#include "sockets/sdp.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dcs;

// --- registry ---

TEST(TraceRegistryTest, RegistrationIsIdempotentWithStableHandles) {
  trace::Registry reg;
  trace::Counter& c1 = reg.counter("layer.comp.ops");
  c1.add(2);
  trace::Counter& c2 = reg.counter("layer.comp.ops");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value, 2u);
  // Handles survive arbitrary later registrations (node-based storage).
  for (int i = 0; i < 100; ++i) reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(&reg.counter("layer.comp.ops"), &c1);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(TraceRegistryTest, FindRespectsNameAndKind) {
  trace::Registry reg;
  reg.counter("a.b.ops").add(5);
  reg.gauge("a.b.depth").set(3.5);
  ASSERT_NE(reg.find_counter("a.b.ops"), nullptr);
  EXPECT_EQ(reg.find_counter("a.b.ops")->value, 5u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_counter("a.b.depth"), nullptr);  // wrong kind
  ASSERT_NE(reg.find_gauge("a.b.depth"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("a.b.depth")->value, 3.5);
}

TEST(TraceRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  trace::Registry reg;
  trace::Counter& c = reg.counter("a.ops");
  c.add(7);
  reg.distribution("a.lat").record(12.0);
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(c.value, 0u);  // same handle, zeroed
  EXPECT_EQ(reg.find_distribution("a.lat")->stat.count(), 0u);
  c.add(1);
  EXPECT_EQ(reg.find_counter("a.ops")->value, 1u);
}

TEST(TraceRegistryTest, MergeFoldsEveryMetricKind) {
  trace::Registry a;
  trace::Registry b;
  a.counter("n.ops").add(3);
  b.counter("n.ops").add(4);
  b.counter("only.b").add(1);
  a.distribution("n.lat").record(1.0);
  b.distribution("n.lat").record(3.0);
  b.gauge("n.depth").set(9.0);
  b.histogram("n.batch").record(5);
  b.histogram("n.batch").record(6);
  a.merge(b);
  EXPECT_EQ(a.find_counter("n.ops")->value, 7u);
  EXPECT_EQ(a.find_counter("only.b")->value, 1u);
  EXPECT_EQ(a.find_distribution("n.lat")->stat.count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_distribution("n.lat")->stat.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.find_gauge("n.depth")->value, 9.0);
  EXPECT_EQ(a.find_histogram("n.batch")->hist.count(), 2u);
}

TEST(TraceRegistryTest, WriteIsSortedAndParseable) {
  trace::Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  std::ostringstream os;
  reg.write(os);
  const std::string out = os.str();
  EXPECT_LT(out.find("counter a.first 2"), out.find("counter z.last 1"));
}

// --- tracer ---

TEST(TracerTest, NoTracerInstalledRecordsNothing) {
  sim::Engine eng;
  trace::Tracer tracer(eng);  // never installed
  {
    DCS_TRACE_SPAN("test", "op", 0, 1);
    DCS_TRACE_INSTANT("test", "mark", 0);
  }
  EXPECT_EQ(trace::current_tracer(), nullptr);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, RecordsNestedSpansAndInstantsAtVirtualTime) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  tracer.install();
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    DCS_TRACE_SPAN("test", "outer", 1, 42);
    co_await e.delay(100);
    {
      DCS_TRACE_SPAN("test", "inner", 1, 43, "nested");
      co_await e.delay(50);
    }
    DCS_TRACE_INSTANT("test", "mark", 1, 7);
    co_await e.delay(10);
  }(eng));
  eng.run();
  tracer.uninstall();

  // Spans close inner-first; the instant fires between the two closes.
  ASSERT_EQ(tracer.event_count(), 3u);
  const auto& evs = tracer.events();
  EXPECT_STREQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].start, 100u);
  EXPECT_EQ(evs[0].end, 150u);
  EXPECT_STREQ(evs[0].detail, "nested");
  EXPECT_STREQ(evs[1].name, "mark");
  EXPECT_EQ(evs[1].phase, 'i');
  EXPECT_EQ(evs[1].start, 150u);
  EXPECT_STREQ(evs[2].name, "outer");
  EXPECT_EQ(evs[2].start, 0u);
  EXPECT_EQ(evs[2].end, 160u);
  EXPECT_EQ(evs[2].id, 42u);

  std::ostringstream json;
  tracer.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ph\":\"i\""), std::string::npos);
}

// --- CLI flags: the harness rows of a flag table (bench/harness.hpp) ---

/// Owns an argv built from `args` (argv[0] = "bench") for the parser.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    storage.insert(storage.begin(), "bench");
    for (auto& s : storage) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  /// Parses with a figure bench's table: every harness row but --batch,
  /// plus `extra` rows (e.g. the batch row).
  bench::HarnessOptions parse(
      std::initializer_list<std::string_view> extra = {}) {
    bench::HarnessOptions opts;
    flags::Table t("bench_unit", "", bench::harness_flags(opts));
    if (extra.size() > 0) t.add(bench::harness_flags(opts, extra));
    t.parse(argc, ptrs.data());
    return opts;
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(ObserveFlagsTest, HarnessAndOwnRowsShareOneCommandLine) {
  Argv a({"--foo", "--trace-out", "t.json", "--bar", "1", "--metrics-out",
          "m.txt"});
  bench::HarnessOptions opts;
  bool foo = false;
  int bar = 0;
  flags::Table("bench_unit", "",
               {flags::toggle("--foo", &foo, "own switch"),
                flags::count("--bar", &bar, 0, 9, "own count")})
      .add(bench::harness_flags(opts))
      .parse(a.argc, a.ptrs.data());
  EXPECT_TRUE(opts.bench_json.empty());
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.metrics_out, "m.txt");
  EXPECT_TRUE(foo);
  EXPECT_EQ(bar, 1);
}

TEST(ObserveFlagsTest, AbsentFlagsDisableObservation) {
  const auto opts = Argv({}).parse();
  EXPECT_TRUE(opts.trace_out.empty());
  EXPECT_TRUE(opts.metrics_out.empty());
  EXPECT_TRUE(opts.bench_json.empty());
  EXPECT_FALSE(opts.attribution_mode());
}

TEST(ObserveFlagsTest, PostmortemDirIsExtractedAlone) {
  const auto opts = Argv({"--postmortem-dir", "pm"}).parse();
  // A flight recorder arms every harness scenario; on its own it asks for
  // no other output.
  EXPECT_EQ(opts.postmortem_dir, "pm");
  EXPECT_TRUE(opts.trace_out.empty());
  EXPECT_TRUE(opts.bench_json.empty());
}

TEST(ObserveFlagsTest, CountFlagsRejectNonCountsWithExit2) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--batch", "abc"},
           {"--batch", "-1"},
           {"--batch", "1024"},
           {"--batch", "8x"},
           {"--hot-keys", "x"},
           {"--hot-keys", "1025"}}) {
    Argv a(args);
    EXPECT_EXIT(a.parse({"--batch"}), ::testing::ExitedWithCode(2), args[0])
        << args[0] << " " << args[1];
  }
}

TEST(ObserveFlagsTest, BatchAcceptsDepthsUpTo512) {
  const auto opts = Argv({"--batch", "512", "--hot-keys", "3"}).parse(
      {"--batch"});
  EXPECT_EQ(opts.batch, 512u);
  EXPECT_EQ(opts.hot_keys, 3u);
}

TEST(ObserveFlagsTest, BenchCommandLineRejectsLeftoverArguments) {
  Argv flag({"--bench-json", "b.json", "--bogus"});
  EXPECT_EXIT(flag.parse(), ::testing::ExitedWithCode(2),
              "bench_unit: unknown flag --bogus");
  Argv stray({"--bench-json", "b.json", "extra"});
  EXPECT_EXIT(stray.parse(), ::testing::ExitedWithCode(2),
              "bench_unit: unexpected argument 'extra'");
}

TEST(ObserveFlagsTest, BenchCommandLineAcceptsObservedAndHarnessRuns) {
  const auto observe_opts =
      Argv({"--trace-out", "t.json", "--postmortem-dir", "pm"}).parse();
  EXPECT_EQ(observe_opts.trace_out, "t.json");
  EXPECT_EQ(observe_opts.postmortem_dir, "pm");
  const auto harness_opts =
      Argv({"--bench-json", "b.json", "--batch", "4"}).parse({"--batch"});
  EXPECT_EQ(harness_opts.bench_json, "b.json");
  EXPECT_EQ(harness_opts.batch, 4u);
}

TEST(ObserveFlagsTest, BenchCommandLineRejectsBatchUnlessItSweepsBatches) {
  Argv a({"--bench-json", "b.json", "--batch", "4"});
  EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
              "bench_unit: unknown flag --batch");
  EXPECT_EQ(Argv({"--bench-json", "b.json"}).parse().batch, 0u);
}

TEST(ObserveFlagsTest, UnlistedRowsRejectFlagsABinaryDoesNotWrite) {
  Argv a({"--postmortem-dir", "pm", "--hot-keys", "2"});
  const auto parse = [&a](std::initializer_list<std::string_view> rows) {
    bench::HarnessOptions opts;
    flags::Table t("unit", "");
    if (rows.size() > 0) t.add(bench::harness_flags(opts, rows));
    t.parse(a.argc, a.ptrs.data());
    return opts;
  };
  const auto opts = parse({"--postmortem-dir", "--hot-keys"});
  EXPECT_EQ(opts.postmortem_dir, "pm");
  EXPECT_EQ(opts.hot_keys, 2u);
  EXPECT_EXIT(parse({"--postmortem-dir"}), ::testing::ExitedWithCode(2),
              "unit: unknown flag --hot-keys");
  EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
              "unit: unknown flag --postmortem-dir");
}

TEST(ObserveFlagsTest, RealValuesRejectNonNumbersWithExit2) {
  EXPECT_EQ(flags::parse_real("0.75", 0, 10), 0.75);
  EXPECT_EQ(flags::parse_real("10", 0, 10), 10.0);
  for (const char* text : {"", "x", "0.5x", "-0.1", "10.5", "nan", "inf"}) {
    EXPECT_EQ(flags::parse_real(text, 0, 10), std::nullopt) << text;
    double alpha = 0.75;
    const flags::Table t("unit", "",
                         {flags::real("--alpha", &alpha, 0, 10, "skew")});
    Argv a({std::string("--alpha=") + text});
    EXPECT_EXIT(t.parse(a.argc, a.ptrs.data()), ::testing::ExitedWithCode(2),
                "unit: --alpha ")
        << "'" << text << "'";
  }
}

TEST(ObserveFlagsTest, SloRuleFileIsCheckedWhenTheFlagIsParsed) {
  const std::string bad = ::testing::TempDir() + "observe_flags_bad.slo";
  std::ofstream(bad) << "rule r rate series=a total=b max=0.1 windows=3x\n";
  Argv a({"--slo", bad});
  EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
              "bench_unit: slo: line 1: bad number in `windows=3x`");
  const std::string good = ::testing::TempDir() + "observe_flags_good.slo";
  std::ofstream(good) << "rule r rate series=a total=b max=0.1\n";
  const auto opts = Argv({"--slo", good}).parse();
  ASSERT_EQ(opts.slo_rules.size(), 1u);
  EXPECT_EQ(opts.slo_rules[0].series, "a");
}

// --- bench::Harness: tracer only when output is requested ---

TEST(HarnessTest, NoOutputFlagsRunWithoutATracer) {
  bench::Harness h("unit", {});
  bool ran = false;
  bool traced = true;
  h.run("cell", [&](bench::Scenario&) {
    traced = trace::current_tracer() != nullptr;
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_FALSE(traced);
  EXPECT_EQ(h.finish(), 0);
}

TEST(HarnessTest, BenchJsonInstallsATracerAndRecordsReturnedMetrics) {
  bench::HarnessOptions opts;
  opts.bench_json = ::testing::TempDir() + "harness_test_bench.json";
  bench::Harness h("unit", opts);
  const trace::Tracer* seen = nullptr;
  const auto metrics = h.run("cell", [&](bench::Scenario& s) {
    seen = trace::current_tracer();
    s.engine().spawn([](sim::Engine& e) -> sim::Task<void> {
      co_await e.delay(250);
    }(s.engine()));
    s.engine().run();
    s.metric("answer", 42.5);
  });
  EXPECT_NE(seen, nullptr);
  EXPECT_EQ(trace::current_tracer(), nullptr);
  EXPECT_EQ(metrics, (std::map<std::string, double>{{"answer", 42.5}}));
  ASSERT_EQ(h.finish(), 0);
  std::ifstream in(opts.bench_json);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"virtual_ns\": 250,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"metrics\": {\"answer\": 42.500}"),
            std::string::npos)
      << json;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(HarnessTest, TraceOutBesideBenchJsonWritesBothFiles) {
  Argv a({"--trace-out", ::testing::TempDir() + "harness_both.trace.json",
          "--bench-json", ::testing::TempDir() + "harness_both.bench.json"});
  const auto opts = a.parse();
  bench::Harness h("unit", opts);
  h.run("cell", [](bench::Scenario& s) {
    s.engine().spawn([](sim::Engine& e) -> sim::Task<void> {
      trace::Request req("unit.request", 0);
      co_await e.delay(250);
    }(s.engine()));
    s.engine().run();
  });
  ASSERT_EQ(h.finish(), 0);
  const std::string trace = read_file(opts.trace_out);
  EXPECT_NE(trace.find("\"name\":\"unit.request\""), std::string::npos)
      << trace;
  const std::string json = read_file(opts.bench_json);
  EXPECT_NE(json.find("\"cell\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"virtual_ns\": 250,"), std::string::npos) << json;
}

// --- determinism: the headline guarantee ---

/// One traced SDP workload (all three modes on a fresh engine), returning
/// everything the observability layer can emit, concatenated.
std::string traced_sdp_run() {
  trace::Registry::global().reset();
  sim::Engine eng;
  trace::Tracer tracer(eng);
  tracer.install();
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  for (const auto mode :
       {sockets::SdpMode::kBufferedCopy, sockets::SdpMode::kZeroCopy,
        sockets::SdpMode::kAsyncZeroCopy}) {
    sockets::SdpStream stream(net, 0, 1, mode);
    constexpr int kMsgs = 8;
    eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
      for (int i = 0; i < kMsgs; ++i) {
        co_await s.send(std::vector<std::byte>(32768));
      }
      co_await s.flush();
    }(stream));
    eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
      for (int i = 0; i < kMsgs; ++i) (void)co_await s.recv();
    }(stream));
    eng.run();
  }
  tracer.uninstall();
  std::ostringstream json;
  std::ostringstream metrics;
  std::ostringstream summary;
  tracer.write_chrome_json(json);
  trace::Registry::global().write(metrics);
  tracer.write_summary(summary);
  return json.str() + "\n---\n" + metrics.str() + "\n---\n" + summary.str();
}

TEST(TraceDeterminismTest, SameSeedRunsProduceByteIdenticalOutput) {
  const std::string first = traced_sdp_run();
  const std::string second = traced_sdp_run();
  EXPECT_EQ(first, second);

  // The run exercised real instrumentation, not an empty trace.
  EXPECT_NE(first.find("\"cat\":\"sockets\""), std::string::npos);
  EXPECT_NE(first.find("counter sockets.sdp.sends 24"), std::string::npos)
      << first;
  EXPECT_NE(first.find("sockets.sdp.send |"), std::string::npos);
}

// --- critical path: determinism and the zero-overhead contract ---

struct RequestRun {
  SimNanos end = 0;        // final virtual time
  std::string metrics;     // registry text dump
  std::string report;      // critical-path report (traced runs only)
  std::string json;        // critical-path JSON (traced runs only)
  std::uint64_t requests = 0;
  double attributed = 0.0;
};

/// Runs a fixed SDP workload on `eng` whose six sends are request roots.
void sdp_requests(sim::Engine& eng) {
  fabric::Fabric fab(eng, fabric::FabricParams{}, {.num_nodes = 2});
  verbs::Network net(fab);
  sockets::SdpStream stream(net, 0, 1, sockets::SdpMode::kZeroCopy);
  constexpr int kMsgs = 6;
  eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      trace::Request req("sdp.send", 0, static_cast<std::uint64_t>(i));
      co_await s.send(std::vector<std::byte>(16384));
    }
    co_await s.flush();
  }(stream));
  eng.spawn([](sockets::SdpStream& s) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) (void)co_await s.recv();
  }(stream));
  eng.run();
}

/// The SDP request workload on a fresh engine.  With `traced` false
/// nothing is recorded, which is the baseline for the overhead contract:
/// instrumentation must not perturb the simulation.
RequestRun request_run(bool traced) {
  trace::Registry::global().reset();
  sim::Engine eng;
  trace::Tracer tracer(eng);
  if (traced) tracer.install();
  sdp_requests(eng);
  tracer.uninstall();

  RequestRun out;
  out.end = eng.now();
  std::ostringstream m;
  trace::Registry::global().write(m);
  out.metrics = m.str();
  if (traced) {
    const trace::CriticalPath cp(tracer);
    std::ostringstream r, j;
    cp.write_report(r);
    cp.write_json(j);
    out.report = r.str();
    out.json = j.str();
    out.requests = cp.aggregate().count;
    out.attributed = cp.aggregate().attributed_fraction();
  }
  return out;
}

TEST(CriticalPathTest, SameSeedRunsProduceByteIdenticalReports) {
  const RequestRun first = request_run(true);
  const RequestRun second = request_run(true);
  ASSERT_FALSE(first.report.empty());
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.end, second.end);

  // Sanity: every send became a request window and the report names it.
  EXPECT_EQ(first.requests, 6u);
  EXPECT_NE(first.report.find("sdp.send"), std::string::npos) << first.report;
  EXPECT_NE(first.json.find("\"schema\":\"dcs-critical-path-v1\""),
            std::string::npos);
}

TEST(CriticalPathTest, AttributionCoversWindowAndReportsResidual) {
  const RequestRun run = request_run(true);
  ASSERT_EQ(run.requests, 6u);
  // The six categories must explain the overwhelming share of latency;
  // whatever is left shows up as an explicit residual line, never silently.
  EXPECT_GE(run.attributed, 0.95);
  EXPECT_LE(run.attributed, 1.0 + 1e-12);
  EXPECT_NE(run.report.find("residual"), std::string::npos);
}

TEST(CriticalPathTest, TracingDoesNotPerturbTheSimulation) {
  const RequestRun untraced = request_run(false);
  const RequestRun traced = request_run(true);
  // Identical virtual end time and identical op counts: the tracer only
  // observes, it never schedules or delays.
  EXPECT_EQ(untraced.end, traced.end);
  EXPECT_EQ(untraced.metrics, traced.metrics);
  EXPECT_NE(untraced.metrics.find("counter sockets.sdp.sends 6"),
            std::string::npos)
      << untraced.metrics;
}

TEST(CriticalPathTest, EmptyTraceYieldsEmptyDeterministicReport) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  const trace::CriticalPath cp(tracer);
  EXPECT_EQ(cp.aggregate().count, 0u);
  EXPECT_TRUE(cp.requests().empty());
  std::ostringstream a, b;
  cp.write_report(a);
  cp.write_report(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("requests 0"), std::string::npos) << a.str();
}

// --- bench::Harness --trace-out: one trace, scenarios end to end ---

/// The number after `"key":` in one Chrome trace event line (0 if absent).
double field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  return at == std::string::npos ? 0
                                 : std::stod(line.substr(at + key.size() + 3));
}

TEST(HarnessTest, OneScenarioTraceOutMatchesTheTracer) {
  sim::Engine eng;
  trace::Tracer tracer(eng);
  tracer.install();
  sdp_requests(eng);
  tracer.uninstall();
  std::ostringstream expected;
  tracer.write_chrome_json(expected);

  bench::HarnessOptions opts;
  opts.trace_out = ::testing::TempDir() + "harness_one_scenario.json";
  bench::Harness h("unit", opts);
  h.run("only", [](bench::Scenario& s) { sdp_requests(s.engine()); });
  ASSERT_EQ(h.finish(), 0);
  EXPECT_EQ(read_file(opts.trace_out), expected.str());
}

TEST(HarnessTest, TwoScenariosShareOneTraceWithUniqueIds) {
  bench::HarnessOptions opts;
  opts.trace_out = ::testing::TempDir() + "harness_two_scenarios.json";
  bench::Harness h("unit", opts);
  for (const char* name : {"first", "second"}) {
    h.run(name, [](bench::Scenario& s) { sdp_requests(s.engine()); });
  }
  ASSERT_EQ(h.finish(), 0);

  // Both scenarios ran the same workload, so each owns half the events.
  std::vector<std::string> events;
  std::istringstream in(read_file(opts.trace_out));
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("{\"ph\":\"X\"") ||
        line.starts_with("{\"ph\":\"i\"")) {
      events.push_back(line);
    }
  }
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.size() % 2, 0u);
  const std::size_t half = events.size() / 2;
  // Chrome `ts`/`dur` print microseconds with three decimals: compare ns.
  const auto ns = [](const std::string& ev, const char* key) {
    return std::llround(1000 * field(ev, key));
  };
  long long first_end = 0;
  long long second_start = std::numeric_limits<long long>::max();
  std::set<double> roots, spans, second_spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string& ev = events[i];
    if (i < half) {
      first_end = std::max(first_end, ns(ev, "ts") + ns(ev, "dur"));
    } else {
      second_start = std::min(second_start, ns(ev, "ts"));
    }
    if (ev.find("\"cat\":\"request\"") != std::string::npos) {
      EXPECT_TRUE(roots.insert(field(ev, "request")).second) << ev;
    }
    if (const double span = field(ev, "span"); span != 0) {
      EXPECT_TRUE(spans.insert(span).second) << ev;
      if (i >= half) second_spans.insert(span);
    }
  }
  EXPECT_EQ(roots.size(), 12u);  // six sdp.send requests per scenario
  EXPECT_LE(first_end, second_start);
  // A second-scenario span's parent is a second-scenario span.
  for (std::size_t i = half; i < events.size(); ++i) {
    const double parent = field(events[i], "parent");
    if (parent != 0) {
      EXPECT_TRUE(second_spans.contains(parent)) << events[i];
    }
  }
}

}  // namespace
