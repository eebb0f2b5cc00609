// dcs_perfbench: runs ONE workload of the repo benchmark once and prints
// its measurements as one JSON line (perfbench/README.md).
//
//   dcs_perfbench --workload scale-zipf|lock-rmw|webfarm-coop --seed N
//                 [--workers W] [--trace 0|1] [--spans-out FILE]
//
// perfbench/run.py calls it repeatedly, checks the outputs and reduces the
// repetitions to the benchmark's metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "probe.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload scale-zipf|lock-rmw|webfarm-coop "
               "--seed N [--workers W] [--trace 0|1] [--spans-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs::perfbench;
  Options opts;
  std::string spans_out;
  if (argc % 2 == 0) return usage(argv[0]);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--workers") {
      opts.workers =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--trace") {
      opts.traced = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return usage(argv[0]);
    }
  }

  Record (*run)(const Options&) = nullptr;
  if (opts.workload == "scale-zipf") run = run_scale_zipf;
  if (opts.workload == "lock-rmw") run = run_lock_rmw;
  if (opts.workload == "webfarm-coop") run = run_webfarm_coop;
  if (run == nullptr) return usage(argv[0]);

  Record rec;
  try {
    const auto t0 = HostClock::now();
    rec = run(opts);
    if (opts.traced) {
      summarize_spans(rec);
      if (!spans_out.empty() && !write_spans(spans_out, rec.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
        return 1;
      }
    }
    rec.host["wall_s"] = seconds_between(t0, HostClock::now());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  rec.host["peak_rss_mb"] = peak_rss_mb();
  rec.host["events_per_s"] = rec.sim["sim.events"] / rec.host["run_s"];
  rec.config["workload"] = opts.workload;
  rec.config["seed"] = std::to_string(opts.seed);
  rec.config["traced"] = opts.traced ? "1" : "0";
  rec.config["build_type"] = PERFBENCH_BUILD_TYPE;
  rec.config["compiler"] = PERFBENCH_COMPILER;
  rec.config["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::printf("%s\n", to_json(rec).c_str());
  return 0;
}
