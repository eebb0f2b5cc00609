#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads (perfbench/README.md).

    python3 perfbench/run.py --workload scale-zipf --seed 1 --seconds 20 \
        --trace 0

Builds perfbench/ (Release) into .bench_build/perfbench, then runs the
workload's binary repeatedly for --seconds:

  * one traced 1-worker reference run first: the determinism oracle (its
    fingerprint and simulated outputs must match every later run) and the
    source of the per-layer counts;
  * --trace 0: untraced runs at the workload's worker count; prints every
    end-to-end metric of BENCHMARK.json (host times are medians over the
    runs, simulated metrics repeat exactly);
  * --trace 1: alternating untraced and traced runs at the worker count;
    prints every per-layer metric (trace.overhead_ratio compares them) and
    writes the reference run's spans to .bench_out/.

Every run's outputs are checked (workload oracles, exact repeat of all
simulated values and the fingerprint, Release build).  Any violation counts
as failed operations and makes the command exit 1.  The last stdout line is
the JSON result; a per-run record goes to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 120
MIN_RUNS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds dcs_perfbench, logging to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "dcs_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "dcs_perfbench"


def run_once(binary, workload, seed, workers, traced, spans_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--workers", str(workers), "--trace", "1" if traced else "0"]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat_violations(ref, rec):
    """Simulated outputs shared by `ref` and `rec` must be identical."""
    out = []
    if rec["fingerprint"] != ref["fingerprint"]:
        out.append(f"fingerprint {rec['fingerprint']} != reference "
                   f"{ref['fingerprint']}")
    for key in sorted(ref["sim"].keys() & rec["sim"].keys()):
        if rec["sim"][key] != ref["sim"][key]:
            out.append(f"{key} = {rec['sim'][key]!r} != reference "
                       f"{ref['sim'][key]!r}")
    return out


def median(runs, key):
    return statistics.median(r["host"][key] for r in runs)


def end_to_end(names, ref, runs, attempted, failed):
    values = {}
    for name in names:
        if name == "ok_ratio":
            values[name] = (attempted - failed) / attempted
        elif name in ref["sim"]:
            values[name] = ref["sim"][name]
        else:
            values[name] = median(runs, name)
    return values


def per_layer(names, ref, untraced, traced):
    values, absent = {}, []
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = (median(traced, "run_s") /
                            median(untraced, "run_s") - 1)
        elif name in untraced[0]["host"]:
            values[name] = median(untraced, name)
        elif name in ref["sim"]:
            values[name] = ref["sim"][name]
        else:
            values[name] = 0.0
            absent.append(name)
    return values, absent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in catalog["workloads"]:
        ap.error(f"unknown workload {args.workload!r}")
    wl = catalog["workloads"][args.workload]
    seed = catalog["seeds"]["default"] if args.seed is None else args.seed
    workers = wl["workers"]
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}

    binary = build()
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{args.workload}.json" if args.trace else None

    log(f"perfbench: {args.workload} seed={seed} workers={workers} "
        f"trace={args.trace} for {args.seconds:g}s")
    ref = run_once(binary, args.workload, seed, 1, True, spans_out)
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(untraced) < MIN_RUNS:
        untraced.append(run_once(binary, args.workload, seed, workers, False))
        if args.trace:
            traced.append(run_once(binary, args.workload, seed, workers, True))
    runs = [ref] + untraced + traced

    violations, attempted, failed = [], 0, 0
    for i, rec in enumerate(runs):
        bad = list(rec["violations"])
        if rec["config"]["build_type"] != BUILD_TYPE:
            bad.append(f"build type {rec['config']['build_type']}, "
                       f"expected {BUILD_TYPE}")
        bad += repeat_violations(ref, rec)
        attempted += rec["attempted"]
        failed += rec["attempted"] if bad else rec["failed"]
        violations += [f"run {i}: {v}" for v in bad]

    names = [m["name"] for m in metric_specs]
    absent = []
    if args.trace:
        values, absent = per_layer(names, ref, untraced, traced)
    else:
        values = end_to_end(names, ref, untraced, attempted, failed)

    record = {
        "workload": args.workload,
        "seed": seed,
        "workers": workers,
        "trace": args.trace,
        "seconds": args.seconds,
        "build_type": ref["config"]["build_type"],
        "compiler": ref["config"]["compiler"],
        "nproc": ref["config"]["nproc"],
        "config": untraced[0]["config"],
        "runs": {"reference_traced_1_worker": 1, "untraced": len(untraced),
                 "traced": len(traced)},
        "samples": ref["sim"].get("sim_samples"),
        "violations": violations,
    }
    (OUT / f"record-{args.workload}-seed{seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"record": record, "metrics": values,
                              "raw": runs}, indent=1) + "\n")

    for v in violations[:20]:
        log(f"perfbench: VIOLATION {v}")
    print(f"# record {json.dumps(record)}")
    for name in names:
        note = " (layer absent in this workload)" if name in absent else ""
        if name == "sim_p50_us" or name == "sim_p99_us":
            note = f" (n={int(ref['sim']['sim_samples'])} samples)"
        print(f"# {name:30s} {values[name]:>16.6g} {units[name]}{note}")
    correct = not violations and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
