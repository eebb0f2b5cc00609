#!/usr/bin/env python3
"""Command-line grid generated from every binary's flag table.

Each binary declares its flags once, in a table (src/common/flags.hpp), and
prints that table as its `--help` usage.  This test reads the usage of every
bench_* binary, every `dcs` command and dcs-lint, and for every row
generates the cells a table must reject at parse time: a malformed value,
max+1 (and min-1 where min > 0), a missing value, a repeated flag, plus an
unknown flag per binary.  Every cell must exit 2 with a message on stderr,
print nothing on stdout, write no --bench-json file and never end by a
signal.  `--help` must exit 0.

Only bench_ddss_latency and bench_ddss_ops sweep verbs batch depths, so
every other bench must refuse `--batch` at parse time too.

Usage: python3 tests/bench_flags_test.py build/bench build/tools
(registered in tests/CMakeLists.txt as bench_flags_test).
"""

import concurrent.futures
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = None  # directory holding the bench_* binaries, from argv
TOOLS_DIR = None  # directory holding dcs and dcs-lint, from argv

BATCHED = {"bench_ddss_latency", "bench_ddss_ops"}

# Command lines that once ended in a DCS_CHECK abort or std::bad_alloc.
FORMER_ABORTS = (
    ("bench_datacenter_scale", "--nodes=16", "--partitions=16",
     "--scrape-us=18446744073709551615", "--timeseries-out", "{tmp}/ts.json"),
    ("bench_monitor_zipf", "--cores-per-node=99999999999"),
    ("bench_datacenter_scale", "--nodes=16", "--partitions=1",
     "--clients=4294967295"),
)

ROW = re.compile(r"^  (\S+)(?: (\S+))?  +(.*)$")
RANGE = re.compile(r"\((?:N|X) in \[([^,\]]+), ([^\]]+)\]")


def benches():
    return sorted(p for p in pathlib.Path(BENCH_DIR).glob("bench_*")
                  if p.is_file() and os.access(p, os.X_OK))


def run(argv, timeout=60):
    return subprocess.run([str(a) for a in argv], capture_output=True,
                          text=True, timeout=timeout)


def dcs_commands():
    """The command names `dcs --help` lists."""
    usage = run([pathlib.Path(TOOLS_DIR) / "dcs", "--help"]).stdout
    section = usage.split("commands:\n", 1)[1]
    return [line.split()[0] for line in section.splitlines() if line.strip()]


def binaries():
    """Every command line prefix with a flag table: (label, argv prefix)."""
    dcs = pathlib.Path(TOOLS_DIR) / "dcs"
    out = [(p.name, [p]) for p in benches()]
    out += [(f"dcs {c}", [dcs, c]) for c in dcs_commands()]
    out.append(("dcs-lint", [pathlib.Path(TOOLS_DIR) / "dcs-lint"]))
    return out


def parse_usage(text):
    """The rows of a generated usage text: name, kind, range."""
    synopsis = text.splitlines()[0]
    rows = []
    for line in text.splitlines()[1:]:
        m = ROW.match(line)
        if not m or m.group(1) == "--help":
            continue
        name, meta, rest = m.groups()
        if not name.startswith("--"):
            kind = "many" if f"[{name}...]" in synopsis else "positional"
        elif meta is None:
            kind = "switch"
        elif meta == "N":
            kind = "count"
        elif meta == "X":
            kind = "real"
        elif "|" in meta:
            kind = "choice"
        else:
            kind = "path"
        lo = hi = None
        r = RANGE.search(rest)
        if r:
            conv = int if kind == "count" else float
            lo, hi = conv(r.group(1)), conv(r.group(2))
        rows.append({"name": name, "kind": kind, "meta": meta, "lo": lo,
                     "hi": hi})
    return rows


def cells(rows, out):
    """(description, args) for every cell the rows generate; `out` is the
    --bench-json path each cell passes when the table has that row."""
    names = {r["name"] for r in rows}
    base = ["x.json" for r in rows if r["kind"] == "positional"]
    if "--bench-json" in names:
        base += ["--bench-json", out]
    result = [("unknown flag", base + ["--no-such-flag", "1"])]
    for r in rows:
        name, kind = r["name"], r["kind"]
        if kind == "positional":
            rest = [a for a in base if a != "x.json"]
            result.append((f"missing {name}", rest))
            result.append((f"repeated {name}", base + ["y.json"]))
            continue
        if kind == "many":
            continue
        own = list(base)
        if name == "--bench-json":
            own = [a for a in base if a not in ("--bench-json", out)]
        if kind == "switch":
            result.append((f"{name}=1", own + [f"{name}=1"]))
            result.append((f"repeated {name}", own + [name, name]))
            continue
        valid = {"count": str(r["lo"]), "real": str(r["lo"]),
                 "choice": (r["meta"] or "").split("|")[0],
                 "path": out if name == "--bench-json" else "x"}[kind]
        malformed = {"count": "abc", "real": "abc", "choice": "no-such-value",
                     "path": ""}[kind]
        result.append((f"malformed {name}", own + [f"{name}={malformed}"]))
        result.append((f"missing {name}", own + [name]))
        result.append((f"repeated {name}",
                       own + [name, valid, f"{name}={valid}"]))
        if r["hi"] is not None:
            result.append((f"{name} max+1", own + [name, str(r["hi"] + 1)]))
        if r["lo"] is not None and r["lo"] > 0:
            result.append((f"{name} min-1", own + [name, str(r["lo"] - 1)]))
    return result


class BenchFlagsTest(unittest.TestCase):
    def assert_rejected_before_running(self, argv, out, what):
        proc = run(argv)
        self.assertEqual(proc.returncode, 2,
                         f"{what}: {argv}\n{proc.stdout}{proc.stderr}")
        self.assertTrue(proc.stderr.strip(), what)
        self.assertEqual(proc.stdout, "", what)
        self.assertFalse(pathlib.Path(out).exists(), what)
        return proc

    def assert_batch_rejected(self, bench):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "BENCH.json"
            proc = self.assert_rejected_before_running(
                [bench, "--batch", "4", "--bench-json", out], out, "--batch")
            self.assertIn("--batch", proc.stderr)

    def test_storm_rejects_batch_without_starting_a_simulation(self):
        self.assert_batch_rejected(pathlib.Path(BENCH_DIR) / "bench_storm")

    def test_every_unbatched_bench_rejects_batch(self):
        found = {p.name for p in benches()}
        self.assertTrue(BATCHED <= found, found)
        rejecting = [p for p in benches() if p.name not in BATCHED]
        self.assertEqual(len(rejecting), 16, [p.name for p in rejecting])
        for bench in rejecting:
            with self.subTest(bench=bench.name):
                self.assert_batch_rejected(bench)

    def test_help_lists_every_row_and_exits_0(self):
        labels = []
        for label, prefix in binaries():
            with self.subTest(binary=label):
                proc = run(prefix + ["--help"])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(proc.stdout.startswith("usage: "))
                self.assertIn("--help", proc.stdout)
                labels.append(label)
        self.assertEqual(len(labels), 18 + 10 + 1, labels)

    def test_every_generated_cell_exits_2_before_running(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(pathlib.Path(tmp) / "BENCH.json")
            jobs = []
            for label, prefix in binaries():
                rows = parse_usage(run(prefix + ["--help"]).stdout)
                self.assertTrue(rows or label == "dcs params", label)
                for what, args in cells(rows, out):
                    jobs.append((f"{label}: {what}", prefix + args))
            self.assertGreater(len(jobs), 900)
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                procs = list(pool.map(lambda job: run(job[1]), jobs))
            for (what, argv), proc in zip(jobs, procs):
                with self.subTest(cell=what):
                    self.assertEqual(
                        proc.returncode, 2,
                        f"{argv}\n{proc.stdout}{proc.stderr}")
                    self.assertTrue(proc.stderr.strip())
                    self.assertEqual(proc.stdout, "")
            self.assertFalse(pathlib.Path(out).exists())

    def test_former_aborts_exit_2_with_a_message(self):
        with tempfile.TemporaryDirectory() as tmp:
            for binary, *args in FORMER_ABORTS:
                argv = [pathlib.Path(BENCH_DIR) / binary,
                        *(a.format(tmp=tmp) for a in args)]
                with self.subTest(args=" ".join(map(str, argv))):
                    proc = run(argv)
                    self.assertEqual(proc.returncode, 2, proc.stderr)
                    self.assertTrue(proc.stderr.strip())
            self.assertFalse(pathlib.Path(tmp, "ts.json").exists())

    def test_equals_and_space_spellings_run_byte_identically(self):
        dcs = pathlib.Path(TOOLS_DIR) / "dcs"
        with tempfile.TemporaryDirectory() as tmp:
            spaced = pathlib.Path(tmp) / "spaced.json"
            joined = pathlib.Path(tmp) / "joined.json"
            a = run([dcs, "locks", "--waiters", "3", "--mode", "exclusive",
                     "--bench-json", spaced])
            b = run([dcs, "locks", "--waiters=3", "--mode=exclusive",
                     f"--bench-json={joined}"])
            self.assertEqual(a.returncode, 0, a.stderr)
            self.assertEqual(b.returncode, 0, b.stderr)
            self.assertEqual(a.stdout, b.stdout)
            self.assertEqual(spaced.read_bytes(), joined.read_bytes())


if __name__ == "__main__":
    TOOLS_DIR = sys.argv.pop(2)
    BENCH_DIR = sys.argv.pop(1)
    unittest.main()
