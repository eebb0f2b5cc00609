#!/usr/bin/env python3
"""Command-line grid for the `dcs` scenario driver.

Every run command at small valid values must exit 0, and every malformed
or unsupported invocation must exit 2 with a message on stderr.  No case
may end by a signal (a DCS_CHECK abort, SIGFPE, bad_alloc).  Each run has
a timeout, so a value that would run for ever fails the test instead.

Usage: python3 tests/dcs_grid_test.py build/tools/dcs
(registered in tests/CMakeLists.txt as dcs_grid_test).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

DCS = None  # path to the dcs binary, from argv

RUNS = (
    ["params"],
    *(["cache", "--scheme", s, "--requests", "40"]
      for s in ("AC", "BCC", "CCWR", "MTACC", "HYBCC")),
    ["cache", "--proxies", "1", "--file-kb", "1", "--ws-mb", "1",
     "--cache-mb", "0", "--alpha", "0", "--requests", "1"],
    ["cache", "--proxies", "3", "--file-kb", "64", "--ws-mb", "1",
     "--alpha", "1.5", "--requests", "30"],
    *(["locks", "--scheme", s, "--mode", m, "--waiters", w]
      for s in ("srsl", "dqnl", "ncosed")
      for m in ("shared", "exclusive")
      for w in ("1", "3")),
    *(["monitor", "--scheme", s, "--jobs", j]
      for s in ("socket-sync", "socket-async", "rdma-sync", "rdma-async",
                "e-rdma-sync")
      for j in ("0", "2")),
    *(["storm", "--plane", p, "--records", r]
      for p in ("sockets", "ddss")
      for r in ("0", "1", "5000")),
)

WEDGES = tuple(["wedge", "--scenario", s, "--waiters", "1", "--ring", r]
               for s in ("stall", "deadline", "violation")
               for r in ("0", "4"))

REJECTED = (
    # Malformed numbers.
    ["top", "x.json", "--node", "abc"],
    ["inspect", "x.json", "--top", "-1"],
    ["explain", "x.json", "--top", "1x"],
    ["locks", "--waiters", "abc"],
    ["cache", "--alpha", "x"],
    ["cache", "--alpha", "nan"],
    ["cache", "--alpha", "-1"],
    ["cache", "--proxies", "-1"],
    ["wedge", "--waiters", "-2"],
    ["storm", "--records", "-1"],
    ["storm", "--records", "18446744073709551615"],
    # Values that would reach a DCS_CHECK or divide by zero.
    ["cache", "--scheme", "AC", "--proxies", "0"],
    ["cache", "--ws-mb", "0"],
    ["cache", "--file-kb", "0"],
    ["cache", "--requests", "0"],
    ["cache", "--file-kb", "4096", "--ws-mb", "1"],
    ["locks", "--waiters", "0"],
    # Unknown choices.
    ["cache", "--scheme", "LRU"],
    ["locks", "--scheme", "mcs"],
    ["locks", "--mode", "shard"],
    ["monitor", "--scheme", "rdma"],
    ["storm", "--plane", "ddsss"],
    ["wedge", "--scenario", "crash"],
    # Unknown flags, stray arguments and missing values.
    ["locks", "--bogus", "3"],
    ["locks", "--waiters"],
    ["locks", "--waiters", "--mode", "shared"],
    ["cache", "extra"],
    ["params", "--bogus", "1"],
    # Harness flags a command parses but does not honour.
    ["cache", "--batch", "4"],
)


def run(*args):
    return subprocess.run([DCS, *args], capture_output=True, text=True,
                          timeout=60)


class DcsGridTest(unittest.TestCase):
    def assert_runs(self, args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def assert_rejected(self, args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertTrue(proc.stderr.strip())

    def test_every_run_command_runs_at_small_values(self):
        with tempfile.TemporaryDirectory() as tmp:
            for args in RUNS:
                with self.subTest(args=" ".join(args)):
                    self.assert_runs(args)
            for args in WEDGES:
                with self.subTest(args=" ".join(args)):
                    self.assert_runs([*args, "--postmortem-dir", tmp])

    def test_malformed_invocations_exit_2_with_a_message(self):
        for args in REJECTED:
            with self.subTest(args=" ".join(args)):
                self.assert_rejected(args)

    def test_params_and_wedge_reject_outputs_they_do_not_write(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(pathlib.Path(tmp) / "out")
            for flag in ("--bench-json", "--bench-wall-json",
                         "--critical-path", "--timeseries-out", "--slo",
                         "--trace-out", "--metrics-out", "--exemplars-out",
                         "--hotset-out"):
                for cmd in ("params", "wedge"):
                    with self.subTest(cmd=cmd, flag=flag):
                        self.assert_rejected([cmd, flag, out])
            self.assert_rejected(["params", "--postmortem-dir", tmp])
            self.assert_rejected(["params", "--hot-keys", "3"])
            self.assert_rejected(["wedge", "--hot-keys", "3"])
            self.assertFalse(pathlib.Path(out).exists())

    def test_run_commands_write_every_harness_output(self):
        with tempfile.TemporaryDirectory() as tmp:
            d = pathlib.Path(tmp)
            outs = {flag: str(d / flag.lstrip("-"))
                    for flag in ("--bench-json", "--bench-wall-json",
                                 "--critical-path", "--timeseries-out",
                                 "--trace-out", "--metrics-out",
                                 "--exemplars-out", "--hotset-out")}
            args = [a for kv in outs.items() for a in kv]
            self.assert_runs(["locks", "--waiters", "3", *args])
            for flag, path in outs.items():
                with self.subTest(flag=flag):
                    self.assertTrue(pathlib.Path(path).stat().st_size > 0)
            metrics = pathlib.Path(outs["--metrics-out"]).read_text()
            self.assertTrue(metrics.startswith("== scenario run ==\n"))

    def test_cache_reports_its_hot_documents(self):
        with tempfile.TemporaryDirectory() as tmp:
            hotset = pathlib.Path(tmp) / "hot.json"
            proc = run("cache", "--requests", "40", "--hotset-out",
                       str(hotset), "--hot-keys", "3")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("cache.doc", proc.stdout)
            doc = json.loads(hotset.read_text())
            domains = [d["domain"] for d in doc["domains"]]
            self.assertIn("cache.doc", domains)


if __name__ == "__main__":
    DCS = sys.argv.pop(1)
    unittest.main()
