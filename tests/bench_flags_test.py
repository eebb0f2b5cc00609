#!/usr/bin/env python3
"""Command-line cells for the figure benches' harness flags.

Only bench_ddss_latency and bench_ddss_ops sweep verbs batch depths, so
every other bench must refuse `--batch` at parse time: exit 2 with a
message on stderr, before any simulation starts (no table on stdout, no
output file written).

Usage: python3 tests/bench_flags_test.py build/bench
(registered in tests/CMakeLists.txt as bench_flags_test).
"""

import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = None  # directory holding the bench_* binaries, from argv

# bench_datacenter_scale parses its own flags; tests/bench_scale_grid_test.py
# covers its --batch rejection.
BATCHED = {"bench_ddss_latency", "bench_ddss_ops"}
SKIPPED = BATCHED | {"bench_datacenter_scale"}


def benches():
    return sorted(p for p in pathlib.Path(BENCH_DIR).glob("bench_*")
                  if p.is_file() and os.access(p, os.X_OK))


class BenchFlagsTest(unittest.TestCase):
    def assert_rejected_before_running(self, bench, *args):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "BENCH.json"
            proc = subprocess.run([bench, *args, "--bench-json", str(out)],
                                  capture_output=True, text=True, timeout=60)
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("--batch is not supported", proc.stderr)
            self.assertEqual(proc.stdout, "")
            self.assertFalse(out.exists())

    def test_storm_rejects_batch_without_starting_a_simulation(self):
        self.assert_rejected_before_running(
            pathlib.Path(BENCH_DIR) / "bench_storm", "--batch", "4")

    def test_every_unbatched_bench_rejects_batch(self):
        found = {p.name for p in benches()}
        self.assertTrue(BATCHED <= found, found)
        rejecting = [p for p in benches() if p.name not in SKIPPED]
        self.assertEqual(len(rejecting), 15, [p.name for p in rejecting])
        for bench in rejecting:
            with self.subTest(bench=bench.name):
                self.assert_rejected_before_running(bench, "--batch", "4")


if __name__ == "__main__":
    BENCH_DIR = sys.argv.pop(1)
    unittest.main()
