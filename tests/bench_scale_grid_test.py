#!/usr/bin/env python3
"""Parameter-grid smoke for bench_datacenter_scale.

Runs the bench over small values of every sizing flag and requires each
run to end with exit status 0 (ran) or 2 (rejected at parse time with a
message), never by a signal.  Runs go one at a time, so no run starts more
than four workers (`--shards` tops out at 4).

Usage: python3 tests/bench_scale_grid_test.py build/bench/bench_datacenter_scale
(registered in tests/CMakeLists.txt as bench_scale_grid_test).
"""

import itertools
import pathlib
import subprocess
import sys
import tempfile
import unittest

BENCH = None  # path to bench_datacenter_scale, from argv

GRID = {
    "--nodes": (16, 64),
    "--partitions": (1, 4, 16),
    "--clients": (0, 1, 16),
    "--ops": (0, 3),
    "--shards": (1, 2, 4),
}


def run(*args):
    return subprocess.run([BENCH, *args], capture_output=True, text=True,
                          timeout=120)


class ScaleGridTest(unittest.TestCase):
    def test_every_grid_point_runs_or_is_rejected(self):
        for values in itertools.product(*GRID.values()):
            args = [f"{flag}={v}" for flag, v in zip(GRID, values)]
            with self.subTest(args=" ".join(args)):
                proc = run(*args)
                self.assertIn(proc.returncode, (0, 2), proc.stderr)
                if proc.returncode == 2:
                    self.assertTrue(proc.stderr.strip())

    def test_bad_values_exit_2_with_a_message(self):
        with tempfile.TemporaryDirectory() as tmp:
            ts = str(pathlib.Path(tmp) / "ts.json")
            for args in (["--nodes=0"],
                         ["--nodes=abc"],
                         ["--partitions=4294967296"],
                         ["--scrape-us=0", "--timeseries-out", ts],
                         ["--batch", "abc"],
                         # Each shard is a spinning OS thread: these are
                         # refused at parse time, before any thread starts.
                         ["--shards=0"],
                         ["--partitions=4", "--shards=8"],
                         ["--nodes=128", "--partitions=128", "--clients=0",
                          "--ops=0", "--shards=65"],
                         ["--shards=4294967295"],
                         # Flags the harness parses that this bench does
                         # not write (it writes its own sharded outputs).
                         ["--trace-out", ts],
                         ["--bench-json", ts],
                         ["--metrics-out", ts],
                         ["--critical-path", ts],
                         ["--batch", "4"]):
                with self.subTest(args=" ".join(args)):
                    proc = run(*args)
                    self.assertEqual(proc.returncode, 2, proc.stderr)
                    self.assertTrue(proc.stderr.strip())


if __name__ == "__main__":
    BENCH = sys.argv.pop(1)
    unittest.main()
