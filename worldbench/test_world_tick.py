#!/usr/bin/env python3
"""Tests of the world-tick benchmark itself, at the tiny scale of each workload.

    python3 worldbench/test_world_tick.py

Builds world_tick the way run.py does, then checks for every workload that
output_digest repeats across runs and across pool sizes 1 and 4, and that a
tick whose check is made to fail is counted in error_rate and fails the run.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["iridium_users", "megashell_10k", "scenario_facade"]


def world_tick(workload, *args):
    """Run world_tick at tiny scale; returns (exit code, stdout lines, result)."""
    cmd = [run.BINARY, "--workload", workload, "--scale", "tiny",
           "--seed", "7", "--seconds", "60", "--trace", "0"] + list(args)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def field(lines, pattern):
    for line in lines:
        m = re.match(pattern, line)
        if m:
            return m.group(1)
    raise AssertionError("no line matches %r" % pattern)


def digest(lines):
    return field(lines, r"output_digest ([0-9a-f]+)")


class WorldTickTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("world_tick build failed")

    def test_digest_repeats_across_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, out1, res1 = world_tick(w)
                code2, out2, res2 = world_tick(w)
                self.assertEqual((code1, code2), (0, 0))
                self.assertTrue(res1["correct"] and res2["correct"])
                self.assertEqual(res1["failed"], 0)
                self.assertEqual(digest(out1), digest(out2))

    def test_digest_identical_across_pool_sizes(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, out1, _ = world_tick(w, "--threads", "1")
                code4, out4, _ = world_tick(w, "--threads", "4")
                self.assertEqual((code1, code4), (0, 0))
                self.assertIn("threads 1 ", out1[0])
                self.assertIn("threads 4 ", out4[0])
                self.assertEqual(digest(out1), digest(out4))

    def test_failed_check_counts_in_error_rate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, out, res = world_tick(w, "--fail-tick", "2")
                passes = int(field(out, r"workload \S+\s+seed \d+\s+threads \d+\s+passes (\d+)"))
                self.assertEqual(code, 1)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], passes)  # tick 2 of every pass
                self.assertGreater(res["attempted"], res["failed"])
                rate = float(field(out, r"error_rate\s+(\S+)"))
                self.assertAlmostEqual(rate, res["failed"] / res["attempted"], places=5)


if __name__ == "__main__":
    unittest.main()
