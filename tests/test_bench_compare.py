#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py over small fixture records.

Usage: test_bench_compare.py [path/to/bench_compare.py]
Each case writes a baseline and a current record into a temporary
directory, runs the comparer on them and checks its exit code and its
::warning:: / ::error:: annotations.
"""
import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

COMPARER = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent / "tools" /
                "bench_compare.py")

BASELINE = {
    "bench": "fixture", "scale": 1.0, "threads": 4, "wall_seconds": 1.0,
    "metrics": {
        "sweep_s": {"value": 2.0, "unit": "s", "compare": True},
        "curve.sats=4.coverage": {"value": 0.25, "unit": "ratio",
                                  "exact": True},
        "checksum": {"value": "0123456789abcdef", "unit": "fnv64",
                     "exact": True},
        "speedup": {"value": 5.0, "unit": "x",
                    "floor": {"min": 3.0, "hard": False}},
        "prune_ratio": {"value": 3.8, "unit": "ratio",
                        "floor": {"min": 3.0, "hard": True}},
        "sats": {"value": 66, "unit": "count"},
    },
    "gates": {"serial_eq_parallel": True},
}


def google_benchmark(real_time):
    return {"context": {}, "benchmarks": [
        {"name": "BM_Kernel", "run_type": "iteration", "real_time": t}
        for t in real_time]}


class BenchCompareTest(unittest.TestCase):
    def run_compare(self, current, baseline=None, name="BENCH_fixture.json"):
        """Returns (exit code, warning count, error count, stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = Path(tmp) / "baseline"
            base_dir.mkdir()
            (base_dir / name).write_text(json.dumps(baseline or BASELINE))
            cur = Path(tmp) / name
            cur.write_text(json.dumps(current))
            r = subprocess.run(
                [sys.executable, str(COMPARER), "--baseline-dir",
                 str(base_dir), str(cur)],
                capture_output=True, text=True, check=False)
        return (r.returncode, r.stdout.count("::warning::"),
                r.stdout.count("::error::"), r.stdout)

    def mutated(self, **changes):
        """BASELINE with metrics[name] fields replaced, plus top-level keys."""
        rec = copy.deepcopy(BASELINE)
        for key, value in changes.items():
            if key in rec["metrics"]:
                rec["metrics"][key].update(value)
            else:
                rec[key] = value
        return rec

    def test_clean_pass(self):
        self.assertEqual(self.run_compare(BASELINE)[:3], (0, 0, 0))

    def test_false_gate_fails(self):
        rec = self.mutated(gates={"serial_eq_parallel": False})
        code, _, errors, out = self.run_compare(rec)
        self.assertEqual((code, errors), (1, 1), out)

    def test_hard_floor_miss_fails(self):
        code, _, errors, out = self.run_compare(
            self.mutated(prune_ratio={"value": 2.9}))
        self.assertEqual((code, errors), (1, 1), out)

    def test_warn_floor_miss_warns(self):
        self.assertEqual(
            self.run_compare(self.mutated(speedup={"value": 2.0}))[:3],
            (0, 1, 0))

    def test_compare_regression_warns(self):
        self.assertEqual(
            self.run_compare(self.mutated(sweep_s={"value": 4.0}))[:3],
            (0, 1, 0))

    def test_exact_drift_warns_at_equal_scale(self):
        rec = self.mutated(**{"curve.sats=4.coverage": {"value": 0.250001},
                              "checksum": {"value": "fedcba9876543210"}})
        self.assertEqual(self.run_compare(rec)[:3], (0, 2, 0))
        rec = self.mutated(**{"curve.sats=4.coverage": {"value": 0.25 + 1e-12}})
        self.assertEqual(self.run_compare(rec)[:3], (0, 0, 0))

    def test_scale_mismatch_skips_compare_and_exact(self):
        rec = self.mutated(scale=0.2, sweep_s={"value": 40.0},
                           **{"curve.sats=4.coverage": {"value": 0.5}})
        self.assertEqual(self.run_compare(rec)[:3], (0, 0, 0))
        # Floors still apply at any scale.
        rec["metrics"]["speedup"]["value"] = 1.0
        self.assertEqual(self.run_compare(rec)[:3], (0, 1, 0))

    def test_absent_scale_reads_as_one(self):
        rec = self.mutated(sweep_s={"value": 4.0})
        del rec["scale"]
        self.assertEqual(self.run_compare(rec)[:3], (0, 1, 0))

    def test_missing_hard_check_fails(self):
        rec = copy.deepcopy(BASELINE)
        del rec["metrics"]["prune_ratio"]
        code, _, errors, out = self.run_compare(rec)
        self.assertEqual((code, errors), (1, 1), out)

    def test_missing_warn_check_and_gate_warn(self):
        rec = copy.deepcopy(BASELINE)
        del rec["metrics"]["sweep_s"]
        del rec["metrics"]["sats"]  # unchecked: not reported
        rec["gates"] = {}
        self.assertEqual(self.run_compare(rec)[:3], (0, 2, 0))

    def test_google_benchmark_pair(self):
        name = "BENCH_micro_kernels.json"
        base = google_benchmark([100.0, 90.0])
        self.assertEqual(
            self.run_compare(google_benchmark([95.0]), base, name)[:3],
            (0, 0, 0))
        self.assertEqual(
            self.run_compare(google_benchmark([200.0]), base, name)[:3],
            (0, 1, 0))
        self.assertEqual(
            self.run_compare({"benchmarks": []}, base, name)[:3], (0, 1, 0))


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
