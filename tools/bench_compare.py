#!/usr/bin/env python3
"""Benchmark regression check over the shared bench record.

Compares freshly produced BENCH_*.json files against the committed
baselines in bench/baseline/, matched by file name. Every custom bench
writes one record shape (bench/bench_record.hpp, README "Bench records"):

    {"bench", "scale", "threads", "wall_seconds",
     "metrics": {name: {"value", "unit"[, check]}},
     "gates": {name: bool}}

Each bench declares its own checks, so this script knows no bench by name:

* a false gate fails (the bench also exits non-zero on it);
* "floor": {"min", "hard"} -- a value under min warns, or fails if hard;
* "compare": true -- warn when the value exceeds the baseline's by more
  than --threshold; only at equal scale (an absent scale reads as 1.0);
* "exact": true -- warn when the value differs from the baseline's by
  more than 1e-9 (text must be equal); only at equal scale;
* a gate or checked metric in the baseline that this run lacks warns, or
  fails when it is a hard floor.

bench_micro_kernels writes google-benchmark JSON ("benchmarks": [...]),
a format this project does not own: its per-benchmark real_time is
compared by name, warn-only.

CI hardware varies run to run, so wall times are a smoke alarm: a miss
prints a GitHub ::warning:: annotation. Only failures (::error::) make
the script exit 1. The committed baselines document the numbers a known
machine produced; refresh them whenever an intentional perf change lands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Warn when current time exceeds baseline by more than this factor.
DEFAULT_THRESHOLD = 1.5
# An exact metric may differ from its baseline by at most this much.
EXACT_TOLERANCE = 1e-9

warnings: list[str] = []
failures: list[str] = []


def warn(msg: str) -> None:
    print(f"::warning::{msg}")
    warnings.append(msg)


def fail(msg: str) -> None:
    print(f"::error::{msg}")
    failures.append(msg)


def load(path: Path):
    try:
        with path.open() as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        warn(f"bench_compare: cannot read {path}: {e}")
        return None


def google_benchmark_times(doc) -> dict[str, float]:
    """name -> real_time (ns) for plain (non-aggregate) entries."""
    times: dict[str, float] = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        t = b.get("real_time")
        if name is None or t is None:
            continue
        # Repetitions repeat names; keep the minimum (robust on noisy CI).
        times[name] = min(t, times.get(name, float("inf")))
    return times


def compare_google_benchmark(current, baseline, threshold: float) -> None:
    cur = google_benchmark_times(current)
    for name, base_t in sorted(google_benchmark_times(baseline).items()):
        cur_t = cur.get(name)
        if cur_t is None:
            warn(f"benchmark {name} present in baseline but not in this run")
            continue
        ratio = cur_t / base_t if base_t > 0 else float("inf")
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  {name}: {cur_t:.0f} vs baseline {base_t:.0f} "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"{name}: {cur_t:.0f} ns vs baseline {base_t:.0f} ns "
                 f"({ratio:.2f}x > {threshold:.2f}x)")


def is_checked(entry) -> bool:
    return any(k in entry for k in ("compare", "exact", "floor"))


def check_floor(bench: str, name: str, entry) -> None:
    value, floor = entry.get("value"), entry["floor"]
    hard = floor.get("hard", False)
    kind = "hard floor" if hard else "floor"
    print(f"  {name}: {value} ({kind} {floor['min']})")
    if not isinstance(value, (int, float)) or value < floor["min"]:
        (fail if hard else warn)(
            f"{bench} {name}: {value} below the {floor['min']} {kind}")


def check_against_baseline(bench: str, name: str, entry, base_value,
                           threshold: float) -> bool:
    """Runs a compare or exact check; True if it was an exact one."""
    value, unit = entry.get("value"), entry.get("unit", "")
    if entry.get("compare"):
        if not isinstance(value, (int, float)) or \
                not isinstance(base_value, (int, float)) or base_value <= 0:
            return False
        ratio = value / base_value
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  {name}: {value}{unit} vs baseline {base_value}{unit} "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"{bench} {name}: {value}{unit} vs baseline "
                 f"{base_value}{unit} ({ratio:.2f}x > {threshold:.2f}x)")
    elif entry.get("exact"):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (value, base_value))
        drifted = abs(value - base_value) > EXACT_TOLERANCE if numeric \
            else value != base_value
        if drifted:
            warn(f"{bench} {name}: {value} vs baseline {base_value} -- the "
                 f"value is deterministic, so this is a semantic change, "
                 f"not noise")
        return True
    return False


def compare_record(current, baseline, threshold: float) -> None:
    bench = current.get("bench", "?")
    scale, base_scale = current.get("scale", 1.0), baseline.get("scale", 1.0)
    same_scale = scale == base_scale
    if not same_scale:
        print(f"  (scale {scale} vs baseline {base_scale}: skipping compare "
              f"and exact checks)")
    gates = current.get("gates", {})
    for name, ok in gates.items():
        if ok is not True:
            fail(f"{bench} gate {name} failed")
    if gates:
        print(f"  gates: {sum(ok is True for ok in gates.values())}/"
              f"{len(gates)} hold")
    metrics = current.get("metrics", {})
    base_metrics = baseline.get("metrics", {})
    for name in baseline.get("gates", {}):
        if name not in gates:
            warn(f"{bench} gate {name} is in the baseline but not this run")
    for name, entry in base_metrics.items():
        if name not in metrics and is_checked(entry):
            hard = entry.get("floor", {}).get("hard", False)
            (fail if hard else warn)(
                f"{bench} {name}: checked in the baseline but missing from "
                f"this run")
    exact = 0
    for name, entry in metrics.items():
        if "floor" in entry:
            check_floor(bench, name, entry)
        elif same_scale and name in base_metrics:
            exact += check_against_baseline(
                bench, name, entry, base_metrics[name].get("value"), threshold)
    if exact:
        print(f"  exact: {exact} deterministic value(s) checked")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", type=Path,
                    help="freshly produced BENCH_*.json files")
    ap.add_argument("--baseline-dir", type=Path,
                    default=Path("bench/baseline"),
                    help="directory of committed baselines, matched by "
                         "file name (default: bench/baseline)")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="warn when current/baseline exceeds this factor")
    args = ap.parse_args()

    for path in args.files:
        current = load(path)
        if current is None:
            continue
        base_path = args.baseline_dir / path.name
        if not base_path.exists():
            warn(f"no committed baseline for {path.name} "
                 f"(expected {base_path}); skipping compare")
            continue
        baseline = load(base_path)
        if baseline is None:
            continue
        print(f"== {path.name} vs {base_path}")
        if "benchmarks" in current:
            compare_google_benchmark(current, baseline, args.threshold)
        else:
            compare_record(current, baseline, args.threshold)

    print(f"bench_compare: {len(warnings)} warning(s) (informational only), "
          f"{len(failures)} hard failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
