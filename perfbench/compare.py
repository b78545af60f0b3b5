"""Collect sets of benchmark runs and compare them against the benchmark's bounds.

Collect one result file per seed, the last stdout line of ``run.py`` at its
default length with ``--trace 0``::

    python3 perfbench/compare.py collect --workload orbit --seeds 1-10 --out perfbench/_work/a

Report each end-to-end metric's median and quartile spread, the spread as a
share of the median, and the bound from ``BENCHMARK.json``; with a second
set, also how far its median moved from the first set's, in the metric's
worse direction::

    python3 perfbench/compare.py report perfbench/_work/a [perfbench/_work/b]

A spread under a third of the bound is ``steady``, under the bound ``ok``,
otherwise ``UNSTEADY``, for every metric, ``setup_s`` included.  A median
worse than the first set's by more than the bound is a ``REGRESSION``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(workload: str, seeds: list[int], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        last = proc.stdout.strip().splitlines()[-1]
        (out / f"{workload}-s{seed}.json").write_text(last + "\n")
        print(f"{workload} seed {seed}: {last[:160]}", flush=True)


def load(directory: Path) -> dict[str, list[dict]]:
    """Result files grouped by workload (the file name's prefix)."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-s*.json")):
        workload = path.name.rsplit("-s", 1)[0]
        runs.setdefault(workload, []).append(json.loads(path.read_text()))
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, quartile distance, and that distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, (q3 - q1) / median if median else float("inf")


def report(first: Path, second: Path | None) -> int:
    specs = {m["name"]: m for m in BENCH["end_to_end"]}
    a_runs = load(first)
    b_runs = load(second) if second else {}
    bad = 0
    header = f"{'workload':9s} {'metric':16s} {'runs':>4s} {'median':>11s} {'iqr/med':>8s} {'bound':>6s}"
    print(header + ("  status     " + f"{'median2':>11s} {'iqr/med2':>8s} {'worse':>7s}" if second else "  status"))
    for workload, runs in a_runs.items():
        if any(not r["correct"] for r in runs):
            print(f"{workload:9s} some runs were not correct")
            bad += 1
        for name, spec in specs.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            median, _, share = spread(values)
            bound = spec["bound"]
            status = "steady" if share < bound / 3 else ("ok" if share <= bound else "UNSTEADY")
            bad += status == "UNSTEADY"
            line = f"{workload:9s} {name:16s} {len(values):4d} {median:11.5g} {share:8.3f} {bound:6.2f}  {status:9s}"
            others = [r["metrics"][name]["value"] for r in b_runs.get(workload, []) if name in r["metrics"]]
            if len(others) >= 2:
                median2, _, share2 = spread(others)
                sign = 1 if spec["better"] == "lower" else -1
                worse = sign * (median2 - median) / median
                verdict = "REGRESSION" if worse > bound else ""
                bad += bool(verdict)
                line += f"  {median2:11.5g} {share2:8.3f} {worse:+7.3f} {verdict}"
            print(line)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collect and compare benchmark runs")
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run one workload over several seeds")
    p_collect.add_argument("--workload", required=True,
                           choices=[w["name"] for w in BENCH["workloads"]])
    p_collect.add_argument("--seeds", required=True, help='e.g. "1-10" or "1,3,5"')
    p_collect.add_argument("--out", required=True, type=Path)
    p_report = sub.add_parser("report", help="medians and spreads against the bounds")
    p_report.add_argument("first", type=Path)
    p_report.add_argument("second", type=Path, nargs="?")
    args = parser.parse_args(argv)
    if args.command == "collect":
        collect(args.workload, _seeds(args.seeds), args.out)
        return 0
    return report(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
