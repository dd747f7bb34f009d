#!/usr/bin/env python3
"""Steadiness report over many runs of the same code.

For every workload and metric it prints the median, the quartiles and the
spread (IQR / median) of the runs' values, and flags a spread above the
metric's bound in ``BENCHMARK.json`` ("over") or above a third of it
("wide").  ``setup_s`` is flagged for information only: its bound limits a
change of the median, not the spread.  Given ``--baseline`` records it also
compares medians and flags a metric that got worse by more than its bound.

Usage (from the repository root)::

    # run ten seeds of a workload for BENCHMARK.json's run_seconds each,
    # one record file per run, then report
    python3 perfbench/steadiness.py --run --workload serving --seeds 1-10
    # report over records written by run.py --out
    python3 perfbench/steadiness.py .perfbench/runs/*.json
    python3 perfbench/steadiness.py new/*.json --baseline old/*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seeds(
    workload: str, seeds: list[int], seconds: float, trace: int, out_dir: Path
) -> list[Path]:
    """Run the benchmark once per seed, one after the other."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in seeds:
        path = out_dir / f"{workload}-t{trace}-seed{seed}.json"
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(path),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        last = completed.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(
            f"{workload} seed {seed}: exit {completed.returncode} {last[0][:100]}",
            file=sys.stderr,
        )
        if completed.returncode != 0:
            print(completed.stderr[-2000:], file=sys.stderr)
        paths.append(path)
    return paths


def load(paths: list[Path]) -> dict:
    """``{(workload, trace): {metric: [values]}}`` from record files."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        if not path.exists():
            continue
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        for name, metric in record["result"]["metrics"].items():
            groups[key][name].append(metric["value"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(groups: dict, bench: dict, baseline: dict | None) -> int:
    specs = {m["name"]: m for m in bench.get("end_to_end", [])}
    flagged = 0
    for (workload, trace), metrics in sorted(groups.items()):
        runs = max(len(v) for v in metrics.values())
        print(f"\n{workload} (trace={trace}, {runs} runs)")
        header = f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}"
        print(header + ("  vs baseline" if baseline else ""))
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            spec = specs.get(name) if not trace else None
            flag = ""
            if spec is not None:
                bound = spec["bound"]
                if spread > bound and name != "setup_s":
                    flag, flagged = "  OVER bound", flagged + 1
                elif spread > bound / 3:
                    flag = "  wide (> bound/3)"
            line = f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}{flag}"
            old = (baseline or {}).get((workload, trace), {}).get(name)
            if old:
                old_med = statistics.median(old)
                change = (med - old_med) / old_med if old_med else float("nan")
                line += f"  {change:+.4f}"
                if spec is not None:
                    worse = -change if spec["better"] == "higher" else change
                    if worse > spec["bound"]:
                        line += " WORSE than bound"
                        flagged += 1
            print(line)
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Steadiness report over benchmark runs.")
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--baseline", nargs="*", type=Path, default=None)
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--run", action="store_true", help="run the seeds first")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of --bench")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path(".perfbench/runs"))
    args = parser.parse_args(argv)
    records = list(args.records)
    bench = json.loads(args.bench.read_text()) if args.bench.exists() else {}
    if args.run:
        if not args.workload:
            parser.error("--run needs --workload")
        seconds = args.seconds or bench.get("run_seconds")
        if not seconds:
            parser.error("--run needs --seconds (no run_seconds in --bench)")
        records += run_seeds(
            args.workload, parse_seeds(args.seeds), seconds, args.trace, args.out_dir
        )
    baseline = load(args.baseline) if args.baseline else None
    flagged = report(load(records), bench, baseline)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
