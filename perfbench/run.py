#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload epoch_swaps --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends half the budget untraced and half with every layer's
entry points wrapped, prints the per-layer metrics, and writes the kept
spans to ``.perfbench/trace-<workload>-seed<seed>.json`` (Chrome/Perfetto
trace format).  ``--out FILE`` also writes the whole result record, which
``perfbench/steadiness.py`` summarises over many runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
correctness checks fail prints ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("epoch_swaps", "epoch_boundary", "sharded", "serving")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result record here")
    parser.add_argument(
        "--trace-dir", type=Path, default=Path(".perfbench"),
        help="where the traced run writes its spans (default: .perfbench)",
    )
    return parser.parse_args(argv)


def execute(workload_name: str, seed: int, seconds: float, trace: bool,
            trace_dir: Path, tiny: bool = False, min_samples: int | None = None) -> dict:
    """Run one workload; returns the full result record."""
    from repro.amm.backend import active_backend

    from perfbench import common, report
    from perfbench.tracer import write_chrome_trace
    from perfbench.workloads import make_workloads

    workload = make_workloads(tiny=tiny)[workload_name]
    probe_start = common.host_probe()
    started = time.perf_counter()
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        ref, untraced, traced, totals, spans, worker_spans = report.run_traced(
            workload, seed, seconds, trace_dir, min_samples
        )
        passes = untraced + traced
        extra = workload.layer_extra(ref, traced)
        metrics = report.layer_metrics(totals, traced, untraced, extra)
        units = report.PER_LAYER
        trace_path = trace_dir / f"trace-{workload_name}-seed{seed}.json"
        write_chrome_trace(trace_path, spans, worker_spans)
        record["trace_file"] = str(trace_path)
        record["trace_overhead_s"] = totals.get("overhead_s", 0.0)
    else:
        ref, passes = report.run_untraced(workload, seed, seconds, min_samples)
        metrics = report.end_to_end_metrics(passes)
        units = report.END_TO_END
    problems = list(ref["problems"]) + [p for one in passes for p in one.problems]
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct digests")
    record.update(
        backend=active_backend(),
        elapsed_s=time.perf_counter() - started,
        host_probe_ms={"start": probe_start, "end": common.host_probe()},
        passes=len(passes),
        samples={
            "passes": len(passes),
            "latency": sum(len(p.latencies_ms) for p in passes),
        },
        digest=digests[0] if digests else "",
        problems=problems,
        result={
            "correct": not problems,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.errors for p in passes),
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        },
    )
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"backend={record['backend']} passes={record['passes']} "
        f"latency samples={record['samples']['latency']} elapsed={record['elapsed_s']:.1f}s"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    probe = record["host_probe_ms"]
    print(f"host probe: {probe['start']:.2f} ms at start, {probe['end']:.2f} ms at end")
    print(f"digest: {record['digest']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    if "trace_file" in record:
        print(f"spans written to {record['trace_file']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the benchmark as a package: drop this script's own directory,
    # whose module names (report, tracer, ...) must not shadow others.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_dir)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    print_record(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
