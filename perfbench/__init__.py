"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run it as ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and the traced pass.
"""
