"""Measuring a workload and turning its passes into named metrics.

:func:`run_untraced` and :func:`run_traced` drive passes of a workload for
the run's time budget; :func:`end_to_end_metrics` and
:func:`layer_metrics` name and compute what ``BENCHMARK.json`` lists.
``END_TO_END`` and ``PER_LAYER`` are the units of every metric, in the
order the benchmark prints them.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from perfbench.common import percentile, self_peak_rss_mb
from perfbench.tracer import LAYERS, PHASE_SPANS, SPAN_LAYER, Tracer, merge_totals

END_TO_END = {
    "work_per_s": "op/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "accepted_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workload.gen_ms": "ms/epoch",
    "workload.txs": "tx/epoch",
    **{f"{span}.ms": "ms/epoch" for span in PHASE_SPANS.values()},
    "phase.remainder.ms": "ms/epoch",
    "epoch.wall_ms": "ms/epoch",
    "executor.batch_calls": "count/epoch",
    "executor.batch_txs": "tx/epoch",
    "executor.batch_ms": "ms/epoch",
    "executor.single_calls": "count/epoch",
    "executor.single_ms": "ms/epoch",
    "executor.accept_ratio": "ratio",
    "amm.swap_steps": "count/epoch",
    "amm.position_ops_ms": "ms/epoch",
    "amm.snapshot_quote_calls": "count/epoch",
    "amm.snapshot_quote_share": "ratio",
    "amm.freeze_share": "ratio",
    "sidechain.seal_ms": "ms/epoch",
    "sidechain.merkle_leaves": "count/epoch",
    "sidechain.bytes_appended": "B/epoch",
    "sidechain.bytes_pruned": "B/epoch",
    "sidechain.live_bytes_end": "B",
    "summary.ms": "ms/epoch",
    "summary.payout_entries": "count/epoch",
    "sync.sign_ms": "ms/epoch",
    "sync.payload_bytes": "B/epoch",
    "mainchain.produce_ms": "ms/epoch",
    "mainchain.blocks": "count/epoch",
    "mainchain.sync_gas": "gas/epoch",
    "mainchain.growth_bytes": "B/epoch",
    "crypto.keccak_calls": "count/epoch",
    "crypto.keccak_bytes": "B/epoch",
    "crypto.pairings": "count/epoch",
    "crypto.dkg_ms": "ms/epoch",
    "crypto.election_ms": "ms/epoch",
    "metrics.record_calls": "count/epoch",
    "metrics.record_ms": "ms/epoch",
    "sharding.parallel_eff": "ratio",
    "sharding.coord_cpu_share": "ratio",
    "sharding.coord_wait_share": "ratio",
    "sharding.pipe_msgs": "count/epoch",
    "sharding.pipe_bytes": "B/epoch",
    "sharding.transfers_prepared": "count/epoch",
    "sharding.transfer_commit_ratio": "ratio",
    "gateway.tick_calls": "count/epoch",
    "gateway.tick_share": "ratio",
    "gateway.quotes_per_tick": "count",
    "gateway.admission_reject_ratio": "ratio",
    "fleet.share": "ratio",
    **{f"layer.{layer}.calls": "count/epoch" for layer in LAYERS},
    **{f"layer.{layer}.self_share": "ratio" for layer in LAYERS},
    "bench.trace_overhead": "ratio",
}


def _passes(workload, ref: dict, seconds: float, min_samples: int, tracer=None) -> list:
    """Run passes until ``seconds`` are spent and enough samples exist.

    At least three passes run, so the set-up median has a middle; a hard
    cap of ``seconds / 2 + 10`` wall seconds past the deadline bounds a
    slow host.  Peak memory is read after the first pass: later passes
    build the same systems again, and only the benchmark's own sample
    lists keep growing.
    """
    start = time.perf_counter()
    deadline = start + seconds
    cap = deadline + seconds / 2 + 10
    passes = []
    while True:
        passes.append(workload.run_pass(ref, tracer))
        if len(passes) == 1:
            passes[0].rss_mb = self_peak_rss_mb()
        now = time.perf_counter()
        samples = sum(len(p.latencies_ms) for p in passes)
        if now >= cap:
            break
        if now >= deadline and len(passes) >= 3 and samples >= min_samples:
            break
    return passes


def run_untraced(workload, seed: int, seconds: float, min_samples: int | None = None):
    ref = workload.prepare(seed)
    samples = workload.min_samples if min_samples is None else min_samples
    return ref, _passes(workload, ref, seconds, samples)


def run_traced(
    workload, seed: int, seconds: float, trace_dir: Path, min_samples: int | None = None
):
    """Half the budget untraced, half traced; returns the traced totals too."""
    ref = workload.prepare(seed)
    samples = workload.min_samples if min_samples is None else min_samples
    untraced = _passes(workload, ref, seconds / 2, samples)
    tracer = Tracer(Path(trace_dir) / "workers")
    tracer.install()
    try:
        traced = _passes(workload, ref, seconds / 2, samples, tracer)
    finally:
        tracer.uninstall()
    totals = tracer.rec.totals()
    worker_totals, worker_spans = tracer.merge_worker_dumps()
    merge_totals(totals, worker_totals)
    return ref, untraced, traced, totals, tracer.rec.spans, worker_spans


def _pooled_rate(passes: list) -> float:
    """Work per wall second over all passes (a slow stretch counts in full)."""
    return sum(p.work for p in passes) / sum(p.wall_s for p in passes)


def end_to_end_metrics(passes: list) -> dict:
    latencies = [ms for p in passes for ms in p.latencies_ms]
    return {
        "work_per_s": _pooled_rate(passes),
        "latency_ms.p50": percentile(latencies, 50),
        "latency_ms.p90": percentile(latencies, 90),
        "accepted_share": sum(p.accepted for p in passes) / sum(p.attempted for p in passes),
        "setup_s": statistics.median([p.setup_s for p in passes]),
        "peak_rss_mb": passes[0].rss_mb + passes[0].worker_rss_mb,
    }


def _live_bytes_end(totals: dict, traced: list) -> float:
    """Live sidechain bytes at the end of the traced window, mean per pass.

    In-process workloads record it per pass; shard workers add theirs to
    the merged totals, one sum per pass.
    """
    own = [p.extra["live_bytes_end"] for p in traced if "live_bytes_end" in p.extra]
    if own:
        return sum(own) / len(own)
    return totals.get("live_bytes", 0) / len(traced)


def layer_metrics(totals: dict, traced: list, untraced: list, extra: dict) -> dict:
    """Per-layer metrics of a traced run (see README for definitions)."""
    calls = totals.get("calls", {})
    self_s = totals.get("self_s", {})
    incl_s = totals.get("incl_s", {})
    counts = totals.get("counts", {})
    epochs = sum(p.epochs for p in traced)
    window = sum(p.extra["window_s"] for p in traced)
    capacity = window * extra["processes"]

    def per(value: float) -> float:
        return value / epochs

    def ms(span: str) -> float:
        return 1e3 * self_s.get(span, 0.0) / epochs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Phases do not nest, so a phase span's duration is its self time
    # within the phase layer; with the remainder they add up to the wall.
    phases = {
        f"{span}.ms": 1e3 * incl_s.get(span, 0.0) / epochs for span in PHASE_SPANS.values()
    }
    wall_ms = 1e3 * incl_s.get(extra["epoch_span"], 0.0) / epochs
    serving_s = extra.get("serving_s", 0.0)
    fleet_s = serving_s - extra.get("serving_epochs_s", 0.0) - incl_s.get("gateway.tick", 0.0)
    out = {
        "workload.gen_ms": extra.get("gen_ms", ms("workload.generate_round")),
        "workload.txs": extra.get("gen_txs", per(counts.get("workload.txs", 0))),
        **phases,
        "phase.remainder.ms": wall_ms - sum(phases.values()),
        "epoch.wall_ms": wall_ms,
        "executor.batch_calls": per(calls.get("executor.process_round", 0)),
        "executor.batch_txs": per(counts.get("executor.batch_txs", 0)),
        "executor.batch_ms": ms("executor.process_round"),
        "executor.single_calls": per(calls.get("executor.process", 0)),
        "executor.single_ms": ms("executor.process"),
        "executor.accept_ratio": ratio(
            counts.get("executor.accepted", 0), counts.get("executor.attempted", 0)
        ),
        "amm.swap_steps": per(counts.get("amm.swap_steps", 0)),
        "amm.position_ops_ms": ms("amm.position_op"),
        "amm.snapshot_quote_calls": per(calls.get("amm.snapshot_quote", 0)),
        "amm.snapshot_quote_share": self_s.get("amm.snapshot_quote", 0.0) / capacity,
        "amm.freeze_share": self_s.get("amm.freeze", 0.0) / capacity,
        "sidechain.seal_ms": ms("sidechain.seal"),
        "sidechain.merkle_leaves": per(counts.get("sidechain.merkle_leaves", 0)),
        "sidechain.bytes_appended": per(counts.get("sidechain.bytes_appended", 0)),
        "sidechain.bytes_pruned": per(counts.get("sidechain.bytes_pruned", 0)),
        "sidechain.live_bytes_end": _live_bytes_end(totals, traced),
        "summary.ms": ms("summary.summarize"),
        "summary.payout_entries": per(counts.get("summary.payout_entries", 0)),
        "sync.sign_ms": ms("sync.sign"),
        "sync.payload_bytes": per(counts.get("sync.payload_bytes", 0)),
        "mainchain.produce_ms": ms("mainchain.produce"),
        "mainchain.blocks": per(counts.get("mainchain.blocks", 0)),
        "mainchain.sync_gas": per(counts.get("mainchain.sync_gas", 0)),
        "mainchain.growth_bytes": per(counts.get("mainchain.growth_bytes", 0)),
        "crypto.keccak_calls": per(calls.get("crypto.keccak", 0)),
        "crypto.keccak_bytes": per(counts.get("crypto.keccak_bytes", 0)),
        "crypto.pairings": per(calls.get("crypto.pairing", 0)),
        "crypto.dkg_ms": ms("crypto.dkg"),
        "crypto.election_ms": ms("crypto.election"),
        "metrics.record_calls": per(calls.get("metrics.record", 0)),
        "metrics.record_ms": ms("metrics.record"),
        "sharding.parallel_eff": extra.get("parallel_eff", 0.0),
        "sharding.coord_cpu_share": extra.get("coord_cpu_share", 0.0),
        "sharding.coord_wait_share": self_s.get("sharding.receive", 0.0) / window,
        "sharding.pipe_msgs": per(counts.get("sharding.pipe_msgs", 0)),
        "sharding.pipe_bytes": per(counts.get("sharding.pipe_bytes", 0)),
        "sharding.transfers_prepared": per(extra.get("transfers_prepared", 0)),
        "sharding.transfer_commit_ratio": extra.get("transfer_commit_ratio", 0.0),
        "gateway.tick_calls": per(calls.get("gateway.tick", 0)),
        "gateway.tick_share": self_s.get("gateway.tick", 0.0) / window,
        "gateway.quotes_per_tick": ratio(
            counts.get("gateway.quotes", 0), calls.get("gateway.tick", 0)
        ),
        "gateway.admission_reject_ratio": extra.get("admission_reject_ratio", 0.0),
        "fleet.share": fleet_s / window if serving_s else 0.0,
    }
    for layer in LAYERS:
        spans = [name for name, owner in SPAN_LAYER.items() if owner == layer]
        out[f"layer.{layer}.calls"] = per(sum(calls.get(name, 0) for name in spans))
    for layer in LAYERS:
        spans = [name for name, owner in SPAN_LAYER.items() if owner == layer]
        out[f"layer.{layer}.self_share"] = (
            sum(self_s.get(name, 0.0) for name in spans) / capacity
        )
    out["bench.trace_overhead"] = _pooled_rate(traced) / _pooled_rate(untraced)
    return out
