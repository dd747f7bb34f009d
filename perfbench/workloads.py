"""The four workloads and the loop that measures them.

Every workload repeats a *pass* -- a fixed, seed-determined unit of work on
a freshly built system -- until the run's time is up.  A pass reports its
set-up time, latency samples, work done, operations accepted and attempted,
a digest of its outputs and any broken invariant.  Repeating identical
passes lets every pass be checked against the same reference digest and
lets the run report medians over passes.

* ``epoch_swaps`` / ``epoch_boundary`` -- one ``AmmBoostSystem``; traffic is
  recorded by an untimed in-loop reference run and replayed
  (:mod:`perfbench.replay`).
* ``sharded`` -- the 4-shard deployment with forked workers; traffic is
  generated inside the workers.
* ``serving`` -- a closed-loop ``ServingRun``; an untimed reference run
  gives the request-log digest every pass must reproduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.phases import default_epoch_phases
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.transactions import reset_tx_counter
from repro.serving import GatewayConfig, ServingConfig, ServingRun
from repro.sharding import ShardedConfig, ShardedSystem

from perfbench.common import children_cpu_s, children_peak_rss_mb, usable_cpus
from perfbench.replay import (
    ReplayGenerator,
    TrafficRecorder,
    epoch_checks,
    system_digest,
)

#: Untimed epochs at the start of every epoch-workload pass (part of set-up).
WARMUP_EPOCHS = 2


@dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_s: float
    #: Latency samples: epoch walls, or quote send-to-reply times (ms).
    latencies_ms: list[float]
    #: Transactions processed, or quotes served, in the measured part.
    work: int
    #: Wall seconds of the measured part.
    wall_s: float
    accepted: int
    attempted: int
    #: Operations that ended in an error (not a protocol refusal).
    errors: int
    digest: str
    problems: list[str]
    #: Epochs the traced window covered (per-layer normalisation).
    epochs: int = 0
    #: Workload-specific figures the per-layer metrics need.
    extra: dict = field(default_factory=dict)
    #: Peak resident memory of forked workers during the pass (MB).
    worker_rss_mb: float = 0.0
    #: This process's peak resident memory after the pass (MB; first pass).
    rss_mb: float = 0.0


class EpochWorkload:
    """One ``AmmBoostSystem`` driven epoch by epoch with replayed traffic."""

    min_samples = 100

    def __init__(self, name: str, config: dict, timed_epochs: int) -> None:
        self.name = name
        self.config = config
        self.timed_epochs = timed_epochs

    @property
    def total_epochs(self) -> int:
        return WARMUP_EPOCHS + self.timed_epochs

    def _build(self, seed: int, phases=None) -> AmmBoostSystem:
        reset_tx_counter(1)
        return AmmBoostSystem(AmmBoostConfig(seed=seed, **self.config), epoch_phases=phases)

    def prepare(self, seed: int) -> dict:
        """The untimed in-loop run: records traffic, gives the digest."""
        system = self._build(seed)
        recorder = TrafficRecorder(system.generator)
        system.generator = recorder
        system.setup()
        system._traffic_start = system.clock.now
        for epoch in range(self.total_epochs):
            system._run_epoch(epoch, inject=True)
        return {
            "seed": seed,
            "rounds": recorder.rounds,
            "digest": system_digest(system),
            "problems": epoch_checks(system, recorder.txs + 1, self.total_epochs),
            "gen_s": recorder.gen_seconds,
            "gen_txs": recorder.txs,
        }

    def run_pass(self, ref: dict, tracer=None) -> PassResult:
        replay = ReplayGenerator(ref["rounds"])  # copies made before timing
        start = time.perf_counter()
        phases = tracer.wrap_phases(default_epoch_phases()) if tracer else None
        system = self._build(ref["seed"], phases)
        system.generator = replay
        system.setup()
        system._traffic_start = system.clock.now
        for epoch in range(WARMUP_EPOCHS):
            system._run_epoch(epoch, inject=True)
        setup_s = time.perf_counter() - start

        metrics = system.metrics
        processed0, rejected0 = metrics.processed_txs, metrics.rejected_txs
        walls = []
        if tracer is None:
            for epoch in range(WARMUP_EPOCHS, self.total_epochs):
                begin = time.perf_counter()
                system._run_epoch(epoch, inject=True)
                walls.append(time.perf_counter() - begin)
        else:
            tracer.rec.live_bytes.clear()
            tracer.rec.active = True
            try:
                for epoch in range(WARMUP_EPOCHS, self.total_epochs):
                    walls.append(tracer.run_epoch(system._run_epoch, epoch, True))
            finally:
                tracer.rec.active = False
        processed = metrics.processed_txs - processed0
        rejected = metrics.rejected_txs - rejected0

        problems = epoch_checks(system, replay.txs + 1, self.total_epochs)
        digest = system_digest(system)
        if digest != ref["digest"]:
            problems.append("replayed digest differs from the in-loop digest")
        extra = {"window_s": sum(walls)}
        if tracer is not None:
            extra["live_bytes_end"] = sum(tracer.rec.live_bytes.values())
        return PassResult(
            setup_s=setup_s,
            latencies_ms=[w * 1e3 for w in walls],
            work=processed,
            wall_s=sum(walls),
            accepted=processed,
            attempted=processed + rejected,
            errors=0,
            digest=digest,
            problems=problems,
            epochs=len(walls),
            extra=extra,
        )

    def layer_extra(self, ref: dict, passes: list[PassResult]) -> dict:
        epochs = self.total_epochs
        return {
            "gen_ms": 1e3 * ref["gen_s"] / epochs,
            "gen_txs": ref["gen_txs"] / epochs,
            "epoch_span": "epoch",
            "processes": 1,
        }


class ShardedWorkload:
    """The 4-shard deployment: lock-step epochs over forked workers."""

    name = "sharded"
    min_samples = 100

    def __init__(self, timed_epochs: int = 30, daily_volume_per_shard: int = 500_000) -> None:
        self.timed_epochs = timed_epochs
        self.daily_volume_per_shard = daily_volume_per_shard
        self.jobs = min(4, usable_cpus())

    @property
    def window(self) -> tuple[int, int]:
        return WARMUP_EPOCHS, WARMUP_EPOCHS + self.timed_epochs

    def _config(self, seed: int) -> ShardedConfig:
        shards = 4
        base = AmmBoostConfig(
            committee_size=8,
            miner_population=16,
            num_users=20,
            daily_volume=self.daily_volume_per_shard * shards,
            rounds_per_epoch=6,
            seed=seed,
        )
        return ShardedConfig(
            num_shards=shards,
            num_pools=2 * shards,
            base=base,
            cross_shard_ratio=0.05,
            jobs=self.jobs,
        )

    def prepare(self, seed: int) -> dict:
        # No replay: generation runs inside the shard workers.  Every pass
        # of a run must reach the digest of the run's first pass.
        return {"seed": seed, "digest": None, "problems": []}

    def run_pass(self, ref: dict, tracer=None) -> PassResult:
        lo, hi = self.window
        if tracer is not None:
            tracer.shard_window = (lo, hi)  # inherited by the forked workers
        start = time.perf_counter()
        system = ShardedSystem(self._config(ref["seed"]))
        scheduler = system.scheduler  # forks the workers

        ends: list[float] = []
        marks: dict[str, tuple] = {}
        prepared = [0]
        check_conservation = system._check_conservation

        def timed_check(records, baseline, epoch):
            result = check_conservation(records, baseline, epoch)
            now = time.perf_counter()
            ends.append(now)
            if lo <= epoch < hi:
                prepared[0] += sum(len(r.prepares) for r in records.values())
            if epoch in (lo - 1, hi - 1):
                key = "start" if epoch == lo - 1 else "end"
                marks[key] = (
                    now,
                    sum(r.processed_txs for r in records.values()),
                    sum(r.rejected_txs for r in records.values()),
                    time.process_time(),
                    children_cpu_s() if tracer is not None else 0.0,
                )
                if tracer is not None:
                    tracer.rec.active = key == "start"
            if tracer is not None and lo <= epoch < hi:
                tracer.rec.add_root("epoch", ends[-2], now - ends[-2])
                tracer.rec.epoch = epoch + 1
            return result

        system._check_conservation = timed_check
        worker_rss = [0.0]
        finish = scheduler.finish

        def finish_with_rss():
            worker_rss[0] = children_peak_rss_mb()
            return finish()

        scheduler.finish = finish_with_rss
        try:
            report = system.run(num_epochs=hi)
        finally:
            if tracer is not None:
                tracer.rec.active = False

        walls = [b - a for a, b in zip(ends[lo - 1 : hi - 1], ends[lo:hi])]
        (t0, p0, r0, c0, w0), (t1, p1, r1, c1, w1) = marks["start"], marks["end"]
        processed, rejected = p1 - p0, r1 - r0
        problems = []
        if not report.conservation_ok:
            problems.append("cross-shard supply not conserved at the end of the run")
        if len(ends) != report.epochs_run:
            problems.append(
                f"{len(ends)} conservation checks for {report.epochs_run} epochs"
            )
        if report.degraded_shards:
            problems.append(f"degraded shards: {report.degraded_shards}")
        digest = report.digest()
        if ref["digest"] is None:
            ref["digest"] = digest
        elif digest != ref["digest"]:
            problems.append("pass digest differs from the run's first pass")
        counts = report.transfers
        decided = counts["settled"] + counts["aborted"]
        return PassResult(
            setup_s=ends[lo - 1] - start,
            latencies_ms=[w * 1e3 for w in walls],
            work=processed,
            wall_s=sum(walls),
            accepted=processed,
            attempted=processed + rejected,
            errors=0,
            digest=digest,
            problems=problems,
            epochs=len(walls),
            worker_rss_mb=worker_rss[0],
            extra={
                "window_s": t1 - t0,
                "coord_cpu_s": c1 - c0,
                "worker_cpu_s": w1 - w0,
                "transfers_prepared": prepared[0],
                "commit_ratio": counts["settled"] / decided if decided else 0.0,
            },
        )

    def layer_extra(self, ref: dict, passes: list[PassResult]) -> dict:
        window = sum(p.extra["window_s"] for p in passes)
        decided = [p.extra["commit_ratio"] for p in passes]
        return {
            "epoch_span": "sharding.shard_epoch",
            "processes": 1 + (self.jobs if self.jobs > 1 else 0),
            "parallel_eff": sum(p.extra["worker_cpu_s"] for p in passes) / (self.jobs * window),
            "coord_cpu_share": sum(p.extra["coord_cpu_s"] for p in passes) / window,
            "transfers_prepared": sum(p.extra["transfers_prepared"] for p in passes),
            "transfer_commit_ratio": sum(decided) / len(decided),
        }


class ServingWorkload:
    """Closed-loop clients against the quote/swap gateway."""

    name = "serving"
    min_samples = 1000

    def __init__(self, clients: int = 1200, epochs: int = 3, ticks: int = 6) -> None:
        self.clients = clients
        self.epochs = epochs
        self.ticks = ticks

    def _config(self, seed: int) -> ServingConfig:
        return ServingConfig(
            num_clients=self.clients,
            epochs=self.epochs,
            ticks_per_epoch=self.ticks,
            seed=seed,
            gateway=GatewayConfig(
                queue_capacity=512,
                quote_capacity_per_tick=256,
                pending_quote_bound=4096,
            ),
        )

    def prepare(self, seed: int) -> dict:
        reset_tx_counter(1)
        report = ServingRun(self._config(seed)).execute()
        return {"seed": seed, "digest": report.digest(), "problems": []}

    def run_pass(self, ref: dict, tracer=None) -> PassResult:
        reset_tx_counter(1)
        epoch_walls: list[tuple[float, float]] = []
        if tracer is not None:
            tracer.rec.live_bytes.clear()
            tracer.rec.active = True
        start = time.perf_counter()
        try:
            run = ServingRun(self._config(ref["seed"]))
            if tracer is not None:
                system = run.system
                system.epoch_phases = tracer.wrap_phases(system.epoch_phases)
                run_epoch = system._run_epoch

                def traced_epoch(epoch, inject):
                    begin = time.perf_counter()
                    epoch_walls.append((begin, tracer.run_epoch(run_epoch, epoch, inject)))

                system._run_epoch = traced_epoch
            first_window: list[float] = []
            run_window = run.fleet.run_window

            async def timed_window(ticks):
                if not first_window:
                    first_window.append(time.perf_counter())
                await run_window(ticks)

            run.fleet.run_window = timed_window
            report = run.execute()
            end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.rec.active = False

        stats = report.stats
        quote_errors = sum(stats.quote_errors.values())
        requests = (
            stats.quotes_served + stats.quotes_rejected + quote_errors
            + stats.submits_accepted + stats.submits_rejected
        )
        problems = []
        digest = report.digest()
        if digest != ref["digest"]:
            problems.append("request-log digest differs from the reference run")
        settled = len(stats.finality_epochs) + stats.executor_rejected
        if settled != stats.submits_accepted or run.gateway.inflight_count:
            problems.append(
                f"{stats.submits_accepted} admitted swaps, {settled} reached "
                f"finality or a typed rejection"
            )
        serving_start = first_window[0]
        serving_epochs = sum(w for begin, w in epoch_walls if begin >= serving_start)
        return PassResult(
            setup_s=serving_start - start,
            latencies_ms=[s * 1e3 for s in report.wall_quote_seconds],
            work=stats.quotes_served,
            wall_s=end - serving_start,
            accepted=stats.quotes_served + stats.submits_accepted - stats.executor_rejected,
            attempted=requests,
            errors=quote_errors,
            digest=digest,
            problems=problems,
            epochs=len(epoch_walls),
            extra={
                "window_s": end - start,
                "serving_s": end - serving_start,
                "serving_epochs_s": serving_epochs,
                "refused": stats.quotes_rejected + stats.submits_rejected,
                "requests": requests,
                **(
                    {"live_bytes_end": sum(tracer.rec.live_bytes.values())}
                    if tracer is not None
                    else {}
                ),
            },
        )

    def layer_extra(self, ref: dict, passes: list[PassResult]) -> dict:
        return {
            "epoch_span": "epoch",
            "processes": 1,
            "admission_reject_ratio": sum(p.extra["refused"] for p in passes)
            / sum(p.extra["requests"] for p in passes),
            "serving_s": sum(p.extra["serving_s"] for p in passes),
            "serving_epochs_s": sum(p.extra["serving_epochs_s"] for p in passes),
        }


def make_workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; ``tiny`` shrinks each pass for tests."""
    swaps = dict(
        committee_size=8, miner_population=16, num_users=20,
        daily_volume=2_000_000, rounds_per_epoch=6,
    )
    boundary = dict(
        committee_size=64, miner_population=128, num_users=20,
        daily_volume=50_000, rounds_per_epoch=4, committee_reuse_epochs=1,
    )
    if tiny:
        return {
            "epoch_swaps": EpochWorkload("epoch_swaps", swaps, timed_epochs=3),
            "epoch_boundary": EpochWorkload("epoch_boundary", boundary, timed_epochs=3),
            "sharded": ShardedWorkload(timed_epochs=3, daily_volume_per_shard=100_000),
            "serving": ServingWorkload(clients=60, epochs=1, ticks=3),
        }
    return {
        "epoch_swaps": EpochWorkload("epoch_swaps", swaps, timed_epochs=40),
        "epoch_boundary": EpochWorkload("epoch_boundary", boundary, timed_epochs=150),
        "sharded": ShardedWorkload(),
        "serving": ServingWorkload(),
    }
