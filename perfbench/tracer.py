"""The traced pass: spans around each layer's public calls, kept in memory.

:class:`Tracer` wraps the entry points of every layer from outside the
program (class attributes and module bindings, restored by
:meth:`Tracer.uninstall`).  A wrapper only observes: it reads the clock,
counts, and calls through.  While the recorder is inactive a wrapper is a
plain call-through, so only the traced window is measured.

Accounting:

* a span's *self time* is its duration minus the spans it encloses; the
  self times of a window's spans plus the untraced remainder add up to the
  window's wall time;
* a wrapper's bookkeeping that runs outside the measured call (pickling a
  message to size it, encoding a hash input to count its bytes) is moved
  out of the enclosing span's self time and into ``overhead_s``;
* coarse spans (epochs, phases, generation, sealing, summaries, syncs,
  blocks, election, DKG, gateway ticks, scheduler messages) are also kept
  as records and written out as a Chrome/Perfetto trace at the end; fine
  spans (executor calls, hashes, swap steps, latency records, quotes) are
  only totalled.

Shard workers are forked with the wrappers installed.  Each worker's
recorder resets itself on its first traced call and writes its totals to
``dump_dir`` when its shards finish; :meth:`Tracer.merge_worker_dumps`
folds them into the coordinator's.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "workload",
    "core.phases",
    "core.executor",
    "amm",
    "sidechain",
    "core.summary",
    "mainchain",
    "crypto",
    "metrics",
    "sharding",
    "serving",
)

#: Span name -> layer (spans not listed here, like ``epoch``, are roots).
SPAN_LAYER = {
    "workload.generate_round": "workload",
    "phase.committee_handover": "core.phases",
    "phase.deposit_merge": "core.phases",
    "phase.round_execution": "core.phases",
    "phase.summary_sync": "core.phases",
    "phase.prune_recovery": "core.phases",
    "executor.process_round": "core.executor",
    "executor.process": "core.executor",
    "amm.swap": "amm",
    "amm.prepare_swap": "amm",
    "amm.batch_quote": "amm",
    "amm.batch_commit": "amm",
    "amm.position_op": "amm",
    "amm.snapshot_quote": "amm",
    "amm.freeze": "amm",
    "sidechain.seal": "sidechain",
    "sidechain.ledger": "sidechain",
    "summary.summarize": "core.summary",
    "sync.sign": "core.summary",
    "sync.certify": "core.summary",
    "mainchain.produce": "mainchain",
    "crypto.keccak": "crypto",
    "crypto.pairing": "crypto",
    "crypto.dkg": "crypto",
    "crypto.election": "crypto",
    "metrics.record": "metrics",
    "sharding.run_epoch": "sharding",
    "sharding.post": "sharding",
    "sharding.receive": "sharding",
    "sharding.shard_epoch": "sharding",
    "gateway.tick": "serving",
}

#: The phase spans, by the pipeline class each one wraps.
PHASE_SPANS = {
    "CommitteeHandoverPhase": "phase.committee_handover",
    "DepositMergePhase": "phase.deposit_merge",
    "RoundExecutionPhase": "phase.round_execution",
    "SummarySyncPhase": "phase.summary_sync",
    "PruneRecoveryPhase": "phase.prune_recovery",
}

#: Spans also kept as records for the written trace.
KEPT_SPANS = frozenset(
    {
        "epoch",
        *PHASE_SPANS.values(),
        "workload.generate_round",
        "amm.freeze",
        "sidechain.seal",
        "summary.summarize",
        "sync.sign",
        "mainchain.produce",
        "crypto.dkg",
        "crypto.election",
        "sharding.run_epoch",
        "sharding.post",
        "sharding.receive",
        "sharding.shard_epoch",
        "gateway.tick",
    }
)


class Recorder:
    """Span totals, counters and kept span records of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.epoch = -1
        #: Open spans, innermost last: ``[name, time in child spans]``.
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Live sidechain bytes per ledger at the last traced update.
        self.live_bytes: dict[int, int] = {}
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.overhead_s = 0.0

    def reset(self) -> None:
        """Forget everything recorded (in place: wrappers hold references)."""
        for bucket in (
            self.stack, self.calls, self.self_s, self.incl_s,
            self.counts, self.live_bytes, self.spans,
        ):
            bucket.clear()
        self.overhead_s = 0.0

    def call(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self.stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self.calls[name] += 1
            self.self_s[name] += elapsed - frame[1]
            self.incl_s[name] += elapsed
            if name in KEPT_SPANS:
                self.spans.append((name, start, elapsed, len(stack), self.epoch))

    def charge_overhead(self, started: float) -> None:
        """Move bookkeeping time since ``started`` out of the open span."""
        elapsed = time.perf_counter() - started
        self.overhead_s += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed

    def add_root(self, name: str, start: float, elapsed: float) -> None:
        """Record a span measured by the caller (no enclosing accounting)."""
        self.calls[name] += 1
        self.incl_s[name] += elapsed
        self.spans.append((name, start, elapsed, 0, self.epoch))

    def totals(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "live_bytes": sum(self.live_bytes.values()),
            "overhead_s": self.overhead_s,
        }


def merge_totals(into: dict, other: dict) -> None:
    for key in ("calls", "self_s", "incl_s", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in other.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into["live_bytes"] = into.get("live_bytes", 0) + other.get("live_bytes", 0)
    into["overhead_s"] = into.get("overhead_s", 0.0) + other.get("overhead_s", 0.0)


class Tracer:
    """Installs the layer wrappers and owns the process's recorder."""

    def __init__(self, dump_dir: Path) -> None:
        self.rec = Recorder()
        self.dump_dir = Path(dump_dir)
        #: Epochs ``[lo, hi)`` shard workers trace (the coordinator's window).
        self.shard_window = (0, 0)
        self._undo: list[tuple[object, str, object]] = []
        self._worker = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            if not rec.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                started = time.perf_counter()
                state = before(args)
                rec.charge_overhead(started)
            result = rec.call(name, fn, args, kwargs)
            if after is not None:
                started = time.perf_counter()
                after(result, args, state)
                rec.charge_overhead(started)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(klass, attr, classmethod(self._wrap(name, raw.__func__, before, after)))
            else:
                self._set(klass, attr, self._wrap(name, raw, before, after))

    def _function(self, fn, name: str, after=None) -> None:
        """Wrap ``fn`` in every ``repro`` module that binds it."""
        wrapped = self._wrap(name, fn, after=after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def _counter(self, module, attr: str, counter: str) -> None:
        """Count calls of a hot function without timing them."""
        fn = getattr(module, attr)
        rec = self.rec

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec.active:
                rec.counts[counter] += 1
            return fn(*args, **kwargs)

        self._set(module, attr, counted)

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        # Every module that binds a wrapped name must be loaded first.
        import repro.serving  # noqa: F401 - binds the serving layer's names
        import repro.sharding  # noqa: F401 - binds the sharding layer's names
        from repro.amm import backend
        from repro.amm.pool import Pool, PoolSnapshot, SwapBatch
        from repro.core.executor import SidechainExecutor
        from repro.core.summary import summarize_epoch
        from repro.core.sync import TsqcAuthenticator
        from repro.crypto import hashing
        from repro.crypto.dkg import simulate_dkg
        from repro.crypto.groups import PairingGroup
        from repro.crypto.merkle import MerkleTree
        from repro.mainchain.chain import Mainchain
        from repro.metrics.collector import LatencyStats
        from repro.serving.gateway import QuoteGateway
        from repro.sharding.scheduler import ShardScheduler
        from repro.sharding.shard import Shard
        from repro.sidechain.blocks import MetaBlock
        from repro.sidechain.chain import SidechainLedger
        from repro.sidechain.election import elect_committee
        from repro.workload.generator import TrafficGenerator

        rec = self.rec
        counts = rec.counts

        # workload
        def generated(result, args, state):
            counts["workload.txs"] += len(result)

        self._method(TrafficGenerator, "generate_round", "workload.generate_round", after=generated)

        # core.executor
        def batch_done(result, args, state):
            counts["executor.batch_txs"] += len(args[1])
            counts["executor.attempted"] += len(args[1])
            counts["executor.accepted"] += len(result)

        def single_done(result, args, state):
            counts["executor.attempted"] += 1
            counts["executor.accepted"] += 1 if result else 0

        self._method(SidechainExecutor, "process_round", "executor.process_round", after=batch_done)
        self._method(SidechainExecutor, "process", "executor.process", after=single_done)

        # amm
        self._counter(backend, "compute_swap_step_values", "amm.swap_steps")
        self._method(Pool, "swap", "amm.swap")
        self._method(Pool, "prepare_swap", "amm.prepare_swap")
        self._method(SwapBatch, "quote", "amm.batch_quote")
        self._method(SwapBatch, "commit", "amm.batch_commit")
        for attr in ("mint", "burn", "collect"):
            self._method(Pool, attr, "amm.position_op")
        self._method(PoolSnapshot, "quote", "amm.snapshot_quote")
        self._method(Pool, "freeze", "amm.freeze")

        # sidechain
        def ledger_before(args):
            growth = args[0].growth
            return growth.total_bytes_appended, growth.pruned_bytes

        def ledger_after(result, args, state):
            ledger = args[0]
            counts["sidechain.bytes_appended"] += ledger.growth.total_bytes_appended - state[0]
            counts["sidechain.bytes_pruned"] += ledger.growth.pruned_bytes - state[1]
            rec.live_bytes[id(ledger)] = ledger.current_bytes

        self._method(MetaBlock, "seal", "sidechain.seal")
        original_init = MerkleTree.__init__

        @functools.wraps(original_init)
        def merkle_init(tree, tree_leaves):
            if rec.active:
                counts["sidechain.merkle_leaves"] += len(tree_leaves)
            original_init(tree, tree_leaves)

        self._set(MerkleTree, "__init__", merkle_init)
        for attr in ("append_meta_block", "append_summary_block", "prune_epoch"):
            self._method(
                SidechainLedger, attr, "sidechain.ledger",
                before=ledger_before, after=ledger_after,
            )

        # core.summary / core.sync
        def summarized(result, args, state):
            counts["summary.payout_entries"] += len(result.payouts)

        def signed(result, args, state):
            counts["sync.payload_bytes"] += result.size_bytes

        self._function(summarize_epoch, "summary.summarize", after=summarized)
        self._method(TsqcAuthenticator, "sign_payload", "sync.sign", after=signed)
        self._method(TsqcAuthenticator, "certify_handover", "sync.certify")

        # mainchain
        def produce_before(args):
            return args[0].growth.tx_bytes

        def produced(result, args, state):
            counts["mainchain.blocks"] += len(result)
            counts["mainchain.growth_bytes"] += args[0].growth.tx_bytes - state
            counts["mainchain.sync_gas"] += sum(
                tx.gas_used
                for block in result
                for tx in block.transactions
                if tx.label == "sync"
            )

        self._method(
            Mainchain, "produce_blocks_until", "mainchain.produce",
            before=produce_before, after=produced,
        )

        # crypto
        to_bytes = hashing._to_bytes

        def hashed(result, args, state):
            counts["crypto.keccak_bytes"] += sum(len(to_bytes(part)) for part in args)

        self._function(hashing.keccak256, "crypto.keccak", after=hashed)
        self._method(PairingGroup, "pairing_check", "crypto.pairing")
        self._function(simulate_dkg, "crypto.dkg")
        self._function(elect_committee, "crypto.election")

        # metrics
        self._method(LatencyStats, "record", "metrics.record")

        # sharding (coordinator side)
        def posted(result, args, state):
            counts["sharding.pipe_msgs"] += 1
            counts["sharding.pipe_bytes"] += len(pickle.dumps(args[2], pickle.HIGHEST_PROTOCOL))

        def received(result, args, state):
            counts["sharding.pipe_msgs"] += 1
            counts["sharding.pipe_bytes"] += len(
                pickle.dumps(("ok", result[0]), pickle.HIGHEST_PROTOCOL)
            )

        self._method(ShardScheduler, "run_epoch", "sharding.run_epoch")
        self._method(ShardScheduler, "_post", "sharding.post", after=posted)
        self._method(ShardScheduler, "_receive", "sharding.receive", after=received)

        # sharding (worker side): gate on the epoch, reset after the fork,
        # wrap each shard's pipeline phases, dump totals when it finishes.
        tracer = self
        shard_run_epoch = self._wrap("sharding.shard_epoch", Shard.__dict__["run_epoch"])

        @functools.wraps(shard_run_epoch)
        def run_shard_epoch(shard, epoch, instructions, inject):
            if os.getpid() != rec.pid:
                rec.reset()
                rec.pid = os.getpid()
                tracer._worker = True
            lo, hi = tracer.shard_window
            if tracer._worker:
                rec.active = lo <= epoch < hi
                rec.epoch = epoch
            try:
                return shard_run_epoch(shard, epoch, instructions, inject)
            finally:
                if tracer._worker:
                    rec.active = False

        original_finish = Shard.__dict__["finish"]

        @functools.wraps(original_finish)
        def finish_shard(shard):
            result = original_finish(shard)
            if tracer._worker:
                tracer.dump_worker()
            return result

        original_build = Shard.__dict__["_build_phases"]

        @functools.wraps(original_build)
        def build_phases(shard, spec):
            return tracer.wrap_phases(original_build(shard, spec))

        self._set(Shard, "run_epoch", run_shard_epoch)
        self._set(Shard, "finish", finish_shard)
        self._set(Shard, "_build_phases", build_phases)

        # serving
        def tick_before(args):
            return args[0].stats.quotes_served

        def ticked(result, args, state):
            counts["gateway.quotes"] += args[0].stats.quotes_served - state

        self._method(
            QuoteGateway, "process_tick", "gateway.tick",
            before=tick_before, after=ticked,
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- phases, roots and windows --------------------------------------------

    def wrap_phases(self, phases):
        """Wrap each of the five pipeline phases in a span-recording phase."""
        wrapped = []
        for phase in phases:
            name = next(
                (PHASE_SPANS[k.__name__] for k in type(phase).__mro__ if k.__name__ in PHASE_SPANS),
                None,
            )
            wrapped.append(phase if name is None else _SpanPhase(phase, name, self.rec))
        return tuple(wrapped)

    def run_epoch(self, run_epoch, epoch: int, inject: bool) -> float:
        """Call ``run_epoch`` under an ``epoch`` root span; returns its wall."""
        self.rec.epoch = epoch
        start = time.perf_counter()
        self.rec.call("epoch", run_epoch, (epoch,), {"inject": inject})
        return time.perf_counter() - start

    # -- worker dumps ----------------------------------------------------------

    def dump_worker(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        payload = {"pid": os.getpid(), "totals": self.rec.totals(), "spans": self.rec.spans}
        target = self.dump_dir / f"worker-{os.getpid()}.json"
        partial = target.with_suffix(".tmp")
        partial.write_text(json.dumps(payload))
        partial.replace(target)

    def merge_worker_dumps(self) -> tuple[dict, list]:
        """Fold and delete the worker dumps; returns (totals, spans by pid)."""
        totals: dict = {}
        spans = []
        if not self.dump_dir.is_dir():
            return totals, spans
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            merge_totals(totals, payload["totals"])
            spans.append((payload["pid"], payload["spans"]))
            path.unlink()
        return totals, spans


class _SpanPhase:
    """A pipeline phase wrapped in a span (passed via ``epoch_phases``)."""

    def __init__(self, inner, name: str, rec: Recorder) -> None:
        self.inner = inner
        self.name = name
        self.rec = rec

    def run(self, system, ctx) -> None:
        if not self.rec.active:
            self.inner.run(system, ctx)
            return
        self.rec.call(self.name, self.inner.run, (system, ctx), {})


def write_chrome_trace(path: Path, own_spans: list, worker_spans: list) -> None:
    """Write kept spans as Chrome trace events (open in Perfetto)."""
    groups = [(os.getpid(), own_spans)] + [(pid, spans) for pid, spans in worker_spans]
    starts = [span[1] for _, spans in groups for span in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for pid, spans in groups:
        for name, start, elapsed, depth, epoch in spans:
            events.append(
                {
                    "name": name,
                    "cat": SPAN_LAYER.get(name, "root"),
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round(elapsed * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {"epoch": epoch, "depth": depth},
                }
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
