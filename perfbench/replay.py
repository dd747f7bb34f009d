"""Traffic recording and replay for the epoch workloads.

The epoch workloads time the system, not the load generator.  An untimed
reference run drives the system with its own in-loop
:class:`~repro.workload.generator.TrafficGenerator` wrapped in a
:class:`TrafficRecorder`, which keeps a pristine copy of every round's
transactions (``tx_id`` included) and the id counter's position after the
round.  Timed passes install a :class:`ReplayGenerator` in the same public
``system.generator`` slot; it hands out fresh copies made before timing
started and restores the id counter, so the replayed run reaches the same
end state as the in-loop run.  :func:`system_digest` is that end state.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.core import transactions as txmod


class ReplayError(RuntimeError):
    """The system asked for traffic the recording does not hold."""


def pristine(tx):
    """A copy of a freshly generated transaction that shares nothing mutable.

    Bypasses ``__init__`` so no transaction id is drawn; ``effects`` is the
    only mutable field a generated transaction carries.
    """
    copy = object.__new__(type(tx))
    copy.__dict__.update(tx.__dict__)
    copy.effects = {}
    return copy


class TrafficRecorder:
    """Wraps an in-loop generator; records each round it produces."""

    def __init__(self, generator) -> None:
        self.generator = generator
        #: ``(count, submitted_at, pristine txs, next tx id)`` per round.
        self.rounds: list[tuple[int, float, list, int]] = []
        self.gen_seconds = 0.0
        self.txs = 0

    def generate_round(self, count: int, submitted_at: float, current_tick: int = 0):
        start = time.perf_counter()
        txs = self.generator.generate_round(count, submitted_at, current_tick)
        self.gen_seconds += time.perf_counter() - start
        # Read the id counter without moving it: take one id, restart there.
        next_id = txmod.snapshot_tx_counter()
        txmod.reset_tx_counter(next_id)
        self.rounds.append((count, submitted_at, [pristine(tx) for tx in txs], next_id))
        self.txs += len(txs)
        return txs


class ReplayGenerator:
    """Serves recorded rounds; every copy is made at construction time."""

    def __init__(self, rounds: list[tuple[int, float, list, int]]) -> None:
        self._rounds = [
            (count, submitted_at, [pristine(tx) for tx in txs], next_id)
            for count, submitted_at, txs, next_id in rounds
        ]
        self._cursor = 0
        self.txs = 0

    def generate_round(self, count: int, submitted_at: float, current_tick: int = 0):
        if self._cursor >= len(self._rounds):
            raise ReplayError("the system asked for more rounds than were recorded")
        expected, recorded_at, txs, next_id = self._rounds[self._cursor]
        if count != expected or submitted_at != recorded_at:
            raise ReplayError(
                f"round {self._cursor}: asked for {count} txs at {submitted_at}, "
                f"recorded {expected} at {recorded_at}"
            )
        self._cursor += 1
        txmod.reset_tx_counter(next_id)
        self.txs += len(txs)
        return txs


def system_digest(system) -> str:
    """SHA-256 over the end state the replay must reproduce.

    Covers pool state, TokenBank state, the sidechain ledger's byte
    counters, processed/rejected counts and mainchain gas.
    """
    growth = system.ledger.growth
    state = {
        "pool": system.pool.snapshot(),
        "token_bank": system.token_bank.state_snapshot(),
        "ledger": [
            growth.total_bytes_appended,
            growth.pruned_bytes,
            growth.num_meta_blocks,
            growth.num_summary_blocks,
        ],
        "processed": system.metrics.processed_txs,
        "rejected": system.metrics.rejected_txs,
        "gas": sum(
            tx.gas_used for block in system.mainchain.blocks for tx in block.transactions
        ),
    }
    blob = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def epoch_checks(system, generated: int, epochs: int) -> list[str]:
    """The per-run invariants of an epoch workload; returns what failed."""
    problems = []
    metrics = system.metrics
    accounted = metrics.processed_txs + metrics.rejected_txs + len(system.queue)
    if accounted != generated:
        problems.append(
            f"processed {metrics.processed_txs} + rejected {metrics.rejected_txs} + "
            f"queued {len(system.queue)} != generated {generated}"
        )
    ledger = system.ledger
    unpruned = [
        e for e in range(epochs) if ledger.is_synced(e) and ledger.live_meta_blocks(e)
    ]
    if unpruned:
        problems.append(f"synced epochs not pruned: {unpruned[:5]}")
    if not any(ledger.is_synced(e) for e in range(epochs)):
        problems.append("no epoch synced")
    events = system.token_bank.deposit_events[: system._deposit_cursor]
    for index, balance in ((0, system.pool.balance0), (1, system.pool.balance1)):
        merged = sum(event[2 + index] for event in events)
        held = sum(b[index] for b in system.executor.deposits.values()) + balance
        if held != merged:
            problems.append(
                f"token{index}: deposits + pool = {held} != merged deposits {merged}"
            )
    return problems
