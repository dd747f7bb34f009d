"""Property suite: the swap walker against the sequential reference walker.

The swap walker (``SwapBatch``: every quote and swap, a lone swap being
a batch of one) must be *bit-identical* to the sequential reference walk
in :mod:`tests.swap_oracle` for any transaction sequence — same amounts,
same fees, same errors, same final pool state including every tick
record's fee-growth-outside values and the state version.  These
properties drive generated swap mixes (both directions, exact input and
exact output, price limits, tick-crossing sizes, rejections that discard
a quote) through both walkers on identically constructed pools and
compare everything observable.

The executor-level property does the same one layer up:
``SidechainExecutor.process_round`` (one batch per swap run +
struct-of-arrays records) against per-transaction ``process`` (a run of
one per swap) and against the reference executor — acceptance decisions,
reject-reason strings, effects dicts, deposits and pool state all match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.transactions import MintTx, SwapTx
from repro.errors import AMMError
from tests import swap_oracle
from tests.swap_oracle import pool_state


def build_pool(initialized: bool = True) -> Pool:
    """A pool with overlapping ranges so swaps cross initialized ticks."""
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    if not initialized:
        return pool
    pool.initialize(encode_price_sqrt(1, 1))
    pool.mint("lp", -600, 600, 10**18)
    pool.mint("lp", -120, 120, 5 * 10**17)
    pool.mint("lp", -60, 60, 10**17)
    pool.mint("lp", 60, 240, 3 * 10**17)
    return pool


SWAP = st.tuples(
    st.booleans(),  # zero_for_one
    st.booleans(),  # exact_input
    st.integers(min_value=10**13, max_value=4 * 10**17),
    # 0/2: plain accept; 1: price-limited accept; 3: quote then discard.
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=80, deadline=None)
@given(swaps=st.lists(SWAP, min_size=1, max_size=16))
def test_batch_quoting_equals_sequential(swaps):
    """One batch for all swaps, and a batch of one per swap, both match."""
    seq = build_pool()
    bat = build_pool()
    one = build_pool()
    batch = bat.begin_swap_batch()

    def outcome(quote):
        """(handle, comparable outcome) of one quote; no handle on error."""
        try:
            handle = quote()
        except AMMError as exc:  # SlippageError / NoLiquidityError included
            return None, ("err", type(exc).__name__, str(exc))
        return handle, ("ok", handle.amount0, handle.amount1, handle.fee_paid)

    def batch_quote(*args):
        batch.quote(*args)
        return batch

    for zero_for_one, exact_input, amount, mode in swaps:
        amount_specified = amount if exact_input else -amount
        limit = None
        if mode == 1:
            # A tight limit in the swap direction: every path must stop at
            # the same price (and may reject with NoLiquidityError when
            # the limit allows no movement at all).
            price = seq.sqrt_price_x96
            limit = price - price // 500 if zero_for_one else price + price // 500
        args = (zero_for_one, amount_specified, limit)
        oracle, expected = outcome(lambda: swap_oracle.prepare_swap(seq, *args))
        assert outcome(lambda: batch_quote(*args))[1] == expected
        single, got = outcome(lambda: one.prepare_swap(*args))
        assert got == expected
        if oracle is not None and mode != 3:
            assert single.commit() == oracle.commit()
            batch.accept()
        # mode == 3 (or an error): the quote is discarded on every path.
    batch.commit()
    assert pool_state(bat) == pool_state(seq)
    assert pool_state(one) == pool_state(seq)


@settings(max_examples=40, deadline=None)
@given(
    swaps=st.lists(SWAP, min_size=1, max_size=10),
    direction=st.booleans(),
)
def test_batch_with_nothing_accepted_leaves_pool_untouched(swaps, direction):
    pool = build_pool()
    before = pool_state(pool)
    batch = pool.begin_swap_batch()
    for zero_for_one, exact_input, amount, _ in swaps:
        try:
            batch.quote(zero_for_one, amount if exact_input else -amount)
        except AMMError:
            pass
    batch.commit()
    assert pool_state(pool) == before


# -- executor level -------------------------------------------------------------

RICH = ("u0", "u1", "u2")

TX = st.tuples(
    st.integers(min_value=0, max_value=4),  # 0-2 rich user, 3 poor, 4 mint
    st.booleans(),  # zero_for_one
    st.booleans(),  # exact_input
    st.one_of(st.just(0), st.integers(min_value=10**13, max_value=3 * 10**17)),
    st.integers(min_value=0, max_value=2),  # 0 none, 1 slippage, 2 deadline
)


def build_executor(
    initialized: bool = True, cls: type = SidechainExecutor
) -> SidechainExecutor:
    executor = cls(build_pool(initialized))
    deposits = {user: [10**20, 10**20] for user in RICH}
    deposits["poor"] = [0, 0]
    executor.begin_epoch(deposits)
    return executor


def make_mint() -> MintTx:
    return MintTx(
        user="u0",
        tick_lower=-1200,
        tick_upper=1200,
        amount0_desired=10**15,
        amount1_desired=10**15,
    )


def make_txs(entries, interleave_mints=False):
    txs = []
    for user_idx, zero_for_one, exact_input, amount, reject_mode in entries:
        if interleave_mints and txs:
            # A mint between every two entries: every swap run has length 1.
            txs.append(make_mint())
        if user_idx == 4:
            tx = make_mint()
        else:
            user = "poor" if user_idx == 3 else RICH[user_idx]
            amount_limit = None
            deadline = None
            if reject_mode == 1:
                # Unsatisfiable slippage bound: min output (exact input)
                # or max input (exact output) no swap can meet.
                amount_limit = 10**30 if exact_input else 1
            elif reject_mode == 2:
                deadline = 1  # already passed at current_round = 5
            tx = SwapTx(
                user=user,
                zero_for_one=zero_for_one,
                exact_input=exact_input,
                amount=amount,
                amount_limit=amount_limit,
                deadline=deadline,
            )
        txs.append(tx)
    return txs


def expected_uninitialized_reason(tx: SwapTx) -> str:
    """Deadline and amount checks come before the pool's own error."""
    if tx.deadline is not None:
        return f"deadline round {tx.deadline} passed"
    if tx.amount <= 0:
        return "swap amount must be positive"
    return "pool not initialized"


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(TX, min_size=1, max_size=14),
    initialized=st.booleans(),
    interleave_mints=st.booleans(),
)
def test_process_round_batch_equals_sequential(entries, initialized, interleave_mints):
    batch_ex = build_executor(initialized)
    seq_ex = build_executor(initialized)
    oracle_ex = build_executor(initialized, swap_oracle.OracleExecutor)
    batch_txs = make_txs(entries, interleave_mints)
    seq_txs = make_txs(entries, interleave_mints)
    oracle_txs = make_txs(entries, interleave_mints)

    batch_accepted = batch_ex.process_round(batch_txs, current_round=5)
    seq_accepted = [
        tx for tx in seq_txs if seq_ex.process(tx, current_round=5)
    ]
    oracle_accepted = [
        tx for tx in oracle_txs if oracle_ex.process(tx, current_round=5)
    ]

    assert len(batch_accepted) == len(seq_accepted) == len(oracle_accepted)
    for b, s, o in zip(batch_txs, seq_txs, oracle_txs):
        assert b.reject_reason == s.reject_reason == o.reject_reason
        if isinstance(b, SwapTx):
            assert b.effects == s.effects == o.effects
            if not initialized:
                assert b.reject_reason == expected_uninitialized_reason(b)
    for ex in (seq_ex, oracle_ex):
        assert pool_state(batch_ex.pool) == pool_state(ex.pool)
        assert batch_ex.deposits == ex.deposits
        assert batch_ex.processed_count == ex.processed_count
        assert batch_ex.rejected_count == ex.rejected_count


# -- one-shot commits -------------------------------------------------------------


def test_batch_commit_is_one_shot():
    pool = build_pool()
    batch = pool.begin_swap_batch()
    batch.quote(True, 10**16)
    batch.accept()
    batch.commit()
    before = pool_state(pool)
    with pytest.raises(AMMError, match="pool state changed since batch was opened"):
        batch.commit()
    assert pool_state(pool) == before


def test_batch_commit_refuses_after_mint():
    pool = build_pool()
    batch = pool.begin_swap_batch()
    batch.quote(False, 10**16)
    batch.accept()
    pool.mint("lp2", -1200, -600, 10**17)
    before = pool_state(pool)
    with pytest.raises(AMMError, match="pool state changed since batch was opened"):
        batch.commit()
    assert pool_state(pool) == before
