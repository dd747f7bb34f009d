"""Tests for the read-only quoter: quotes must match real swaps exactly."""

from hypothesis import given, settings, strategies as st

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.amm.quoter import quote_swap
from repro.errors import NoLiquidityError
from tests.swap_oracle import pool_state


def fresh_pool():
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    return pool


def test_quote_does_not_mutate_pool():
    pool = fresh_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    before = pool.snapshot()
    quote_swap(pool, True, 10**17)
    assert pool.snapshot() == before


def test_quote_does_not_grow_tick_table():
    # Regression: the quoter's tick reads used to materialise phantom
    # records for every uninitialized tick it touched.  Reads must leave
    # the tick records and the state version alone, on an empty pool
    # (every quote fails) as on a populated one, live or frozen.
    populated = fresh_pool()
    populated.mint("lp", -6000, 6000, 10**20)
    populated.mint("lp", -60, 600, 10**19)
    for pool in (fresh_pool(), populated):
        frozen = pool.freeze()
        for target, quote in (
            (pool, lambda *args: quote_swap(pool, *args)),
            (frozen._pool, frozen.quote),
        ):
            before = pool_state(target)
            for _ in range(3):
                for args in ((True, 10**17), (False, 10**17), (True, -(10**15))):
                    try:
                        quote(*args)
                    except NoLiquidityError:
                        assert not pool.liquidity
            assert pool_state(target) == before


def test_quote_matches_execution_exact_input():
    pool = fresh_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    quote = quote_swap(pool, True, 10**17)
    result = pool.swap(True, 10**17)
    assert (quote.amount0, quote.amount1) == (result.amount0, result.amount1)
    assert quote.sqrt_price_after_x96 == result.sqrt_price_x96
    assert quote.fee_paid == result.fee_paid


def test_quote_matches_execution_exact_output():
    pool = fresh_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    quote = quote_swap(pool, False, -(10**16))
    result = pool.swap(False, -(10**16))
    assert (quote.amount0, quote.amount1) == (result.amount0, result.amount1)


def test_quote_matches_execution_across_ticks():
    pool = fresh_pool()
    pool.mint("lp", -60, 60, 10**18)
    pool.mint("lp", -6000, 6000, 10**18)
    quote = quote_swap(pool, True, 10**17)
    result = pool.swap(True, 10**17)
    assert (quote.amount0, quote.amount1) == (result.amount0, result.amount1)


def test_trader_amounts_view():
    pool = fresh_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    quote = quote_swap(pool, True, 10**16)
    amount_in, amount_out = quote.trader_amounts(True)
    assert amount_in == 10**16
    assert amount_out > 0


@settings(max_examples=60, deadline=None)
@given(
    amount=st.integers(min_value=10**12, max_value=10**19),
    zero_for_one=st.booleans(),
    exact_input=st.booleans(),
)
def test_quote_equals_swap_property(amount, zero_for_one, exact_input):
    pool = fresh_pool()
    pool.mint("lp", -60, 60, 10**18)
    pool.mint("lp", -6000, 6000, 5 * 10**18)
    pool.mint("lp", -60000, 60000, 10**19)
    specified = amount if exact_input else -amount
    quote = quote_swap(pool, zero_for_one, specified)
    result = pool.swap(zero_for_one, specified)
    assert (quote.amount0, quote.amount1) == (result.amount0, result.amount1)
    assert quote.sqrt_price_after_x96 == result.sqrt_price_x96
