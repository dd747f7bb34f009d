"""Sequential reference walker: the oracle the swap walker is tested against.

``repro.amm`` has one swap walker, :class:`repro.amm.pool.SwapBatch`, and
a single swap is a batch of one.  This module is the plain per-swap walk
it must agree with: one :func:`prepare_swap` per swap, a fresh bisect
over the tick index for every step, the current tick recomputed from the
price after every mid-range stop, and a :meth:`PendingSwap.commit` that
writes one swap's effects back.  It shares nothing with the batch walker
except the backend math, so agreement between the two is evidence, not
tautology.

:class:`OracleExecutor` is the executor-level counterpart: per-transaction
swap validation on top of this walker, in the order and with the reject
reasons the production executor must reproduce.
"""

from __future__ import annotations

import bisect
from dataclasses import astuple, dataclass

from repro.amm import backend, liquidity_math
from repro.amm.backend import Q128
from repro.amm.pool import Pool, SwapResult
from repro.amm.tick import TickTable
from repro.core.executor import SidechainExecutor
from repro.core.transactions import SidechainTx, SwapTx
from repro.errors import AMMError, DepositError, NoLiquidityError, PositionError, SlippageError


def pool_state(pool: Pool) -> tuple:
    """Everything a swap can change: price/reserves, tick records, version, oracle."""
    return (
        pool.snapshot(),
        {tick: astuple(info) for tick, info in pool.ticks.ticks.items()},
        pool._state_version,
        list(pool.oracle.observations),
    )


def next_initialized_tick(table: TickTable, tick: int, lte: bool) -> tuple[int | None, bool]:
    """Find the next initialized tick at or beyond ``tick``.

    ``lte=True`` searches downwards (tick itself included), matching
    the bitmap's ``nextInitializedTickWithinOneWord`` direction for
    zero-for-one swaps.  Returns ``(tick, initialized)`` with ``None``
    when no initialized tick remains in that direction.
    """
    ticks = table._sorted
    if lte:
        idx = bisect.bisect_right(ticks, tick) - 1
        if idx < 0:
            return None, False
        return ticks[idx], True
    idx = bisect.bisect_right(ticks, tick)
    if idx >= len(ticks):
        return None, False
    return ticks[idx], True


@dataclass(slots=True)
class PendingSwap:
    """A fully-computed swap awaiting :meth:`commit` — one tick walk total."""

    pool: Pool
    zero_for_one: bool
    amount0: int
    amount1: int
    sqrt_price_after_x96: int
    tick_after: int
    liquidity_after: int
    fee_growth_global_x128: int
    fee_paid: int
    #: (tick, new_fee_growth_outside0, new_fee_growth_outside1) per crossing.
    crossings: list[tuple[int, int, int]]
    _pre_tick: int
    _pre_state_version: int

    def trader_amounts(self) -> tuple[int, int]:
        """(amount_in, amount_out) from the trader's perspective."""
        if self.zero_for_one:
            return self.amount0, -self.amount1
        return self.amount1, -self.amount0

    def commit(self, timestamp: float | None = None) -> SwapResult:
        """Apply the prepared swap to the pool (no second tick walk)."""
        pool = self.pool
        if pool._state_version != self._pre_state_version:
            raise AMMError("pool state changed since swap was prepared")
        if timestamp is not None:
            pool.oracle.write(timestamp, self._pre_tick)
        pool._state_version += 1
        ticks = pool.ticks.ticks
        for tick, outside0, outside1 in self.crossings:
            info = ticks.get(tick)
            if info is not None:
                info.fee_growth_outside0_x128 = outside0
                info.fee_growth_outside1_x128 = outside1
        pool.sqrt_price_x96 = self.sqrt_price_after_x96
        pool.tick = self.tick_after
        pool.liquidity = self.liquidity_after
        if self.zero_for_one:
            pool.fee_growth_global0_x128 = self.fee_growth_global_x128
        else:
            pool.fee_growth_global1_x128 = self.fee_growth_global_x128
        pool.balance0 += self.amount0
        pool.balance1 += self.amount1
        return SwapResult(
            amount0=self.amount0,
            amount1=self.amount1,
            sqrt_price_x96=self.sqrt_price_after_x96,
            tick=self.tick_after,
            liquidity=self.liquidity_after,
            fee_paid=self.fee_paid,
        )


def prepare_swap(
    pool: Pool,
    zero_for_one: bool,
    amount_specified: int,
    sqrt_price_limit_x96: int | None = None,
) -> PendingSwap:
    """Walk one swap over ``pool`` without touching its state."""
    pool._require_initialized()
    if amount_specified == 0:
        raise AMMError("swap amount must be non-zero")
    if sqrt_price_limit_x96 is None:
        sqrt_price_limit_x96 = (
            backend.MIN_SQRT_RATIO + 1 if zero_for_one else backend.MAX_SQRT_RATIO - 1
        )
    if zero_for_one:
        if not (backend.MIN_SQRT_RATIO < sqrt_price_limit_x96 < pool.sqrt_price_x96):
            raise SlippageError(f"price limit {sqrt_price_limit_x96} invalid for zero-for-one")
    else:
        if not (pool.sqrt_price_x96 < sqrt_price_limit_x96 < backend.MAX_SQRT_RATIO):
            raise SlippageError(f"price limit {sqrt_price_limit_x96} invalid for one-for-zero")

    exact_input = amount_specified > 0
    amount_remaining = amount_specified
    amount_calculated = 0
    sqrt_price = pool.sqrt_price_x96
    tick = pool.tick
    liquidity = pool.liquidity
    fee_growth_global = (
        pool.fee_growth_global0_x128 if zero_for_one else pool.fee_growth_global1_x128
    )
    fee_growth_other = (
        pool.fee_growth_global1_x128 if zero_for_one else pool.fee_growth_global0_x128
    )
    total_fee = 0
    crossings: list[tuple[int, int, int]] = []
    tick_records = pool.ticks.ticks
    fee_pips = pool.config.fee_pips

    while amount_remaining != 0 and sqrt_price != sqrt_price_limit_x96:
        step_start_price = sqrt_price
        tick_next, initialized = next_initialized_tick(pool.ticks, tick, lte=zero_for_one)
        if tick_next is None:
            tick_next = backend.MIN_TICK if zero_for_one else backend.MAX_TICK
        elif tick_next < backend.MIN_TICK:
            tick_next = backend.MIN_TICK
        elif tick_next > backend.MAX_TICK:
            tick_next = backend.MAX_TICK
        sqrt_price_next = backend.get_sqrt_ratio_at_tick(tick_next)

        if zero_for_one:
            target = max(sqrt_price_next, sqrt_price_limit_x96)
        else:
            target = min(sqrt_price_next, sqrt_price_limit_x96)

        if liquidity == 0:
            sqrt_price = target
        else:
            sqrt_price, amount_in, amount_out, fee_amount = backend.compute_swap_step_values(
                sqrt_price, target, liquidity, amount_remaining, fee_pips
            )
            total_fee += fee_amount
            if exact_input:
                amount_remaining -= amount_in + fee_amount
                amount_calculated -= amount_out
            else:
                amount_remaining += amount_out
                amount_calculated += amount_in + fee_amount
            fee_growth_global = (fee_growth_global + (fee_amount * Q128) // liquidity) % Q128

        if sqrt_price == sqrt_price_next:
            if initialized:
                info = tick_records.get(tick_next)
                if info is not None:
                    if zero_for_one:
                        crossings.append((
                            tick_next,
                            (fee_growth_global - info.fee_growth_outside0_x128) % Q128,
                            (fee_growth_other - info.fee_growth_outside1_x128) % Q128,
                        ))
                        liquidity = liquidity_math.add_delta(liquidity, -info.liquidity_net)
                    else:
                        crossings.append((
                            tick_next,
                            (fee_growth_other - info.fee_growth_outside0_x128) % Q128,
                            (fee_growth_global - info.fee_growth_outside1_x128) % Q128,
                        ))
                        liquidity = liquidity_math.add_delta(liquidity, info.liquidity_net)
            tick = tick_next - 1 if zero_for_one else tick_next
        elif sqrt_price != step_start_price:
            tick = backend.get_tick_at_sqrt_ratio(sqrt_price)

    if zero_for_one == exact_input:
        amount0 = amount_specified - amount_remaining
        amount1 = amount_calculated
    else:
        amount0 = amount_calculated
        amount1 = amount_specified - amount_remaining
    if amount0 == 0 and amount1 == 0:
        raise NoLiquidityError(
            f"no liquidity for "
            f"{'zero-for-one' if zero_for_one else 'one-for-zero'} swap "
            f"in pool {pool.config.token0}/{pool.config.token1}"
        )
    return PendingSwap(
        pool=pool,
        zero_for_one=zero_for_one,
        amount0=amount0,
        amount1=amount1,
        sqrt_price_after_x96=sqrt_price,
        tick_after=tick,
        liquidity_after=liquidity,
        fee_growth_global_x128=fee_growth_global,
        fee_paid=total_fee,
        crossings=crossings,
        _pre_tick=pool.tick,
        _pre_state_version=pool._state_version,
    )


class OracleExecutor(SidechainExecutor):
    """Executor whose swaps run one at a time through the reference walker."""

    def process(self, tx: SidechainTx, current_round: int = 0) -> bool:
        if not isinstance(tx, SwapTx):
            return super().process(tx, current_round=current_round)
        self.current_round = current_round
        try:
            self._process_swap(tx)
        except (AMMError, DepositError, PositionError) as exc:
            tx.reject_reason = str(exc)
            self.rejected_count += 1
            return False
        self.processed_count += 1
        return True

    def _process_swap(self, tx: SwapTx) -> None:
        if tx.deadline is not None and self.current_round > tx.deadline:
            raise AMMError(f"deadline round {tx.deadline} passed")
        if tx.amount <= 0:
            raise AMMError("swap amount must be positive")
        amount_specified = tx.amount if tx.exact_input else -tx.amount
        pending = prepare_swap(
            self.pool, tx.zero_for_one, amount_specified, tx.sqrt_price_limit_x96
        )
        amount_in, amount_out = pending.trader_amounts()
        if tx.exact_input:
            if tx.amount_limit is not None and amount_out < tx.amount_limit:
                raise AMMError(f"slippage: output {amount_out} < minimum {tx.amount_limit}")
        else:
            if tx.amount_limit is not None and amount_in > tx.amount_limit:
                raise AMMError(f"slippage: input {amount_in} > maximum {tx.amount_limit}")
        balance = self.deposit_of(tx.user)
        in_index = 0 if tx.zero_for_one else 1
        if balance[in_index] < amount_in:
            raise DepositError(f"deposit {balance[in_index]} cannot cover swap input {amount_in}")
        result = pending.commit()
        delta0, delta1 = -result.amount0, -result.amount1
        balance[0] += delta0
        balance[1] += delta1
        tx.effects = {"delta0": delta0, "delta1": delta1, "fee": result.fee_paid}
