"""The sidechain AMM executor (Section IV-B, transaction processing).

Processes swaps, mints, burns and collects against the pool state, using
the original AMM engine (:mod:`repro.amm`) — "ammBoost does not change the
logic based on which an AMM operates, it just migrates that to the
sidechain".  Deposit coverage is enforced before execution (the sidechain
holds no tokens, so it must only accept transactions backed by mainchain
deposits), and every accepted transaction's effects are recorded for the
epoch summariser.

Positions are keyed by an executor-generated identifier ("the hash of the
mint transaction and the LP's public key"); ownership is the issuer's
public key, verified on burns and collects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amm import backend, liquidity_math
from repro.amm.pool import Pool
from repro.core.transactions import (
    BurnTx,
    CollectTx,
    MintTx,
    SidechainTx,
    SwapTx,
)
from repro.crypto.hashing import keccak256
from repro.errors import AMMError, DepositError, PositionError


@dataclass
class PositionRecord:
    """Executor-side view of a liquidity position."""

    position_id: str
    owner: str
    tick_lower: int
    tick_upper: int
    liquidity: int


class SidechainExecutor:
    """Epoch-scoped AMM execution off the mainchain snapshot."""

    def __init__(self, pool: Pool) -> None:
        self.pool = pool
        #: Working deposit balances, refreshed from TokenBank each epoch.
        self.deposits: dict[str, list[int]] = {}
        #: position_id -> record; persists across epochs on the sidechain.
        self.positions: dict[str, PositionRecord] = {}
        self.current_round = 0
        self.processed_count = 0
        self.rejected_count = 0
        #: Struct-of-arrays scratch for a round's accepted swaps: parallel
        #: arrays instead of per-tx intermediate objects on the hot path.
        #: Materialised into ``tx.effects`` dicts when the batch commits.
        self._round_tx: list[SwapTx] = []
        self._round_delta0: list[int] = []
        self._round_delta1: list[int] = []
        self._round_fee: list[int] = []

    # -- epoch lifecycle -----------------------------------------------------------

    def begin_epoch(self, deposits_snapshot: dict[str, list[int]]) -> None:
        """Load the epoch-start deposit snapshot (SnapshotBank output)."""
        self.deposits = {user: list(bal) for user, bal in deposits_snapshot.items()}

    def deposit_of(self, user: str) -> list[int]:
        return self.deposits.setdefault(user, [0, 0])

    # -- transaction processing -------------------------------------------------------

    def process(self, tx: SidechainTx, current_round: int = 0) -> bool:
        """Validate and execute one transaction.

        Returns True on acceptance; on rejection sets ``tx.reject_reason``
        and leaves all state untouched (validation happens before any
        mutation, via quoting).  A swap is a run of one.
        """
        if isinstance(tx, SwapTx):
            accepted: list[SidechainTx] = []
            self._process_swap_run([tx], accepted, current_round)
            return bool(accepted)
        self.current_round = current_round
        try:
            if isinstance(tx, MintTx):
                self._process_mint(tx)
            elif isinstance(tx, BurnTx):
                self._process_burn(tx)
            elif isinstance(tx, CollectTx):
                self._process_collect(tx)
            else:
                raise AMMError(f"unknown transaction type {type(tx).__name__}")
        except (AMMError, DepositError, PositionError) as exc:
            tx.reject_reason = str(exc)
            self.rejected_count += 1
            return False
        self.processed_count += 1
        return True

    def process_round(
        self, txs: list[SidechainTx], current_round: int = 0
    ) -> list[SidechainTx]:
        """Execute one round's batch of transactions; returns those accepted.

        Rejected transactions carry ``reject_reason`` and leave state
        untouched, exactly as :meth:`process` does one at a time.  Runs of
        consecutive swaps share one swap batch — one amortized tick walk
        for the whole run — with acceptance decisions, reject reasons and
        effects identical to processing each swap as a run of one.
        """
        accepted: list[SidechainTx] = []
        i, n = 0, len(txs)
        while i < n:
            tx = txs[i]
            # Exact-type check: SwapTx *subclasses* (cross-shard legs) carry
            # extra semantics in overridden ``process`` methods and must keep
            # the virtual per-tx dispatch.
            if type(tx) is SwapTx:
                j = i + 1
                while j < n and type(txs[j]) is SwapTx:
                    j += 1
                self._process_swap_run(txs[i:j], accepted, current_round)
                i = j
            else:
                if self.process(tx, current_round=current_round):
                    accepted.append(tx)
                i += 1
        return accepted

    def _process_swap_run(
        self,
        swaps: list[SwapTx],
        accepted: list[SidechainTx],
        current_round: int,
    ) -> None:
        """Execute a run of consecutive swaps through one swap batch.

        The only swap validator: per swap, in order, the deadline, the
        amount, the pool (initialized, price limit, liquidity), slippage
        and deposit coverage.  A rejected swap's quote is discarded, so it
        leaves all state untouched.  Each swap is quoted against the
        batch's virtual state, so later swaps see earlier accepted ones.
        Accepted outcomes accumulate in the per-round parallel arrays and
        materialise into ``tx.effects`` dicts once the batch commits.
        """
        self.current_round = current_round
        pool = self.pool
        # Opened at the first swap that passes the deadline and amount
        # checks, so those reasons come before "pool not initialized".
        batch = None
        rec_tx = self._round_tx
        rec_delta0 = self._round_delta0
        rec_delta1 = self._round_delta1
        rec_fee = self._round_fee
        rec_tx.clear()
        rec_delta0.clear()
        rec_delta1.clear()
        rec_fee.clear()
        deposit_of = self.deposit_of
        for tx in swaps:
            try:
                if tx.deadline is not None and current_round > tx.deadline:
                    raise AMMError(f"deadline round {tx.deadline} passed")
                if tx.amount <= 0:
                    raise AMMError("swap amount must be positive")
                amount_specified = tx.amount if tx.exact_input else -tx.amount
                if batch is None:
                    batch = pool.begin_swap_batch()
                batch.quote(
                    tx.zero_for_one, amount_specified, tx.sqrt_price_limit_x96
                )
                amount_in, amount_out = batch.trader_amounts()
                if tx.exact_input:
                    if tx.amount_limit is not None and amount_out < tx.amount_limit:
                        raise AMMError(
                            f"slippage: output {amount_out} < minimum "
                            f"{tx.amount_limit}"
                        )
                else:
                    if tx.amount_limit is not None and amount_in > tx.amount_limit:
                        raise AMMError(
                            f"slippage: input {amount_in} > maximum "
                            f"{tx.amount_limit}"
                        )
                balance = deposit_of(tx.user)
                in_index = 0 if tx.zero_for_one else 1
                if balance[in_index] < amount_in:
                    raise DepositError(
                        f"deposit {balance[in_index]} cannot cover swap input "
                        f"{amount_in}"
                    )
            except (AMMError, DepositError, PositionError) as exc:
                tx.reject_reason = str(exc)
                self.rejected_count += 1
                continue
            batch.accept()
            delta0, delta1 = -batch.amount0, -batch.amount1
            balance[0] += delta0
            balance[1] += delta1
            rec_tx.append(tx)
            rec_delta0.append(delta0)
            rec_delta1.append(delta1)
            rec_fee.append(batch.fee_paid)
            self.processed_count += 1
        if batch is not None:
            batch.commit()
        for idx, tx in enumerate(rec_tx):
            tx.effects = {
                "delta0": rec_delta0[idx],
                "delta1": rec_delta1[idx],
                "fee": rec_fee[idx],
            }
            accepted.append(tx)

    # -- mints ------------------------------------------------------------------------

    def _process_mint(self, tx: MintTx) -> None:
        if tx.amount0_desired < 0 or tx.amount1_desired < 0:
            raise AMMError("mint amounts must be non-negative")
        if tx.position_id is not None:
            # Adding to an existing position: its stored range applies and
            # the transaction's tick fields are ignored.
            record = self._owned_position(tx.position_id, tx.user)
            tick_lower, tick_upper = record.tick_lower, record.tick_upper
        else:
            record = None
            backend.check_tick_range(tx.tick_lower, tx.tick_upper)
            tick_lower, tick_upper = tx.tick_lower, tx.tick_upper

        sqrt_lower = backend.get_sqrt_ratio_at_tick(tick_lower)
        sqrt_upper = backend.get_sqrt_ratio_at_tick(tick_upper)
        liquidity = liquidity_math.get_liquidity_for_amounts(
            self.pool.sqrt_price_x96,
            sqrt_lower,
            sqrt_upper,
            tx.amount0_desired,
            tx.amount1_desired,
        )
        if liquidity <= 0:
            raise AMMError("mint amounts too small for any liquidity")
        amount0, amount1 = self._amounts_for_liquidity(
            sqrt_lower, sqrt_upper, liquidity
        )
        balance = self.deposit_of(tx.user)
        if balance[0] < amount0 or balance[1] < amount1:
            raise DepositError(
                f"deposit ({balance[0]}, {balance[1]}) cannot cover mint "
                f"({amount0}, {amount1})"
            )
        if record is None:
            position_id = self._new_position_id(tx)
            record = PositionRecord(
                position_id=position_id,
                owner=tx.user,
                tick_lower=tick_lower,
                tick_upper=tick_upper,
                liquidity=0,
            )
            self.positions[position_id] = record
        liquidity_before = record.liquidity
        actual0, actual1 = self.pool.mint(
            record.position_id, tick_lower, tick_upper, liquidity
        )
        balance[0] -= actual0
        balance[1] -= actual1
        record.liquidity += liquidity
        tx.effects = {
            "position_id": record.position_id,
            "owner": record.owner,
            "tick_lower": tick_lower,
            "tick_upper": tick_upper,
            "liquidity_delta": liquidity,
            "liquidity_before": liquidity_before,
            "amount0": actual0,
            "amount1": actual1,
        }

    # -- burns ------------------------------------------------------------------------

    def _process_burn(self, tx: BurnTx) -> None:
        record = self._owned_position(tx.position_id, tx.user)
        liquidity = record.liquidity if tx.liquidity is None else tx.liquidity
        if liquidity <= 0 or liquidity > record.liquidity:
            raise AMMError(
                f"burn liquidity {liquidity} invalid for position holding "
                f"{record.liquidity}"
            )
        liquidity_before = record.liquidity
        principal0, principal1 = self.pool.burn(
            record.position_id, record.tick_lower, record.tick_upper, liquidity
        )
        # Move the principal out immediately; fees stay owed until a
        # collect (or the final payout of a fully withdrawn position).
        self.pool.collect(
            record.position_id,
            record.tick_lower,
            record.tick_upper,
            principal0,
            principal1,
        )
        record.liquidity -= liquidity
        amount0, amount1 = principal0, principal1
        deleted = record.liquidity == 0
        fees0 = fees1 = 0
        if deleted:
            # "If a deleted position has fees owed to it, the owner LP will
            # receive these fees as part of her total payout."
            fees0, fees1 = self._owed_fees(record)
            if fees0 or fees1:
                self.pool.collect(
                    record.position_id,
                    record.tick_lower,
                    record.tick_upper,
                    fees0,
                    fees1,
                )
            amount0 += fees0
            amount1 += fees1
            del self.positions[record.position_id]
        balance = self.deposit_of(tx.user)
        balance[0] += amount0
        balance[1] += amount1
        remaining0, remaining1 = (0, 0) if deleted else self._owed_fees(record)
        tx.effects = {
            "position_id": record.position_id,
            "owner": record.owner,
            "tick_lower": record.tick_lower,
            "tick_upper": record.tick_upper,
            "liquidity_delta": liquidity,
            "liquidity_before": liquidity_before,
            "amount0": amount0,
            "amount1": amount1,
            "deleted": deleted,
            "fees_owed0": remaining0,
            "fees_owed1": remaining1,
        }

    # -- collects ----------------------------------------------------------------------

    def _process_collect(self, tx: CollectTx) -> None:
        record = self._owned_position(tx.position_id, tx.user)
        if record.liquidity > 0:
            self.pool.poke(record.position_id, record.tick_lower, record.tick_upper)
        owed0, owed1 = self._owed_fees(record)
        want0 = owed0 if tx.amount0 is None else min(tx.amount0, owed0)
        want1 = owed1 if tx.amount1 is None else min(tx.amount1, owed1)
        if want0 < 0 or want1 < 0:
            raise AMMError("collect amounts must be non-negative")
        got0, got1 = self.pool.collect(
            record.position_id, record.tick_lower, record.tick_upper, want0, want1
        )
        balance = self.deposit_of(tx.user)
        balance[0] += got0
        balance[1] += got1
        remaining0, remaining1 = self._owed_fees(record)
        tx.effects = {
            "position_id": record.position_id,
            "owner": record.owner,
            "tick_lower": record.tick_lower,
            "tick_upper": record.tick_upper,
            "liquidity_delta": 0,
            "liquidity_before": record.liquidity,
            "amount0": got0,
            "amount1": got1,
            "fees_owed0": remaining0,
            "fees_owed1": remaining1,
        }

    # -- helpers ----------------------------------------------------------------------

    def _owned_position(self, position_id: str, user: str) -> PositionRecord:
        record = self.positions.get(position_id)
        if record is None:
            raise PositionError(f"no position {position_id}")
        if record.owner != user:
            raise PositionError(
                f"{user} does not own position {position_id} (owner {record.owner})"
            )
        return record

    def _owed_fees(self, record: PositionRecord) -> tuple[int, int]:
        info = self.pool.position(
            record.position_id, record.tick_lower, record.tick_upper
        )
        if info is None:
            return 0, 0
        return info.tokens_owed0, info.tokens_owed1

    def _amounts_for_liquidity(
        self, sqrt_lower: int, sqrt_upper: int, liquidity: int
    ) -> tuple[int, int]:
        """Token amounts the pool will charge for minting ``liquidity``."""
        price = self.pool.sqrt_price_x96
        if price < sqrt_lower:
            amount0 = backend.get_amount0_delta_signed(
                sqrt_lower, sqrt_upper, liquidity
            )
            amount1 = 0
        elif price < sqrt_upper:
            amount0 = backend.get_amount0_delta_signed(
                price, sqrt_upper, liquidity
            )
            amount1 = backend.get_amount1_delta_signed(
                sqrt_lower, price, liquidity
            )
        else:
            amount0 = 0
            amount1 = backend.get_amount1_delta_signed(
                sqrt_lower, sqrt_upper, liquidity
            )
        return amount0, amount1

    @staticmethod
    def _new_position_id(tx: MintTx) -> str:
        """Position id = hash of the mint transaction and the LP's key."""
        return keccak256(b"position", tx.tx_id, tx.user).hex()[:32]
