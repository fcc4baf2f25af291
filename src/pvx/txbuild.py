"""Client-side transaction construction: wallets holding shielded notes,
pluggable decoy samplers, and builders for every transaction kind.

Builders are deterministic given their scalar stream and sampler RNG, and
produce transactions that pass `validate_transaction` under the same
policy mode.  Shielded spends always add a change output back to the payer
(possibly zero-valued) so output counts stay uniform.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .group import GroupParams, tagged_hash, tagged_prefix
from .ledger import (
    LedgerState,
    ShieldedInput,
    ShieldedOutput,
    Transaction,
    TransparentInput,
    TransparentOutput,
    TxKind,
    ring_rows,
    sign_excess,
    transaction_digest,
)
from .pedersen import commit
from .rangeproof import prove_range
from .ringsig import dual_ring_sign
from .stealth import StealthKeypair, derive_stealth_keypair, make_onetime_output


class BuildError(ValueError):
    """The intent cannot be turned into a valid transaction."""


class ScalarStream:
    """Deterministic stream of nonzero scalars (ephemerals, pseudo blindings)."""

    def __init__(self, group: GroupParams, seed: bytes):
        self.group = group
        self.prefix = tagged_prefix("pvx/stream", seed)
        self.counter = 0

    def next(self) -> int:
        self.counter += 1
        return self.group.nonzero_scalar_at(
            self.prefix, self.counter.to_bytes(8, "big"))


@dataclass
class WalletNote:
    output_id: int
    onetime_address: int
    value: int
    blinding: int
    spend_secret: int


@dataclass
class Wallet:
    """Holds an entity's stealth keypair and its unspent shielded notes."""

    entity_id: str
    keypair: StealthKeypair
    notes: list[WalletNote] = field(default_factory=list)

    @classmethod
    def create(cls, group: GroupParams, entity_id: str, seed: bytes) -> "Wallet":
        return cls(entity_id, derive_stealth_keypair(
            group, tagged_hash("pvx/wallet", seed, entity_id.encode("utf-8"))))

    @property
    def address(self) -> tuple[int, int]:
        return self.keypair.address

    def add_note(self, note: WalletNote) -> None:
        self.notes.append(note)
        self.notes.sort(key=lambda n: n.output_id)

    def remove_notes(self, output_ids: set[int]) -> None:
        self.notes = [n for n in self.notes if n.output_id not in output_ids]

    def select_notes(self, target: int, exclude: set[int]) -> list[WalletNote]:
        """Oldest-first minimal prefix covering the target.

        Keeps the change below the largest single note, so change outputs
        never outgrow the range-proof width as long as note values stay
        inside it.  `exclude` skips notes already earmarked by another leg
        of the same transaction.
        """
        chosen: list[WalletNote] = []
        total = 0
        for note in self.notes:
            if note.output_id in exclude:
                continue
            if total >= target:
                break
            chosen.append(note)
            total += note.value
        if total < target:
            raise BuildError(
                f"insufficient shielded funds: have {total}, need {target}")
        return chosen


# ---------------------------------------------------------------------------
# decoy samplers


def _check_population(population: Sequence[int], true_id: int,
                      ring_size: int) -> None:
    """Raise unless `population`, less `true_id`, holds ring_size - 1
    decoys.  `population` must ascend, so membership is a binary search:
    a linear scan would make a corpus of growing pools quadratic."""
    i = bisect_left(population, true_id)
    inside = i < len(population) and population[i] == true_id
    if len(population) - inside < ring_size - 1:
        raise BuildError("ring population smaller than requested ring size")


class UniformSampler:
    """Every candidate output is an equally likely decoy.

    `population` must be ascending by output id (creation order); the size
    check relies on it."""

    name = "uniform"

    def sample(self, population: Sequence[int], true_id: int, ring_size: int,
               rng: random.Random) -> list[int]:
        _check_population(population, true_id, ring_size)
        chosen: list[int] = []
        taken = {true_id}
        while len(chosen) < ring_size - 1:
            pick = population[rng.randrange(len(population))]
            if pick not in taken:
                taken.add(pick)
                chosen.append(pick)
        return chosen


class AgeBiasedSampler:
    """Prefers old outputs, mimicking flawed mixing where decoy selection
    probability is skewed across the anonymity set while real spends are
    not.  Index drawn by inverse transform of weight (n - i)^exponent over
    the ascending-by-age population, so draws are O(1).

    `population` must be ascending by output id (creation order): the
    weights read it as age order and the size check relies on it."""

    name = "age-biased"
    exponent = 2.0

    def sample(self, population: Sequence[int], true_id: int, ring_size: int,
               rng: random.Random) -> list[int]:
        _check_population(population, true_id, ring_size)
        n = len(population)
        chosen: list[int] = []
        taken = {true_id}
        while len(chosen) < ring_size - 1:
            # t in (0,1] with density t^e picks the age quantile from old
            t = rng.random() ** (1.0 / (self.exponent + 1.0))
            idx = min(n - 1, int(n * (1.0 - t)))
            pick = population[idx]
            if pick not in taken:
                taken.add(pick)
                chosen.append(pick)
        return chosen


SAMPLERS = {"uniform": UniformSampler, "age-biased": AgeBiasedSampler}

# Largest ring a scenario or `pvx attack` may ask for.  The shipped scenarios
# and the benchmark use at most 11; a link-attack corpus mints 50 outputs
# per ring member, so the bound also caps its memory.
MAX_RING_SIZE = 64


def make_sampler(name: str):
    try:
        return SAMPLERS[name]()
    except KeyError:
        raise ValueError(f"unknown decoy sampler {name!r}") from None


# ---------------------------------------------------------------------------
# build results


@dataclass(frozen=True)
class CreatedNote:
    """Opening of a shielded output the builder just made, to be delivered
    to the recipient's wallet once the transaction commits."""
    recipient_id: str
    value: int
    blinding: int
    onetime_address: int
    ephemeral_public: int


@dataclass(frozen=True)
class BuildResult:
    tx: Transaction
    created: tuple[CreatedNote, ...]
    consumed: tuple[int, ...]  # payer note output ids, per wallet bookkeeping


def _make_note(group: GroupParams, recipient_id: str,
               address: tuple[int, int], value: int, range_bits: int,
               stream: ScalarStream) -> tuple[ShieldedOutput, CreatedNote]:
    if not 0 <= value < 1 << range_bits:
        raise BuildError(f"shielded output {value} outside the "
                         f"{range_bits}-bit range proof")
    keys = make_onetime_output(group, address, stream.next())
    blinding = keys.shared_blinding
    out = ShieldedOutput(
        keys.onetime_address, keys.ephemeral_public,
        commit(group, value, blinding),
        prove_range(group, value, blinding, range_bits))
    note = CreatedNote(recipient_id, value, blinding,
                       keys.onetime_address, keys.ephemeral_public)
    return out, note


@dataclass(frozen=True)
class _SpendPlan:
    note: WalletNote
    pseudo_blinding: int
    ring_refs: tuple[int, ...]
    true_index: int


def _plan_spends(state: LedgerState, notes: list[WalletNote], sampler,
                 ring_size: int, rng: random.Random,
                 stream: ScalarStream) -> list[_SpendPlan]:
    population = range(len(state.outputs))
    plans = []
    for note in notes:
        decoys = sampler.sample(population, note.output_id, ring_size, rng)
        refs = tuple(sorted(decoys + [note.output_id]))
        plans.append(_SpendPlan(note, stream.next(), refs,
                                refs.index(note.output_id)))
    return plans


def build_transparent_transfer(group: GroupParams, from_account: str,
                               to_account: str, to_owner: str, amount: int,
                               fee: int = 0) -> BuildResult:
    if amount <= 0:
        raise BuildError("amount must be positive")
    tx = Transaction(
        TxKind.TRANSPARENT_TRANSFER,
        tin=(TransparentInput(from_account, amount + fee),),
        tout=(TransparentOutput(to_account, amount, to_owner),),
        fee=fee)
    digest = transaction_digest(group, tx)
    tx = replace(tx, excess=sign_excess(group, 0, digest))
    return BuildResult(tx, (), ())


def build_issue(authority_id: str, to_account: str, to_owner: str,
                amount: int) -> BuildResult:
    if amount <= 0:
        raise BuildError("amount must be positive")
    tx = Transaction(
        TxKind.ISSUE,
        tout=(TransparentOutput(to_account, amount, to_owner),),
        sponsor_id=authority_id)
    return BuildResult(tx, (), ())


def build_shield(group: GroupParams, state: LedgerState, wallet: Wallet,
                 from_account: str, amount: int, stream: ScalarStream,
                 fee: int = 0) -> BuildResult:
    if amount <= 0:
        raise BuildError("amount must be positive")
    if state.balances.get(from_account, 0) < amount + fee:
        raise BuildError("insufficient account balance")
    out, note = _make_note(group, wallet.entity_id, wallet.address, amount,
                           state.range_bits, stream)
    tx = Transaction(
        TxKind.SHIELD,
        tin=(TransparentInput(from_account, amount + fee),),
        sout=(out,), fee=fee)
    digest = transaction_digest(group, tx)
    z = (0 - note.blinding) % group.q
    tx = replace(tx, excess=sign_excess(group, z, digest))
    return BuildResult(tx, (note,), ())


@dataclass(frozen=True)
class MediatedLeg:
    payer_wallet: Wallet
    payee_id: str
    payee_address: tuple[int, int] | None  # None: paid by a transparent output
    amount: int


def _spend_legs(group: GroupParams, state: LedgerState, kind: TxKind,
                legs: list[MediatedLeg], ring_size: int, sampler,
                rng: random.Random, stream: ScalarStream, fee: int,
                tout=(), credentials=(),
                credential_pools: dict[str, list] | None = None,
                sponsor_id: str | None = None) -> BuildResult:
    """Common path for every shielded spend: per leg, select the payer's
    notes, ring them, pay the payee and add the payer's change note; then
    sign everything over the digest.  The fee is split across legs,
    remainder on the first.  When credential pools are given, one
    credential per spent note is drawn from the payer's pool."""
    fee_shares = [fee // len(legs)] * len(legs)
    fee_shares[0] += fee - sum(fee_shares)

    plans, souts, created, consumed = [], [], [], []
    creds = list(credentials)
    pool_cursor: dict[str, int] = {}
    for leg, share in zip(legs, fee_shares):
        if leg.amount <= 0:
            raise BuildError("amount must be positive")
        payer = leg.payer_wallet
        notes = payer.select_notes(leg.amount + share, exclude=set(consumed))
        change = sum(n.value for n in notes) - leg.amount - share
        leg_plans = _plan_spends(state, notes, sampler, ring_size, rng, stream)
        if credential_pools is not None:
            pool = credential_pools.get(payer.entity_id, [])
            start = pool_cursor.get(payer.entity_id, 0)
            if len(pool) - start < len(leg_plans):
                raise BuildError("each spent note needs a credential")
            creds.extend(pool[start:start + len(leg_plans)])
            pool_cursor[payer.entity_id] = start + len(leg_plans)
        plans.extend(leg_plans)
        consumed.extend(n.output_id for n in notes)

        payments = [(payer.entity_id, payer.address, change)]
        if leg.payee_address is not None:
            payments.insert(0, (leg.payee_id, leg.payee_address, leg.amount))
        for recipient_id, address, value in payments:
            out, note = _make_note(group, recipient_id, address, value,
                                   state.range_bits, stream)
            souts.append(out)
            created.append(note)

    # the digest never covers signatures: draft inputs carry none
    drafts = tuple(
        ShieldedInput(plan.ring_refs,
                      commit(group, plan.note.value, plan.pseudo_blinding),
                      None)
        for plan in plans)
    tx = Transaction(kind, tout=tuple(tout), sin=drafts, sout=tuple(souts),
                     fee=fee, credentials=tuple(creds), sponsor_id=sponsor_id)
    digest = transaction_digest(group, tx)
    signed = []
    for si, plan in zip(drafts, plans):
        rows = ring_rows(state, si.ring_refs, si.pseudo_commitment)
        offset_secret = (plan.note.blinding - plan.pseudo_blinding) % group.q
        signed.append(replace(si, signature=dual_ring_sign(
            group, digest, rows, plan.true_index, plan.note.spend_secret,
            offset_secret)))
    z = (sum(p.pseudo_blinding for p in plans)
         - sum(n.blinding for n in created)) % group.q
    tx = replace(tx, sin=tuple(signed), excess=sign_excess(group, z, digest))
    return BuildResult(tx, tuple(created), tuple(consumed))


def build_unshield(group: GroupParams, state: LedgerState, wallet: Wallet,
                   to_account: str, to_owner: str, amount: int,
                   ring_size: int, sampler, rng: random.Random,
                   stream: ScalarStream, fee: int = 0,
                   credentials: tuple = ()) -> BuildResult:
    return _spend_legs(
        group, state, TxKind.UNSHIELD,
        [MediatedLeg(wallet, to_owner, None, amount)], ring_size, sampler,
        rng, stream, fee,
        tout=[TransparentOutput(to_account, amount, to_owner)],
        credentials=credentials)


def build_shielded_transfer(group: GroupParams, state: LedgerState,
                            wallet: Wallet, recipient_id: str,
                            recipient_address: tuple[int, int], amount: int,
                            ring_size: int, sampler, rng: random.Random,
                            stream: ScalarStream, fee: int = 0) -> BuildResult:
    return _spend_legs(
        group, state, TxKind.SHIELDED_TRANSFER,
        [MediatedLeg(wallet, recipient_id, recipient_address, amount)],
        ring_size, sampler, rng, stream, fee)


def build_mediated_batch(group: GroupParams, state: LedgerState,
                         intermediary_id: str, legs: list[MediatedLeg],
                         ring_size: int, sampler, rng: random.Random,
                         stream: ScalarStream, fee: int = 0,
                         credential_pools: dict[str, list] | None = None) -> BuildResult:
    """Intermediary-posted swap: every leg's payer ring-signs its inputs,
    outputs pay the payees plus per-payer change.  When credential pools
    are given (mediated mode), one credential is attached per shielded
    input, drawn from the spending payer's pool."""
    if len(legs) < 2:
        raise BuildError("a mediated batch swaps value between at least two legs")
    return _spend_legs(group, state, TxKind.MEDIATED_BATCH, legs, ring_size,
                       sampler, rng, stream, fee,
                       credential_pools=credential_pools,
                       sponsor_id=intermediary_id)
