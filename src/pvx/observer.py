"""Observability semantics, regulator reporting, adversarial linkability
attacks, and the desiderata matrix.

Observer classes project committed transactions onto what that class may
legitimately see: transparent legs are cleartext for everyone, shielded
legs expose only existence, validity, ring composition, key images and
commitments.  Nothing short of a participant's own secrets opens an
amount.
"""

from __future__ import annotations

import bisect
import math
import random
import zlib
from dataclasses import dataclass, field

from .group import GroupParams, tagged_prefix
from .ledger import Transaction, TxKind, transaction_digest
from .policy import EntityKind, Mode
from .ringsig import ring_sign
from .entityreg import Registry


@dataclass(frozen=True)
class Observer:
    kind: str                 # regulator | institution | public | adversary
    party: str | None = None  # node id or heuristic id for the variants

    @classmethod
    def regulator(cls) -> "Observer":
        return cls("regulator")

    @classmethod
    def institution(cls, node_id: str) -> "Observer":
        return cls("institution", node_id)

    @classmethod
    def public(cls) -> "Observer":
        return cls("public")

    @classmethod
    def adversary(cls, heuristic: str) -> "Observer":
        return cls("adversary", heuristic)


@dataclass(frozen=True)
class VisibleRecord:
    tx_id: str
    height: int
    kind: str
    fields: dict


def _transparent_fields(tx: Transaction) -> dict:
    return {
        "inputs": [{"account": ti.account_id, "amount": ti.amount}
                   for ti in tx.tin],
        "outputs": [{"account": to.account_id, "amount": to.amount,
                     "owner": to.owner_id} for to in tx.tout],
        "fee": tx.fee,
        "sponsor": tx.sponsor_id,
    }


def _shielded_fields(group: GroupParams, tx: Transaction) -> dict:
    return {
        "shielded_inputs": [{
            "ring": list(si.ring_refs),
            "key_image": group.element_to_bytes(si.signature.key_image).hex(),
            "pseudo_commitment":
                group.element_to_bytes(si.pseudo_commitment).hex(),
        } for si in tx.sin],
        "shielded_outputs": [{
            "onetime_address": group.element_to_bytes(so.onetime_address).hex(),
            "ephemeral": group.element_to_bytes(so.ephemeral_public).hex(),
            "commitment": group.element_to_bytes(so.commitment).hex(),
            "range_valid": True,  # committed ledger: re-verified on request
        } for so in tx.sout],
        "credential_serials": [c.serial for c in tx.credentials],
    }


def view(group: GroupParams, chain, registry: Registry,
         observer: Observer) -> list[VisibleRecord]:
    """Project the committed chain onto an observer class."""
    records = []
    for block in chain:
        for tx in block.txs:
            fields = _transparent_fields(tx)
            fields.update(_shielded_fields(group, tx))
            if observer.kind == "regulator":
                fields["entities"] = _account_owners(registry, tx)
            elif observer.kind == "institution":
                fields["entities"] = {
                    acct: owner
                    for acct, owner in _account_owners(registry, tx).items()
                    if _institution_of(registry, acct) == observer.party}
            records.append(VisibleRecord(
                transaction_digest(group, tx).hex(), block.height,
                tx.kind.value, fields))
    return records


def _account_owners(registry: Registry, tx: Transaction) -> dict:
    owners = {}
    for leg in (*tx.tin, *tx.tout):
        acct = registry.accounts.get(leg.account_id)
        if acct is not None:
            owners[leg.account_id] = acct.owner_id
    return owners


def _institution_of(registry: Registry, account_id: str) -> str | None:
    acct = registry.accounts.get(account_id)
    return None if acct is None else acct.institution_id


def institution_shares(registry: Registry, chain) -> dict[str, float]:
    """Per-institution share of committed transactions touching one of its
    accounts.  Reported raw: the dispersion question has no fixed target."""
    touches: dict[str, int] = {}
    total = 0
    for block in chain:
        for tx in block.txs:
            total += 1
            seen = set()
            for leg in (*tx.tin, *tx.tout):
                inst = _institution_of(registry, leg.account_id)
                if inst is not None:
                    seen.add(inst)
            for inst in seen:
                touches[inst] = touches.get(inst, 0) + 1
    if total == 0:
        return {}
    return {inst: count / total for inst, count in sorted(touches.items())}


# ---------------------------------------------------------------------------
# tax reporting


@dataclass(frozen=True)
class TaxItem:
    height: int
    tx_id: str
    account_id: str
    amount: int


@dataclass(frozen=True)
class TaxReport:
    entity_id: str
    from_height: int
    to_height: int
    items: tuple[TaxItem, ...]
    total: int


def tax_report(group: GroupParams, chain, registry: Registry, entity_id: str,
               period: tuple[int, int]) -> TaxReport:
    """Itemized transparent inflows to a registered business's accounts
    in blocks `period` = (from height, to height), both inclusive.

    Issuance is monetary supply, not income, and transfers between the
    entity's own accounts do not count as inflows.
    """
    entity = registry.entity(entity_id)
    if entity.kind is not EntityKind.REGISTERED_BUSINESS:
        raise ValueError(f"{entity_id!r} is not a registered business")
    lo, hi = period
    own_accounts = set(registry.accounts_of(entity_id))
    items = []
    for block in chain:
        if not lo <= block.height <= hi:
            continue
        for tx in block.txs:
            if tx.kind is TxKind.ISSUE:
                continue
            if any(ti.account_id in own_accounts for ti in tx.tin):
                continue
            for to in tx.tout:
                if to.account_id in own_accounts:
                    items.append(TaxItem(block.height,
                                         transaction_digest(group, tx).hex(),
                                         to.account_id, to.amount))
    return TaxReport(entity_id, lo, hi, tuple(items),
                     sum(i.amount for i in items))


# ---------------------------------------------------------------------------
# linkability attacks


CORPUS_CHURN = 2  # outputs minted per spend in a synthetic corpus


@dataclass(frozen=True, slots=True)
class SpendRecord:
    ring_ids: tuple[int, ...]  # ascending ledger ids == creation order
    true_position: int         # ground truth, harness only
    key_image: int


@dataclass(frozen=True)
class SpendCorpus:
    ring_size: int
    seed: int
    spends: tuple[SpendRecord, ...]


@dataclass(frozen=True)
class LinkAttackStats:
    heuristic: str
    trials: int
    correct: int
    accuracy: float
    baseline: float
    z_score: float


def make_spend_corpus(group: GroupParams, trials: int, ring_size: int,
                      sampler, seed: int) -> SpendCorpus:
    """Synthesize a spend history: a growing output population, true spends
    uniform over the unspent pool, sampler-chosen decoys drawn from that
    same pool, and real one-time keys with real ring signatures at each
    spend.  Each spend mints `CORPUS_CHURN` new outputs.

    True pick and decoys share one candidate pool, so under the uniform
    sampler every ring member is exchangeable and all position heuristics
    sit at the 1/ring-size baseline; a skewed sampler breaks the symmetry.
    """
    rng = random.Random(seed)
    secrets: list[int] = []  # by output id
    publics: list[int] = []  # G^secret, computed once at mint
    unspent: list[int] = []  # ascending ids == ascending age

    minted = tagged_prefix("pvx/corpus", seed.to_bytes(8, "big"))

    def mint(count: int) -> None:
        for _ in range(count):
            oid = len(secrets)
            secret = group.nonzero_scalar_at(minted, oid.to_bytes(8, "big"))
            secrets.append(secret)
            publics.append(group.power(group.g, secret))
            unspent.append(oid)

    mint(max(ring_size * 50, 500))
    spends = []
    for trial in range(trials):
        true_id = unspent[rng.randrange(len(unspent))]
        decoys = sampler.sample(unspent, true_id, ring_size, rng)
        ring_ids = tuple(sorted(decoys + [true_id]))
        true_pos = ring_ids.index(true_id)
        ring_pubs = [publics[oid] for oid in ring_ids]
        sig = ring_sign(group, trial.to_bytes(8, "big"), ring_pubs,
                        true_pos, secrets[true_id])
        spends.append(SpendRecord(ring_ids, true_pos, sig.key_image))
        del unspent[bisect.bisect_left(unspent, true_id)]
        mint(CORPUS_CHURN)
    return SpendCorpus(ring_size, seed, tuple(spends))


def _guess_uniform(corpus: SpendCorpus, rng: random.Random) -> list[int]:
    return [rng.randrange(len(s.ring_ids)) for s in corpus.spends]


def _guess_newest(corpus: SpendCorpus, rng: random.Random) -> list[int]:
    # ring ids ascend, so the newest member sits at the last slot
    return [len(s.ring_ids) - 1 for s in corpus.spends]


def _guess_key_image_graph(corpus: SpendCorpus, rng: random.Random) -> list[int]:
    """Iterated elimination: rings reduced to a single candidate pin their
    member as spent; spent members vanish from other rings unless that
    would empty them; repeat until a pass changes nothing, then guess
    uniformly among survivors.

    Each ring's candidates are its own ascending `ring_ids`, replaced by a
    shorter tuple when a pass drops pinned members."""
    candidates = [s.ring_ids for s in corpus.spends]
    spent: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, cand in enumerate(candidates):
            if len(cand) == 1:
                if cand[0] not in spent:
                    spent.add(cand[0])
                    changed = True
            elif not spent.isdisjoint(cand):
                kept = tuple(m for m in cand if m not in spent)
                if kept:
                    candidates[i] = kept
                    changed = True
    guesses = []
    for s, cand in zip(corpus.spends, candidates):
        pick = cand[rng.randrange(len(cand))]
        guesses.append(s.ring_ids.index(pick))
    return guesses


HEURISTICS = {
    "uniform-guess": _guess_uniform,
    "newest-member": _guess_newest,
    "key-image-graph": _guess_key_image_graph,
}


def run_link_attack(corpus: SpendCorpus, heuristic: str,
                    seed: int = 0) -> LinkAttackStats:
    try:
        guesser = HEURISTICS[heuristic]
    except KeyError:
        raise ValueError(f"unknown heuristic {heuristic!r}") from None
    # crc32, not hash(): str hashes are salted per process
    salt = zlib.crc32(heuristic.encode()) % (1 << 30)
    rng = random.Random((seed << 16) ^ corpus.seed ^ salt)
    guesses = guesser(corpus, rng)
    correct = sum(1 for g, s in zip(guesses, corpus.spends)
                  if g == s.true_position)
    trials = len(corpus.spends)
    baseline = 1.0 / corpus.ring_size
    accuracy = correct / trials if trials else 0.0
    sigma = math.sqrt(baseline * (1 - baseline) / trials) if trials else 0.0
    if sigma == 0.0:  # ring size 1 (or empty corpus): no variance under H0
        z = 0.0 if accuracy == baseline else math.inf
    else:
        z = (accuracy - baseline) / sigma
    return LinkAttackStats(heuristic, trials, correct, accuracy, baseline, z)


# ---------------------------------------------------------------------------
# desiderata matrix

DESIDERATA_ROWS = (
    "Robust to cyberattacks",
    "Usable without registration",
    "Unlinkable transactions",
    "Electronic transactions",
    "Suitable for taxation",
    "Can block some illicit uses",
    "Can be denominated in units of fiat currency",
)

STATIC = "static-by-construction"
MEASURED = "measured-by-probe"


@dataclass(frozen=True)
class DesideratumRow:
    name: str
    verdict: str      # full | partial | none | unmeasured
    provenance: str   # static-by-construction | measured-by-probe


@dataclass(frozen=True)
class DesiderataMatrix:
    mode: str
    rows: tuple[DesideratumRow, ...]

    def verdicts(self) -> dict[str, str]:
        return {r.name: r.verdict for r in self.rows}

    def to_dict(self) -> dict:
        return {"mode": self.mode,
                "rows": [{"name": r.name, "verdict": r.verdict,
                          "provenance": r.provenance} for r in self.rows]}


@dataclass
class ScenarioProbes:
    """What a finished scenario run measured, for the desiderata rows that
    are probe-driven rather than structural."""
    attack_stats: list[LinkAttackStats] = field(default_factory=list)
    tax_consistent: bool | None = None
    illicit_blocked: bool | None = None   # every probed route to a flagged
    illicit_leaked: bool | None = None    # recipient denied / any succeeded
    accountless_transacted: bool | None = None
    credentialless: bool | None = None    # the accountless actor also held no credential


def desiderata_report(mode: Mode, probes: ScenarioProbes) -> DesiderataMatrix:
    rows = []
    rows.append(DesideratumRow(DESIDERATA_ROWS[0], "none", STATIC))

    if probes.accountless_transacted is None:
        registration = "unmeasured"
    elif probes.accountless_transacted and (probes.credentialless or False):
        registration = "full"
    else:
        registration = "none"
    rows.append(DesideratumRow(DESIDERATA_ROWS[1], registration, MEASURED))

    if not probes.attack_stats:
        unlink = "unmeasured"
    elif all(abs(s.z_score) <= 3.0 for s in probes.attack_stats):
        unlink = "full"
    elif any(s.z_score > 5.0 for s in probes.attack_stats):
        unlink = "none"
    else:
        unlink = "partial"
    rows.append(DesideratumRow(DESIDERATA_ROWS[2], unlink, MEASURED))

    rows.append(DesideratumRow(DESIDERATA_ROWS[3], "full", STATIC))

    if probes.tax_consistent is None:
        tax = "unmeasured"
    else:
        tax = "full" if probes.tax_consistent else "none"
    rows.append(DesideratumRow(DESIDERATA_ROWS[4], tax, MEASURED))

    if probes.illicit_leaked:
        illicit = "none"
    elif probes.illicit_blocked:
        illicit = "full"
    else:
        illicit = "unmeasured"
    rows.append(DesideratumRow(DESIDERATA_ROWS[5], illicit, MEASURED))

    fiat = "full" if mode is Mode.MEDIATED else "none"
    rows.append(DesideratumRow(DESIDERATA_ROWS[6], fiat, STATIC))
    return DesiderataMatrix(mode.value, tuple(rows))
