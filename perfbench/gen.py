"""Benchmark inputs, generated from a seed with the benchmark's own
bookkeeping.

Each generator returns a scenario document (the JSON the program parses)
together with a `Book`: the balances, issued supply, fees and wallet notes
the scenario must end with if the program is correct.  The bookkeeping
mirrors the documented wallet rules (oldest-first minimal note selection, a
change note back to the payer on every shielded spend, one credential per
spent note in mediated batches), so the checks do not depend on the
program's own output.

Nothing here imports `pvx`: the generator must stay fixed while the program
changes under it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PEOPLE = ("alice", "bob", "carol")
GENESIS = {"acme.acct": 6000, "alice.acct": 4000, "bob.acct": 4000,
           "carol.acct": 4000}
ENTITIES = [
    {"id": "bank", "kind": "RegulatedInstitution"},
    {"id": "cb", "kind": "CentralBank"},
    {"id": "acme", "kind": "RegisteredBusiness",
     "accounts": [{"id": "acme.acct", "institution": "bank"}]},
    {"id": "mix", "kind": "Intermediary", "issuer": True},
] + [{"id": p, "kind": "Individual",
      "accounts": [{"id": f"{p}.acct", "institution": "bank"}]}
     for p in PEOPLE]

RANGE_BITS = 12
MAX_RING = 3
MEDIATION_FEE = 2

# federation_lossy runs on this network seed; see README "Seeds".
FEDERATION_NET_SEED = 7
FEDERATION_FAULTS = {"node2": ["mute@1500000..2500000"]}


class GeneratorError(RuntimeError):
    """The generator could not place a step it is required to place."""


@dataclass
class Book:
    """What the ledger and the wallets must hold after the scenario."""
    balances: dict[str, int] = field(default_factory=lambda: dict(GENESIS))
    notes: dict[str, list[int]] = field(
        default_factory=lambda: {p: [] for p in PEOPLE})
    creds: dict[str, int] = field(default_factory=lambda: {p: 0 for p in PEOPLE})
    outputs: int = 0          # shielded outputs created so far
    issued: int = sum(GENESIS.values())
    fees: int = 0
    txs: int = 0              # steps that commit a transaction
    spends: int = 0           # shielded inputs (ring-signed spends)

    def note_total(self, person: str) -> int:
        return sum(self.notes[person])


def _select(values: list[int], target: int) -> int | None:
    """Number of oldest notes the wallet spends to cover `target`."""
    total = 0
    for count, value in enumerate(values):
        if total >= target:
            return count
        total += value
    return len(values) if total >= target else None


def _spend(book: Book, payer: str, target: int) -> tuple[int, int]:
    """Consume the payer's notes for `target`; returns (notes, change)."""
    count = _select(book.notes[payer], target)
    change = sum(book.notes[payer][:count]) - target
    book.notes[payer] = book.notes[payer][count:]
    book.spends += count
    return count, change


class _Plan:
    def __init__(self, rng: random.Random, mode: str):
        self.rng = rng
        self.mode = mode
        self.book = Book()
        self.steps: list[dict] = []
        # transparent transactions carry no nonce, so a repeat of an earlier
        # transfer or issue has its digest and is never applied (CHANGES.md,
        # FOUND); the generator does not repeat one
        self.transparent: set[tuple] = set()

    def _fresh(self, key: tuple, amount: int, low: int, high: int) -> int:
        """`amount`, moved within [low, high] until (key, amount) is new."""
        for _ in range(high - low + 1):
            if key + (amount,) not in self.transparent:
                break
            amount = low + (amount - low + 1) % (high - low + 1)
        else:
            raise GeneratorError(f"no fresh amount for {key}")
        self.transparent.add(key + (amount,))
        return amount

    # each op returns False when the book cannot support it right now

    def credential(self, holder: str, count: int) -> bool:
        self.steps.append({"op": "issue_credential", "issuer": "mix",
                           "holder": holder, "count": count,
                           "expect": {"outcome": "accept"}})
        self.book.creds[holder] += count
        return True

    def _tx(self, step: dict, outputs: int) -> None:
        step["expect"] = {"outcome": "accept"}
        self.steps.append(step)
        self.book.txs += 1
        self.book.outputs += outputs

    def transfer(self) -> bool:
        rng, bal = self.rng, self.book.balances
        sources = [a for a in sorted(bal) if bal[a] >= 3]
        if not sources:
            return False
        src = rng.choice(sources)
        dst = rng.choice([a for a in sorted(bal) if a != src])
        amount = rng.randint(1, min(400, bal[src] - 1))
        fee = rng.randint(0, 2) if bal[src] - amount > 2 else 0
        amount = self._fresh(("transfer", src, dst, fee), amount, 1,
                             min(400, bal[src] - 1 - fee))
        self._tx({"op": "transfer", "from": src, "to": dst, "amount": amount,
                  "fee": fee}, 0)
        bal[src] -= amount + fee
        bal[dst] += amount
        self.book.fees += fee
        return True

    def shield(self, person: str | None = None) -> bool:
        bal = self.book.balances
        people = [p for p in PEOPLE if bal[f"{p}.acct"] >= 10]
        if not people or person not in people + [None]:
            return False
        p = person or self.rng.choice(people)
        amount = self.rng.randint(5, min(500, bal[f"{p}.acct"] - 1))
        self._tx({"op": "shield", "entity": p, "account": f"{p}.acct",
                  "amount": amount}, 1)
        bal[f"{p}.acct"] -= amount
        self.book.notes[p].append(amount)
        return True

    def unshield(self) -> bool:
        book = self.book
        people = [p for p in PEOPLE if book.note_total(p) >= 5]
        if not people or book.outputs < MAX_RING:
            return False
        p = self.rng.choice(people)
        amount = self.rng.randint(1, min(300, book.note_total(p) - 1))
        dst = self.rng.choice(sorted(book.balances))
        self._tx({"op": "unshield", "entity": p, "to": dst, "amount": amount,
                  "ring_size": MAX_RING}, 1)
        _, change = _spend(book, p, amount)
        book.notes[p].append(change)
        book.balances[dst] += amount
        return True

    def shielded_transfer(self) -> bool:
        book = self.book
        payers = [p for p in PEOPLE if book.note_total(p) >= 6]
        if not payers or book.outputs < MAX_RING:
            return False
        payer = self.rng.choice(payers)
        payee = self.rng.choice([q for q in PEOPLE if q != payer])
        amount = self.rng.randint(1, min(200, book.note_total(payer) - 1))
        self._tx({"op": "shielded_transfer", "from": payer, "to": payee,
                  "amount": amount, "ring_size": MAX_RING}, 2)
        _, change = _spend(book, payer, amount)
        book.notes[payee].append(amount)
        book.notes[payer].append(change)
        return True

    def mediated(self) -> bool:
        """A two-leg swap A -> B, C -> A through the intermediary."""
        book, rng = self.book, self.rng
        if book.outputs < MAX_RING:
            return False
        share = MEDIATION_FEE // 2
        triples = [(a, b, c) for a in PEOPLE for b in PEOPLE for c in PEOPLE
                   if a != b and a != c]
        rng.shuffle(triples)
        for a, b, c in triples:
            if book.note_total(a) < 6 or book.note_total(c) < 6:
                continue
            amt1 = rng.randint(1, min(150, book.note_total(a) - 2))
            amt2 = rng.randint(1, min(150, book.note_total(c) - 2))
            need_a = _select(book.notes[a], amt1 + MEDIATION_FEE - share)
            need_c = _select(book.notes[c], amt2 + share)
            if self.mode == "mediated" and (
                    need_a > book.creds[a] or need_c > book.creds[c]):
                continue
            self._tx({"op": "mediated_exchange", "intermediary": "mix",
                      "legs": [{"payer": a, "payee": b, "amount": amt1},
                               {"payer": c, "payee": a, "amount": amt2}],
                      "ring_size": MAX_RING, "fee": MEDIATION_FEE}, 4)
            # outputs in creation order: pay B, change A, pay A, change C
            used_a, change_a = _spend(book, a, amt1 + MEDIATION_FEE - share)
            used_c, change_c = _spend(book, c, amt2 + share)
            for who, value in ((b, amt1), (a, change_a), (a, amt2),
                               (c, change_c)):
                book.notes[who].append(value)
            if self.mode == "mediated":
                book.creds[a] -= used_a
                book.creds[c] -= used_c
            book.fees += MEDIATION_FEE
            return True
        return False

    def issue(self) -> bool:
        dst = self.rng.choice(sorted(self.book.balances))
        amount = self._fresh(("issue", dst), self.rng.randint(50, 400), 50, 400)
        self._tx({"op": "issue", "authority": "cb", "to": dst,
                  "amount": amount}, 0)
        self.book.balances[dst] += amount
        self.book.issued += amount
        return True

    def document(self, name: str, consensus: dict) -> dict:
        return {
            "name": name, "mode": self.mode, "range_bits": RANGE_BITS,
            "consensus": consensus, "entities": ENTITIES,
            "ruleset": {"mediation_fee": 1},
            "genesis": [{"account": a, "amount": v}
                        for a, v in GENESIS.items()],
            "defaults": {"ring_size": MAX_RING, "sampler": "uniform"},
            "steps": self.steps,
        }


def conservation_scenario(rng: random.Random, mode: str,
                          steps: int = 50) -> tuple[dict, Book]:
    """Mixed-kind single-replica scenario.

    Op kinds are dealt from shuffled decks with fixed proportions, so every
    quarter of every scenario has about the same mix: step-time medians then
    do not jump between the modes of the per-kind step times from seed to
    seed.  A card that the books cannot support yet goes to the back of the
    deck.
    """
    plan = _Plan(rng, mode)
    if mode == "mediated":
        for p in PEOPLE:
            plan.credential(p, 8)
        kinds = ["transfer", "shield", "shield", "unshield", "mediated",
                 "issue", "transfer"]
    else:
        kinds = ["transfer", "shield", "shield", "unshield",
                 "shielded_transfer", "transfer"]
    deck: list[str] = []
    misses = 0
    while len(plan.steps) < steps:
        if misses >= len(deck):
            deck += rng.sample(kinds, len(kinds))
            misses = 0
        kind = deck.pop(0)
        if kind == "mediated" and min(plan.book.creds.values()) < 4:
            plan.credential(min(PEOPLE, key=plan.book.creds.get), 6)
        if getattr(plan, kind)():
            misses = 0
        else:
            deck.append(kind)
            misses += 1
    consensus = {"n": 1, "f": 0, "seed": rng.getrandbits(31)}
    return plan.document(f"bench-conservation-{mode}", consensus), plan.book


# federation_lossy repeats this cycle; the step kinds (and so the replicas'
# message schedule) are the same for every seed, only amounts and parties vary
FEDERATION_CYCLE = ("shield", "transfer", "mediated", "issue", "unshield",
                    "shield", "mediated", "credential")


def federation_scenario(rng: random.Random, steps: int = 200) -> tuple[dict, Book]:
    """Long mediated-mode scenario on 4 lossy replicas, with a fixed cycle of
    step kinds."""
    plan = _Plan(rng, "mediated")
    for p in PEOPLE:
        plan.credential(p, 12)
    for p in PEOPLE * 2:
        plan.shield(p)
    holder = 0
    while len(plan.steps) < steps:
        for kind in FEDERATION_CYCLE:
            if len(plan.steps) >= steps:
                break
            if kind == "credential":
                plan.credential(PEOPLE[holder % len(PEOPLE)], 9)
                holder += 1
            elif not getattr(plan, kind)():
                raise GeneratorError(f"cannot place {kind} at step "
                                     f"{len(plan.steps)}")
    consensus = {"n": 4, "f": 1, "seed": FEDERATION_NET_SEED, "drop": 0.1,
                 "delay": [1000, 5000], "faults": FEDERATION_FAULTS}
    return plan.document("bench-federation", consensus), plan.book
