import random

import pytest

from pvx.group import STANDARD_GROUP, TEST_GROUP
from pvx.ledger import LedgerState, apply_block, validate_transaction
from pvx.policy import Mode
from pvx.scenario import Scenario, parse_scenario
from pvx.stealth import recover_spend_secret
from pvx.txbuild import (
    ScalarStream,
    UniformSampler,
    Wallet,
    WalletNote,
    build_issue,
    build_shield,
)


class Harness:
    """A funded single-writer ledger plus wallets, with ground truth."""

    def __init__(self, group=STANDARD_GROUP, range_bits=12, seed=7):
        self.group = group
        self.state = LedgerState.genesis(
            group, {"alice.acct": 0, "bob.acct": 0, "acme.acct": 0},
            range_bits=range_bits)
        self.stream = ScalarStream(group, b"harness-%d" % seed)
        self.rng = random.Random(seed)
        self.sampler = UniformSampler()
        self.wallets = {name: Wallet.create(group, name, b"w-%d" % seed)
                        for name in ("alice", "bob")}
        self.openings = {}
        self.chain = []

    def land(self, result, expect_code=None):
        from pvx.consensus import Block, block_digest

        verdict = validate_transaction(self.state, result.tx)
        if expect_code is not None:
            assert verdict.code == expect_code, verdict
            return verdict
        assert verdict.accepted, verdict
        parent = block_digest(self.group, self.chain[-1]) if self.chain else ""
        self.chain.append(Block(self.state.height + 1, (result.tx,), parent,
                                "node0"))
        self.state = apply_block(self.state, [result.tx], self.state.height + 1)
        for oid in result.consumed:
            self.openings.pop(oid, None)
        for wallet in self.wallets.values():
            wallet.remove_notes(set(result.consumed))
        for note in result.created:
            oid = self.state.onetime_index[note.onetime_address]
            self.openings[oid] = (note.value, note.blinding)
            for wallet in self.wallets.values():
                secret = recover_spend_secret(
                    self.group, wallet.keypair, note.ephemeral_public,
                    note.onetime_address)
                if secret is not None:
                    wallet.add_note(WalletNote(
                        oid, note.onetime_address, note.value, note.blinding,
                        secret))
                    break
        return verdict

    def fund(self, issue=3000, shields=(600, 300, 200, 150)):
        self.land(build_issue("cb", "alice.acct", "alice", issue))
        for amount in shields:
            self.land(build_shield(self.group, self.state,
                                   self.wallets["alice"], "alice.acct",
                                   amount, self.stream))
        return self


@pytest.fixture
def harness():
    return Harness().fund()


@pytest.fixture
def small_harness():
    # test-profile harness: tiny group, 8-bit amounts
    h = Harness(group=TEST_GROUP, range_bits=8, seed=3)
    h.land(build_issue("cb", "alice.acct", "alice", 900))
    for amount in (120, 90, 60, 45):
        h.land(build_shield(h.group, h.state, h.wallets["alice"],
                            "alice.acct", amount, h.stream))
    return h


def random_scenario(seed: int, steps: int = 50) -> Scenario:
    """A randomized mixed-kind workload that is valid by construction:
    the generator tracks balances and note values so every step can
    commit.  Used for conservation acceptance runs."""
    rng = random.Random(seed)
    mode = Mode.MEDIATED if seed % 2 else Mode.SUPPORTED
    doc = {
        "name": f"random-{seed}",
        "mode": mode.value.lower(),
        "range_bits": 12,
        "consensus": {"n": 1, "f": 0, "seed": seed},
        "entities": [
            {"id": "bank", "kind": "RegulatedInstitution"},
            {"id": "cb", "kind": "CentralBank"},
            {"id": "acme", "kind": "RegisteredBusiness",
             "accounts": [{"id": "acme.acct", "institution": "bank"}]},
            {"id": "mix", "kind": "Intermediary", "issuer": True},
            {"id": "alice", "kind": "Individual",
             "accounts": [{"id": "alice.acct", "institution": "bank"}]},
            {"id": "bob", "kind": "Individual",
             "accounts": [{"id": "bob.acct", "institution": "bank"}]},
            {"id": "carol", "kind": "Individual",
             "accounts": [{"id": "carol.acct", "institution": "bank"}]},
        ],
        "ruleset": {"mediation_fee": 1},
        "genesis": [{"account": "acme.acct", "amount": 6000},
                    {"account": "alice.acct", "amount": 4000},
                    {"account": "bob.acct", "amount": 4000},
                    {"account": "carol.acct", "amount": 4000}],
        "defaults": {"ring_size": 3, "sampler": "uniform"},
        "steps": [],
    }
    people = ["alice", "bob", "carol"]
    balances = {"acme.acct": 6000, "alice.acct": 4000, "bob.acct": 4000,
                "carol.acct": 4000}
    notes: dict[str, list[int]] = {p: [] for p in people}
    pool = 0  # shielded outputs on the ledger so far
    creds: dict[str, int] = {p: 0 for p in people}

    def note_total(p):
        return sum(notes[p])

    def spend(p, amount):
        # oldest notes first until `amount` is covered; change is the newest
        spent, keep = 0, []
        for v in notes[p]:
            if spent < amount:
                spent += v
            else:
                keep.append(v)
        notes[p] = keep + [spent - amount]

    plan: list[dict] = doc["steps"]
    if mode is Mode.MEDIATED:
        for p in people:
            plan.append({"op": "issue_credential", "issuer": "mix",
                         "holder": p, "count": 8})
            creds[p] = 8

    while len(plan) < steps:
        op = rng.choice(["transfer", "shield", "shield", "unshield",
                         "private", "issue", "transfer"])
        if op == "transfer":
            src = rng.choice(list(balances))
            dst = rng.choice([a for a in balances if a != src])
            ceiling = balances[src] - 1
            if ceiling < 2:
                continue
            amount = rng.randint(1, min(400, ceiling))
            fee = rng.randint(0, 2) if balances[src] - amount > 2 else 0
            if amount + fee > balances[src]:
                fee = 0
            plan.append({"op": "transfer", "from": src, "to": dst,
                         "amount": amount, "fee": fee,
                         "expect": {"outcome": "accept"}})
            balances[src] -= amount + fee
            balances[dst] += amount
        elif op == "shield":
            p = rng.choice(people)
            acct = f"{p}.acct"
            if balances[acct] < 10:
                continue
            amount = rng.randint(5, min(500, balances[acct] - 1))
            plan.append({"op": "shield", "entity": p, "account": acct,
                         "amount": amount, "expect": {"outcome": "accept"}})
            balances[acct] -= amount
            notes[p].append(amount)
            pool += 1
        elif op == "unshield":
            p = rng.choice(people)
            ring = min(3, pool)
            if note_total(p) < 5 or pool < 3:
                continue
            amount = rng.randint(1, min(300, note_total(p) - 1))
            plan.append({"op": "unshield", "entity": p,
                         "to": rng.choice(list(balances)), "amount": amount,
                         "ring_size": ring, "expect": {"outcome": "accept"}})
            spend(p, amount)
            dst = plan[-1]["to"]
            balances[dst] += amount
            pool += 1  # change output
        elif op == "private":
            payer = rng.choice(people)
            payee = rng.choice([q for q in people if q != payer])
            if note_total(payer) < 6 or pool < 3:
                continue
            if mode is Mode.SUPPORTED:
                amount = rng.randint(1, min(200, note_total(payer) - 1))
                plan.append({"op": "shielded_transfer", "from": payer,
                             "to": payee, "amount": amount,
                             "ring_size": min(3, pool),
                             "expect": {"outcome": "accept"}})
                spend(payer, amount)
                notes[payee].append(amount)
                pool += 2
            else:
                # mediated swap needs a second leg and credentials
                other = rng.choice([q for q in people if q != payer])
                if note_total(other) < 6 or creds[payer] < 2 or creds[other] < 2:
                    continue
                amt1 = rng.randint(1, min(150, note_total(payer) - 2))
                amt2 = rng.randint(1, min(150, note_total(other) - 2))
                plan.append({"op": "mediated_exchange", "intermediary": "mix",
                             "legs": [
                                 {"payer": payer, "payee": payee, "amount": amt1},
                                 {"payer": other, "payee": payer, "amount": amt2}],
                             "ring_size": min(3, pool), "fee": 2,
                             "expect": {"outcome": "accept"}})
                for who, amt in ((payer, amt1), (other, amt2)):
                    spend(who, amt + 1)  # fee 2 split across two legs
                    creds[who] -= 2
                notes[payee].append(amt1)
                notes[payer].append(amt2)
                pool += 4
        elif op == "issue":
            if mode is not Mode.MEDIATED:
                continue
            dst = rng.choice(list(balances))
            amount = rng.randint(50, 400)
            plan.append({"op": "issue", "authority": "cb", "to": dst,
                         "amount": amount, "expect": {"outcome": "accept"}})
            balances[dst] += amount
    return parse_scenario(doc)
