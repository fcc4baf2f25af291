"""Scenario files, deterministic end-to-end execution, and reporting.

A scenario is a JSON document with explicit key names:

    {
      "name": "...", "mode": "supported" | "mediated",
      "profile": "standard" | "test",          (default standard)
      "range_bits": 12,                        (default: profile's width)
      "consensus": {"n": 4, "f": 1, "seed": 7, "delay": [1000, 5000],
                    "drop": 0.0, "faults": {"node1": ["crash@5000000"]}},
      "entities": [{"id": "...", "kind": "Individual", "stealth": true,
                    "issuer": false, "fee": 2,
                    "accounts": [{"id": "...", "institution": "..."}]}],
      "ruleset": {"threshold": null, "mediation_fee": 2},
      "genesis": [{"account": "...", "amount": 1000}],
      "defaults": {"ring_size": 4, "sampler": "uniform", "fee": 0},
      "steps": [{"op": "...", ..., "expect": {"outcome": "accept"}}]
    }

`SCHEMA` describes every object once, and its steps part `STEP_FIELDS`
each step op's fields.  Every object is closed: a key the schema does not
list is an error.  Every step's outcome lands in the run result; optional
per-step expectations make a scenario an executable regression test.

Parsing builds the `Registry` (entities, accounts, fees) and the
`RuleSet` (mode, threshold, mediation fee) that own the document's facts,
and checks every reference against them.  The run is a pure function of
(scenario bytes, seed): wallets, issuer keys, ephemerals, blindings,
serials and network jitter all derive from the scenario seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

from .blindsig import (
    credential_finalize,
    credential_issue,
    credential_request,
    issuer_keygen,
)
from .consensus import ConsensusParams, World
from .entityreg import Account, Entity, Registry
from .group import GroupParams, get_profile, tagged_hash
from .ledger import (
    LEDGER_CODES,
    MAX_AMOUNT,
    LedgerState,
    Transaction,
    TransparentInput,
    TransparentOutput,
    TxKind,
    conservation_audit,
    transaction_digest,
)
from .observer import (
    HEURISTICS,
    ScenarioProbes,
    desiderata_report,
    institution_shares,
    make_spend_corpus,
    run_link_attack,
    tax_report,
)
from .policy import (
    Decision,
    DenyReason,
    EntityKind,
    IntentDescriptor,
    LegClass,
    MalformedIntent,
    Mode,
    RuleSet,
    authorize,
    update_blacklist,
)
from .simnet import parse_faults
from .stealth import recover_spend_secret
from .txbuild import (
    MAX_RING_SIZE,
    SAMPLERS,
    BuildError,
    MediatedLeg,
    ScalarStream,
    Wallet,
    WalletNote,
    build_issue,
    build_mediated_batch,
    build_shield,
    build_shielded_transfer,
    build_transparent_transfer,
    build_unshield,
    make_sampler,
)

# The document schema.  Each object is a (required, optional) pair mapping
# each of its fields to the kind of value the field holds: an integer kind
# of `INT_RANGES`, "flag", "string", a closed name set of `NAMES`, a nested
# object, [kind] for a list of that kind, or None for a field that only
# cross-field rules in `parse_scenario` check.  A step is an object whose
# "op" picks its (required, optional) pair from `STEP_FIELDS`.
SPEND_FIELDS = {"fee": "natural", "ring_size": "ring size",
                "sampler": "sampler"}
EXPECT = ({"outcome": "outcome"}, {"reason": "reason"})
LEG = ({"payer": "entity", "payee": "entity", "amount": "positive"}, {})
# each op's fields besides "op" and "expect" are the fields its `_op_*`
# reads; a shielded spend's optional fields are also the document's defaults
STEP_FIELDS = {op: ({"op": "step op", **required},
                    {"expect": EXPECT, **optional})
               for op, (required, optional) in {
    "transfer": ({"from": "account", "to": "account", "amount": "positive"},
                 {"fee": "natural"}),
    "shield": ({"entity": "entity", "amount": "positive"},
               {"account": "account", "fee": "natural"}),
    "unshield": ({"entity": "wallet holder", "to": "account",
                  "amount": "positive"}, SPEND_FIELDS),
    "shielded_transfer": ({"from": "wallet holder", "to": "wallet holder",
                           "amount": "positive"}, SPEND_FIELDS),
    "mediated_exchange": ({"intermediary": "entity", "legs": [LEG]},
                          SPEND_FIELDS),
    "issue": ({"authority": "entity", "to": "account", "amount": "positive"},
              {}),
    "blacklist": ({"entity": "entity"}, {"flag": "flag"}),
    "issue_credential": ({"issuer": "issuer", "holder": "entity"},
                         {"count": "natural"}),
    "attack_probe": ({}, {"heuristics": ["heuristic"],
                          "ring_size": "ring size", "sampler": "sampler",
                          "trials": "positive"}),
    "tax_report": ({"entity": "registered business"},
                   {"from_height": "positive", "to_height": "positive"}),
}.items()}
ACCOUNT = ({"id": "string", "institution": "string"}, {})
ENTITY = ({"id": "string", "kind": "entity kind"},
          {"stealth": "flag", "issuer": "flag", "fee": "natural",
           "accounts": [ACCOUNT]})
SCHEMA = ({"mode": "mode"}, {
    "name": "string", "profile": "profile", "range_bits": "positive",
    "consensus": ({}, {"n": "positive", "f": "natural", "seed": "seed",
                       "delay": ["natural"], "drop": None, "faults": None}),
    "entities": [ENTITY],
    "ruleset": ({}, {"threshold": None, "mediation_fee": "natural"}),
    "genesis": [({"account": "account", "amount": "positive"}, {})],
    "defaults": ({}, SPEND_FIELDS),
    "steps": [STEP_FIELDS]})
# the (least, greatest) value of each integer kind of field; a seed must fit
# the 8 bytes the run's key derivations take
INT_RANGES = {"positive": (1, None), "natural": (0, None),
              "ring size": (1, MAX_RING_SIZE), "seed": (0, 2**64 - 1)}

DENY_REASONS = tuple(reason.value for reason in DenyReason)
# the values a field of each closed kind may take; parsing adds the
# declared accounts, entities, wallet holders, issuers and registered
# businesses.  A wallet holder is an Individual or a stealth entity: the
# fields of that kind are the ones whose wallet the runner needs before the
# policy decides, while a shield's entity or a leg's party may be any
# entity, for the policy to deny
NAMES = {"mode": ("supported", "mediated"), "profile": ("standard", "test"),
         "entity kind": tuple(kind.value for kind in EntityKind),
         "sampler": tuple(SAMPLERS), "heuristic": tuple(HEURISTICS),
         "step op": tuple(STEP_FIELDS), "outcome": ("accept", "deny"),
         "reason": DENY_REASONS + LEDGER_CODES}

# simulated microseconds a step may take before it is an error
STEP_DEADLINE = 120_000_000


class ScenarioError(ValueError):
    """Parse or constraint failure, addressed by field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Scenario:
    """A parsed document.  The registry owns entities, accounts and fees;
    the ruleset owns the mode, threshold and mediation fee, and gets its
    trusted issuer keys when a run derives them from its seed."""
    name: str
    profile: str
    range_bits: int
    consensus: ConsensusParams
    registry: Registry
    ruleset: RuleSet
    wallet_holders: tuple[str, ...]   # entity ids, in declaration order
    issuers: tuple[str, ...]          # entity ids, in declaration order
    genesis: tuple[tuple[str, int], ...]
    defaults: dict  # a step's default fee, ring_size and sampler
    steps: tuple[dict, ...]


# ---------------------------------------------------------------------------
# parsing


def _walk(value, kind, path: str, names: dict) -> None:
    """`value` is of `kind` (see `SCHEMA`), or a ScenarioError names the
    first field that is not; `names` maps each name set to its members."""
    if isinstance(kind, str):
        if kind in INT_RANGES:
            least, greatest = INT_RANGES[kind]
            if type(value) is not int:  # bool is an int subclass
                raise ScenarioError(path, f"expected integer, got {value!r}")
            if value < least:
                raise ScenarioError(path, f"must be >= {least}")
            if greatest is not None and value > greatest:
                raise ScenarioError(path, f"must be <= {greatest}")
        elif kind == "flag":
            if not isinstance(value, bool):
                raise ScenarioError(path, f"expected true or false, "
                                          f"got {value!r}")
        elif kind == "string":
            if not isinstance(value, str):
                raise ScenarioError(path, f"expected a string, got {value!r}")
        elif not isinstance(value, str) or value not in names[kind]:
            raise ScenarioError(path, f"unknown {kind} {value!r}")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioError(path, "expected a list")
        for i, item in enumerate(value):
            _walk(item, kind[0], f"{path}[{i}]", names)
    elif kind is not None:
        if not isinstance(value, dict):
            raise ScenarioError(path, "expected an object")
        prefix = "" if path == "$" else path + "."
        if isinstance(kind, dict):  # a step: its op picks its fields
            if "op" not in value:
                raise ScenarioError(prefix + "op", "missing required field")
            _walk(value["op"], "step op", prefix + "op", names)
            kind = kind[value["op"]]
        required, optional = kind
        for key in value:
            if key not in required and key not in optional:
                known = ", ".join(sorted({**required, **optional}))
                raise ScenarioError(prefix + key,
                                    f"unknown field; known: {known}")
        for key in required:
            if key not in value:
                raise ScenarioError(prefix + key, "missing required field")
        for key, item in value.items():
            _walk(item, required[key] if key in required else optional[key],
                  prefix + key, names)


def _registered(register, item, path: str) -> Registry:
    """`register(item)`, with the registry's refusal as a ScenarioError."""
    try:
        return register(item)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def parse_scenario(text: str | bytes | dict) -> Scenario:
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        # ValueError: bad bytes or an over-long int; RecursionError: nesting
        except (ValueError, RecursionError) as exc:
            raise ScenarioError("$", f"invalid JSON: {exc}") from None
    # genesis and steps name accounts and entities, so they are walked once
    # the registry holds those
    required, optional = SCHEMA
    _walk(doc, (required, {**optional, "genesis": None, "steps": None}), "$",
          NAMES)
    # a range proof bounds an amount below 2**range_bits, which must stay
    # below the group order q and within the ledger's 63-bit amounts
    group = get_profile(doc.get("profile", "standard"))
    widest = min((group.q - 1).bit_length() - 1, MAX_AMOUNT.bit_length())
    range_bits = doc.get("range_bits", group.range_bits)
    if range_bits > widest:
        raise ScenarioError("range_bits", f"must be <= {widest} on profile "
                                          f"{group.name!r}")

    # from the keys the document gives, checked once the defaults fill in
    consensus = ConsensusParams(**doc.get("consensus", {}))
    n, f = consensus.n, consensus.f
    if n < 3 * f + 1:
        raise ScenarioError("consensus.n",
                            f"n={n} violates the n >= 3f+1 bound for f={f}")
    delay = consensus.delay
    if len(delay) != 2:
        raise ScenarioError("consensus.delay", "expected [min, max]")
    if delay[1] < delay[0]:
        raise ScenarioError("consensus.delay[1]", f"must be >= {delay[0]}")
    drop = consensus.drop
    if isinstance(drop, bool) or not isinstance(drop, (int, float)) \
            or not 0 <= drop <= 1:
        raise ScenarioError("consensus.drop",
                            f"expected a probability, got {drop!r}")
    _walk(consensus.faults, ({}, dict.fromkeys(consensus.node_ids, ["string"])),
          "consensus.faults", NAMES)
    scripts = {}
    live = set(consensus.node_ids)  # neither crashes nor equivocates
    for node, specs in consensus.faults.items():
        try:
            script = scripts[node] = parse_faults(specs)
        except ValueError as exc:
            raise ScenarioError(f"consensus.faults.{node}",
                                f"bad fault spec: {exc}") from None
        if script.crash_at is not None or script.equivocate_heights:
            live.discard(node)
    if not live:
        raise ScenarioError("consensus.faults",
                            "every node crashes or equivocates")
    consensus = replace(consensus, delay=tuple(delay), faults=scripts)

    # every entity first: an institution may be declared after its customer
    registry = Registry()
    entity_docs = doc.get("entities", [])
    for i, edoc in enumerate(entity_docs):
        registry = _registered(
            registry.register_entity,
            Entity(edoc["id"], EntityKind(edoc["kind"])), f"entities[{i}].id")
    for i, edoc in enumerate(entity_docs):
        for j, adoc in enumerate(edoc.get("accounts", [])):
            account = Account(adoc["id"], adoc["institution"], edoc["id"])
            field_path = f"entities[{i}].accounts[{j}]." + (
                "id" if account.account_id in registry.accounts
                else "institution")
            registry = _registered(registry.register_account, account,
                                   field_path)
    registry = replace(registry, fee_schedule={
        edoc["id"]: edoc["fee"] for edoc in entity_docs if "fee" in edoc})
    issuers = tuple(edoc["id"] for edoc in entity_docs
                    if edoc.get("issuer", False))
    wallet_holders = tuple(
        edoc["id"] for edoc in entity_docs if edoc.get("stealth", False)
        or edoc["kind"] == EntityKind.INDIVIDUAL.value)
    names = {**NAMES, "account": registry.accounts,
             "entity": registry.entities, "wallet holder": wallet_holders,
             "issuer": issuers,
             "registered business": {
                 eid for eid, e in registry.entities.items()
                 if e.kind is EntityKind.REGISTERED_BUSINESS}}
    for key in ("genesis", "steps"):
        _walk(doc.get(key, []), optional[key], key, names)
    supply = 0  # the ledger's supply, and so every balance, is 63-bit
    for i, entry in enumerate(doc.get("genesis", [])):
        supply += entry["amount"]
        if supply > MAX_AMOUNT:
            raise ScenarioError(f"genesis[{i}].amount",
                                "total supply passes 2^63-1")

    rules_doc = doc.get("ruleset", {})
    threshold = rules_doc.get("threshold")
    if threshold is not None:
        _walk(threshold, "natural", "ruleset.threshold", NAMES)
    ruleset = RuleSet(Mode(doc["mode"].capitalize()), frozenset(), threshold,
                      (), rules_doc.get("mediation_fee", 0))

    steps = doc.get("steps", [])
    for i, step in enumerate(steps):
        expect = step.get("expect", {})
        if expect.get("outcome") == "deny" and "reason" not in expect:
            raise ScenarioError(f"steps[{i}].expect.reason",
                                "missing required field")
        if step["op"] == "shield" and "account" in step and registry.accounts[
                step["account"]].owner_id != step["entity"]:
            raise ScenarioError(f"steps[{i}].account",
                                f"not an account of {step['entity']!r}")

    return Scenario(
        name=doc.get("name", "unnamed"),
        profile=doc.get("profile", "standard"),
        range_bits=range_bits,
        consensus=consensus,
        registry=registry,
        ruleset=ruleset,
        wallet_holders=wallet_holders,
        issuers=issuers,
        genesis=tuple((g["account"], g["amount"])
                      for g in doc.get("genesis", [])),
        defaults={"fee": 0, "ring_size": 4, "sampler": "uniform",
                  **doc.get("defaults", {})},
        steps=tuple(dict(step) for step in steps))


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class StepOutcome:
    index: int
    op: str
    outcome: str           # accept | deny | error
    reason: str | None = None
    height: int | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        return {"index": self.index, "op": self.op, "outcome": self.outcome,
                "reason": self.reason, "height": self.height,
                "detail": self.detail}


@dataclass
class RunResult:
    scenario: str
    mode: str
    seed: int
    final_digest: str
    outcomes: list[StepOutcome]
    consensus: dict
    reports: dict
    expectations_checked: int
    mismatches: list[dict]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "final_digest": self.final_digest,
            "steps": [o.to_dict() for o in self.outcomes],
            "consensus": self.consensus,
            "reports": self.reports,
            "expectations": {"checked": self.expectations_checked,
                             "mismatches": self.mismatches},
        }


def emit_report(result: RunResult, fmt: str = "structured") -> str:
    if fmt == "structured":
        return json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"scenario: {result.scenario}  (mode={result.mode}, seed={result.seed})",
             f"final ledger digest: {result.final_digest}", ""]
    for o in result.outcomes:
        status = o.outcome + (f"({o.reason})" if o.reason else "")
        height = f" @h{o.height}" if o.height else ""
        lines.append(f"  step {o.index:>2} {o.op:<18} {status}{height}")
    lines.append("")
    cons = result.consensus
    lines.append(f"consensus: {cons.get('sent', 0)} msgs sent, "
                 f"{cons.get('dropped', 0)} dropped, "
                 f"heights={cons.get('heights')}, views={cons.get('views')}")
    if result.reports.get("tax"):
        for rep in result.reports["tax"]:
            lines.append(f"tax report {rep['entity']}: total {rep['total']} "
                         f"over heights {rep['from_height']}..{rep['to_height']}")
    for stats in result.reports.get("attacks", []):
        lines.append(
            "attack %-16s sampler=%-10s acc=%.4f baseline=%.4f z=%+.2f"
            % (stats["heuristic"], stats["sampler"], stats["accuracy"],
               stats["baseline"], stats["z_score"]))
    if result.reports.get("desiderata"):
        matrix = result.reports["desiderata"]
        lines.append("")
        width = max(len(r["name"]) for r in matrix["rows"]) + 2
        lines.append(f"Desiderata ({matrix['mode']} mode)")
        for row in matrix["rows"]:
            lines.append(f"  {row['name']:<{width}} {row['verdict']:<11} "
                         f"[{row['provenance']}]")
    if result.mismatches:
        lines.append("")
        lines.append("EXPECTATION MISMATCHES:")
        for m in result.mismatches:
            lines.append(f"  step {m['step']}: expected {m['expected']}, "
                         f"got {m['actual']}")
    else:
        lines.append(f"expectations: {result.expectations_checked} checked, all met")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the runner


class _Runner:
    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.sc = scenario
        self.seed = scenario.consensus.seed if seed is None else seed
        self.group: GroupParams = get_profile(scenario.profile)
        self.rng = random.Random(self.seed ^ 0x5CE0)
        self.stream = ScalarStream(self.group, tagged_hash(
            "pvx/scenario", self.seed.to_bytes(8, "big")))
        self.outcomes: list[StepOutcome] = []
        self.mismatches: list[dict] = []
        self.expect_checked = 0
        self.probes = ScenarioProbes()
        self.reports: dict = {"tax": [], "attacks": []}
        self.credentials: dict[str, list] = {}
        self._setup()

    # -- world construction ---------------------------------------------------

    def _setup(self) -> None:
        """What depends on the run seed: wallet and issuer keys, which the
        ruleset trusts, genesis and the replicas."""
        sc = self.sc
        seed = self.seed.to_bytes(8, "big")
        self.registry = sc.registry
        self.wallets = {
            eid: Wallet.create(self.group, eid, tagged_hash(
                "pvx/scenario/wallet", seed))
            for eid in sc.wallet_holders}
        self.issuers = {
            eid: issuer_keygen(tagged_hash(
                "pvx/scenario/issuer", seed, eid.encode()))
            for eid in sc.issuers}
        self.ruleset = replace(sc.ruleset, credential_issuers=tuple(
            k.public for k in self.issuers.values()))

        balances = {acct: 0 for acct in sc.registry.accounts}
        for account, amount in sc.genesis:
            balances[account] += amount
        genesis = LedgerState.genesis(self.group, balances, sc.range_bits)

        self.world = World(genesis, replace(sc.consensus, seed=self.seed),
                           self._decide)
        self._live_honest = [
            nid for nid in self.world.honest_ids()
            if self.world.nodes[nid].fault.crash_at is None]
        self.reference = self.world.nodes[self._live_honest[0]]

    # -- policy ---------------------------------------------------------------

    def _descriptors_for(self, tx: Transaction,
                         parties: tuple[str, str] | None = None
                         ) -> list[IntentDescriptor]:
        """One policy descriptor per destination leg of `tx`, which may be a
        draft holding only the fields read here: kind, transparent legs,
        fee, credentials and sponsor.  The ledger does not show who holds a
        store, so a store leg counts as an Individual's unless `parties`
        names the payer and payee entities of a shielded transfer."""
        reg = self.registry

        def party(leg_class, entity_id):
            kind = EntityKind.INDIVIDUAL if entity_id is None \
                else reg.entity(entity_id).kind
            return leg_class, kind, entity_id

        payer, payee = parties or (None, None)
        if tx.kind is TxKind.ISSUE:
            src = party(LegClass.ACCOUNT, tx.sponsor_id)
        elif tx.tin:
            src = party(LegClass.ACCOUNT, self._owner(tx.tin[0].account_id))
        else:
            src = party(LegClass.STORE, payer)
        if tx.kind is TxKind.SHIELD:
            amount = sum(ti.amount for ti in tx.tin) - tx.fee
            dsts = [(*party(LegClass.STORE, src[2]), None, amount)]
        elif tx.tout:
            dsts = [(*party(LegClass.ACCOUNT, self._owner(to.account_id)),
                     to.account_id, to.amount) for to in tx.tout]
        else:
            dsts = [(*party(LegClass.STORE, payee), None, None)]
        sponsor = reg.entities.get(tx.sponsor_id)
        intermediary_kind = sponsor.kind if sponsor is not None \
            and tx.kind is TxKind.MEDIATED_BATCH else None
        return [IntentDescriptor(tx.kind, src[0], src[1], dst_class, dst_kind,
                                 src[2], dst_owner, account, amount,
                                 tx.credentials,
                                 intermediary_kind)
                for dst_class, dst_kind, dst_owner, account, amount in dsts]

    def _decide(self, tx: Transaction,
                parties: tuple[str, str] | None = None) -> Decision:
        """The replicas' policy hook, and the runner's check before it
        builds: the first denial among `tx`'s descriptors, else allow."""
        if tx.kind is TxKind.ISSUE \
                and tx.sponsor_id not in self.registry.entities:
            return Decision.deny(DenyReason.ISSUER_NOT_AUTHORIZED)
        try:
            for desc in self._descriptors_for(tx, parties):
                decision = authorize(desc, self.ruleset)
                if not decision.allowed:
                    return decision
        except (LookupError, MalformedIntent) as exc:
            raise RuntimeError(f"policy descriptor derivation failed: {exc}")
        return Decision.allow()

    # -- step helpers ----------------------------------------------------------

    def _record(self, index: int, step: dict, outcome: StepOutcome) -> None:
        self.outcomes.append(outcome)
        expect = step.get("expect")
        if expect is not None:
            self.expect_checked += 1
            expected = (expect["outcome"], expect.get("reason"))
            actual = (outcome.outcome, outcome.reason)
            ok = expected[0] == actual[0] and (
                expected[1] is None or expected[1] == actual[1])
            if not ok:
                self.mismatches.append({
                    "step": index,
                    "expected": f"{expected[0]}"
                                + (f"({expected[1]})" if expect.get("reason") else ""),
                    "actual": f"{actual[0]}"
                              + (f"({actual[1]})" if actual[1] else "")})

    def _wallet(self, entity_id: str) -> Wallet:
        try:
            return self.wallets[entity_id]
        except KeyError:
            raise ScenarioError("steps", f"{entity_id!r} has no wallet") from None

    def _first_account(self, entity_id: str) -> str:
        accounts = self.registry.accounts_of(entity_id)
        if not accounts:
            raise ScenarioError("steps", f"{entity_id!r} has no account")
        return accounts[0]

    def _submit_and_wait(self, tx: Transaction) -> tuple[str, int | str | None]:
        """Submit to a live honest node and resubmit to the next one
        periodically: ("accept", height) once the tx is final on every live
        honest replica.  The network falls silent when each replica has
        refused it, since simulated time only moves with events:
        ("deny", ledger code) once every live honest replica has recorded a
        rejection.  ("error", None) past the step deadline."""
        world = self.world
        live = self._live_honest
        txid = transaction_digest(self.group, tx).hex()
        deadline = world.net.time + STEP_DEADLINE
        world.submit_client_tx(live[len(self.outcomes) % len(live)], tx)
        attempt = 0
        while not world.run_until(lambda: world.tx_final_everywhere(tx),
                                  deadline=min(deadline,
                                               world.net.time + 2_000_000)):
            if not world.net.pending():
                codes = [world.nodes[nid].rejections.get(txid) for nid in live]
                if all(codes):
                    return "deny", codes[0]
            attempt += 1
            world.submit_client_tx(live[attempt % len(live)], tx)
            if world.net.time > deadline:
                return "error", None
        world.check_safety()
        return "accept", self.reference.committed_at[txid]

    def _deliver_notes(self, result) -> None:
        """Builders pay only wallet holders, so the wallets' unspent notes
        open every unspent output for the conservation audit."""
        state = self.reference.ledger
        for note in result.created:
            oid = state.onetime_index[note.onetime_address]
            wallet = self.wallets[note.recipient_id]
            secret = recover_spend_secret(
                self.group, wallet.keypair, note.ephemeral_public,
                note.onetime_address)
            if secret is None:
                raise RuntimeError("recipient cannot scan its own note")
            wallet.add_note(WalletNote(oid, note.onetime_address, note.value,
                                       note.blinding, secret))
        for wallet in self.wallets.values():
            wallet.remove_notes(set(result.consumed))
        openings = {n.output_id: (n.value, n.blinding)
                    for wallet in self.wallets.values() for n in wallet.notes}
        if not conservation_audit(state, openings):
            raise RuntimeError("conservation audit failed after commit")

    def _blacklist_probe(self, dest_entity: str, accepted: bool) -> None:
        if dest_entity in self.ruleset.blacklist:
            if accepted:
                self.probes.illicit_leaked = True
            else:
                self.probes.illicit_blocked = True

    def _registration_probe(self, *entity_ids: str) -> None:
        for eid in entity_ids:
            if self.registry.accounts_of(eid):
                continue
            self.probes.accountless_transacted = True
            if not self.credentials.get(eid):
                self.probes.credentialless = True

    def _sampler_for(self, step: dict):
        return make_sampler(step.get("sampler", self.sc.defaults["sampler"]))

    def _ring_size(self, step: dict) -> int:
        return step.get("ring_size", self.sc.defaults["ring_size"])

    def _fee(self, step: dict) -> int:
        return step.get("fee", self.sc.defaults["fee"])

    # -- the step interpreter ----------------------------------------------------

    def run(self) -> RunResult:
        for index, step in enumerate(self.sc.steps):
            handler = getattr(self, "_op_" + step["op"])
            try:
                outcome = handler(index, step)
            except (BuildError, ScenarioError) as exc:
                outcome = StepOutcome(index, step["op"], "error",
                                      detail=str(exc))
            self._record(index, step, outcome)

        self.world.check_safety()
        desiderata = desiderata_report(self.ruleset.mode, self.probes)
        self.reports["desiderata"] = desiderata.to_dict()
        self.reports["institution_shares"] = institution_shares(
            self.registry, self.reference.chain)
        stats = self.world.stats_summary()
        stats["rejections"] = sorted(
            {code for node in self.world.nodes.values()
             for code in node.rejections.values()})
        return RunResult(
            scenario=self.sc.name,
            mode=self.ruleset.mode.value,
            seed=self.seed,
            final_digest=self.reference.ledger.digest(),
            outcomes=self.outcomes,
            consensus=stats,
            reports=self.reports,
            expectations_checked=self.expect_checked,
            mismatches=self.mismatches)

    # each _op_* returns a StepOutcome ----------------------------------------

    def _payment_common(self, index, step, draft, build, parties=None):
        """Decide on `draft` with the replicas' derivation, then build,
        submit and settle the transaction: deliver its notes and spend its
        credentials."""
        decision = self._decide(draft, parties)
        if not decision.allowed:
            return StepOutcome(index, step["op"], "deny",
                               decision.reason.value)
        result = build()
        status, height_or_code = self._submit_and_wait(result.tx)
        if status == "deny":
            return StepOutcome(index, step["op"], "deny", height_or_code)
        if status == "error":
            return StepOutcome(index, step["op"], "error",
                               detail="not committed before deadline")
        self._deliver_notes(result)
        used = {c.serial for c in result.tx.credentials}
        for holder, pouch in self.credentials.items():
            self.credentials[holder] = [c for c in pouch
                                        if c.serial not in used]
        return StepOutcome(index, step["op"], "accept", height=height_or_code)

    def _op_transfer(self, index, step):
        dst_owner = self._owner(step["to"])
        result = build_transparent_transfer(
            self.group, step["from"], step["to"], dst_owner, step["amount"],
            self._fee(step))
        outcome = self._payment_common(index, step, result.tx, lambda: result)
        self._blacklist_probe(dst_owner, outcome.outcome == "accept")
        return outcome

    def _owner(self, account_id: str) -> str:
        return self.registry.lookup_account(account_id)[1]

    def _op_shield(self, index, step):
        # an allowed shield pays an Individual's store, and every
        # Individual has a wallet
        entity = step["entity"]
        account = step.get("account") or self._first_account(entity)
        amount = step["amount"]
        fee = self._fee(step)
        draft = Transaction(
            TxKind.SHIELD, tin=(TransparentInput(account, amount + fee),),
            fee=fee)
        return self._payment_common(
            index, step, draft,
            lambda: build_shield(self.group, self.reference.ledger,
                                 self.wallets[entity], account, amount,
                                 self.stream, fee))

    def _op_unshield(self, index, step):
        entity = step["entity"]
        dst = step["to"]
        amount = step["amount"]
        fee = self._fee(step)
        dst_owner = self._owner(dst)
        threshold = self.ruleset.identification_threshold
        creds = ()
        if threshold is not None and amount > threshold:
            creds = tuple(self.credentials.get(entity, [])[:1])
        draft = Transaction(
            TxKind.UNSHIELD, tout=(TransparentOutput(dst, amount, dst_owner),),
            fee=fee, credentials=creds)
        wallet = self.wallets[entity]
        outcome = self._payment_common(
            index, step, draft,
            lambda: build_unshield(
                self.group, self.reference.ledger, wallet, dst, dst_owner,
                amount, self._ring_size(step), self._sampler_for(step),
                self.rng, self.stream, fee, credentials=creds))
        self._blacklist_probe(dst_owner, outcome.outcome == "accept")
        return outcome

    def _op_shielded_transfer(self, index, step):
        src = step["from"]
        dst = step["to"]
        amount = step["amount"]
        fee = self._fee(step)
        wallet = self.wallets[src]
        dst_wallet = self.wallets[dst]
        # the runner knows both parties' kinds; the replicas do not
        outcome = self._payment_common(
            index, step, Transaction(TxKind.SHIELDED_TRANSFER, fee=fee),
            lambda: build_shielded_transfer(
                self.group, self.reference.ledger, wallet, dst,
                dst_wallet.address, amount, self._ring_size(step),
                self._sampler_for(step), self.rng, self.stream, fee),
            parties=(src, dst))
        if outcome.outcome == "accept":
            self._registration_probe(src, dst)
        self._blacklist_probe(dst, outcome.outcome == "accept")
        return outcome

    def _op_mediated_exchange(self, index, step):
        intermediary = step["intermediary"]
        legs_doc = step["legs"]
        payers = sorted({leg["payer"] for leg in legs_doc})
        pools = {p: list(self.credentials.get(p, [])) for p in payers}
        fee = step.get("fee", self.registry.mediation_fee(
            intermediary, self.ruleset.mediation_fee))
        draft = Transaction(
            TxKind.MEDIATED_BATCH, fee=fee,
            credentials=tuple(c for p in payers for c in pools[p]),
            sponsor_id=intermediary)

        def build():
            legs = [MediatedLeg(self._wallet(leg["payer"]), leg["payee"],
                                self._wallet(leg["payee"]).address,
                                leg["amount"]) for leg in legs_doc]
            return build_mediated_batch(
                self.group, self.reference.ledger, intermediary, legs,
                self._ring_size(step), self._sampler_for(step), self.rng,
                self.stream, fee, credential_pools=pools
                if self.ruleset.mode is Mode.MEDIATED else None)

        outcome = self._payment_common(index, step, draft, build)
        accepted = outcome.outcome == "accept"
        if accepted:
            self._registration_probe(*(leg["payer"] for leg in legs_doc),
                                     *(leg["payee"] for leg in legs_doc))
        if outcome.outcome != "error":
            for leg in legs_doc:
                self._blacklist_probe(leg["payee"], accepted)
        return outcome

    def _op_issue(self, index, step):
        dst_owner = self._owner(step["to"])
        result = build_issue(step["authority"], step["to"], dst_owner,
                             step["amount"])
        return self._payment_common(index, step, result.tx, lambda: result)

    def _op_blacklist(self, index, step):
        entity = step["entity"]
        flag = step.get("flag", True)
        self.ruleset = update_blacklist(self.ruleset, entity, flag)
        return StepOutcome(index, step["op"], "accept")

    def _op_issue_credential(self, index, step):
        keypair = self.issuers[step["issuer"]]
        pouch = self.credentials.setdefault(step["holder"], [])
        for i in range(step.get("count", 1)):
            serial = self.stream.next()
            unblinder = self.stream.next() % (keypair.public.n - 3) + 2
            while math.gcd(unblinder, keypair.public.n) != 1:
                unblinder += 1
            request = credential_request(keypair.public, serial, unblinder)
            blind_sig = credential_issue(keypair, request.blinded)
            pouch.append(credential_finalize(keypair.public, request, blind_sig))
        return StepOutcome(index, step["op"], "accept")

    def _op_attack_probe(self, index, step):
        sampler = make_sampler(step.get("sampler", "uniform"))
        trials = step.get("trials", 2_000)
        ring_size = step.get("ring_size", 11)
        corpus = make_spend_corpus(
            get_profile("test"), trials, ring_size, sampler,
            seed=self.seed ^ (index + 1) * 7919)
        for heuristic in step.get("heuristics", HEURISTICS):
            stats = run_link_attack(corpus, heuristic, seed=self.seed)
            self.probes.attack_stats.append(stats)
            self.reports["attacks"].append({
                "heuristic": stats.heuristic, "sampler": sampler.name,
                "trials": stats.trials, "accuracy": stats.accuracy,
                "baseline": stats.baseline, "z_score": stats.z_score})
        return StepOutcome(index, step["op"], "accept")

    def _op_tax_report(self, index, step):
        entity = step["entity"]
        period = (step.get("from_height", 1),
                  step.get("to_height", max(1, self.reference.executed)))
        report = tax_report(self.group, self.reference.chain, self.registry,
                            entity, period)
        # integrity probe: re-fold inflows independently of tax_report
        own = set(self.registry.accounts_of(entity))
        refold = 0
        for block in self.reference.chain:
            if not period[0] <= block.height <= period[1]:
                continue
            for tx in block.txs:
                if tx.kind is TxKind.ISSUE:
                    continue
                if any(ti.account_id in own for ti in tx.tin):
                    continue
                refold += sum(to.amount for to in tx.tout
                              if to.account_id in own)
        consistent = refold == report.total
        self.probes.tax_consistent = (
            consistent if self.probes.tax_consistent in (None, True) else False)
        self.reports["tax"].append({
            "entity": entity, "from_height": report.from_height,
            "to_height": report.to_height, "total": report.total,
            "items": [{"height": i.height, "tx": i.tx_id,
                       "account": i.account_id, "amount": i.amount}
                      for i in report.items],
            "consistent": consistent})
        return StepOutcome(index, step["op"], "accept")


def run_scenario(scenario: Scenario, seed: int | None = None) -> RunResult:
    return _Runner(scenario, seed).run()
