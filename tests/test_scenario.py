import copy
import glob
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from operator import getitem

import pytest

from pvx import ledger
from pvx.cli import main as cli_main
from pvx.policy import DenyReason
from pvx.scenario import (
    INT_RANGES,
    SCHEMA,
    STEP_FIELDS,
    ScenarioError,
    _Runner,
    emit_report,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from pvx.simnet import FaultScript
from pvx.txbuild import MAX_RING_SIZE, build_issue
from conftest import random_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "pvx",
                            "scenarios")


def minimal_doc(**overrides):
    doc = {
        "mode": "mediated",
        "consensus": {"n": 1, "f": 0, "seed": 1},
        "entities": [
            {"id": "bank", "kind": "RegulatedInstitution"},
            {"id": "cb", "kind": "CentralBank"},
            {"id": "alice", "kind": "Individual",
             "accounts": [{"id": "alice.acct", "institution": "bank"}]},
            {"id": "bob", "kind": "Individual",
             "accounts": [{"id": "bob.acct", "institution": "bank"}]},
        ],
        "steps": [
            {"op": "issue", "authority": "cb", "to": "alice.acct",
             "amount": 100, "expect": {"outcome": "accept"}},
            {"op": "transfer", "from": "alice.acct", "to": "bob.acct",
             "amount": 40, "expect": {"outcome": "accept"}},
        ],
    }
    doc.update(overrides)
    return doc


def test_minimal_scenario_parses_and_runs():
    scenario = parse_scenario(json.dumps(minimal_doc()))
    result = run_scenario(scenario)
    assert not result.mismatches
    assert result.expectations_checked == 2


def test_quorum_bound_cited():
    with pytest.raises(ScenarioError, match="3f\\+1"):
        parse_scenario(json.dumps(minimal_doc(consensus={"n": 3, "f": 1})))


def test_unknown_step_op_with_location():
    doc = minimal_doc()
    doc["steps"].append({"op": "teleport"})
    with pytest.raises(ScenarioError, match=r"steps\[2\].op"):
        parse_scenario(json.dumps(doc))


def test_unknown_top_level_field():
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario(json.dumps(minimal_doc(extra=1)))


def test_missing_required_fields_addressed():
    doc = minimal_doc()
    del doc["mode"]
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario(json.dumps(doc))
    doc = minimal_doc()
    del doc["entities"][0]["kind"]
    with pytest.raises(ScenarioError, match=r"entities\[0\].kind"):
        parse_scenario(json.dumps(doc))


def test_bad_amounts_and_reasons():
    doc = minimal_doc()
    doc["steps"][1]["amount"] = -5
    with pytest.raises(ScenarioError, match=r"steps\[1\].amount"):
        parse_scenario(json.dumps(doc))
    doc = minimal_doc()
    doc["steps"][1]["expect"] = {"outcome": "deny", "reason": "BadVibes"}
    with pytest.raises(ScenarioError, match="unknown reason"):
        parse_scenario(json.dumps(doc))
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("{nope")


def test_shield_spends_only_the_entitys_own_account():
    # shielding bob's account into alice's store would move bob's funds
    doc = minimal_doc()
    doc["steps"].append({"op": "shield", "entity": "alice",
                         "account": "bob.acct", "amount": 20})
    with pytest.raises(ScenarioError, match=r"steps\[2\].account"):
        parse_scenario(json.dumps(doc))
    doc["steps"][2]["account"] = "alice.acct"
    assert parse_scenario(json.dumps(doc)).steps[2]["account"] == "alice.acct"


STEP_FIELD_CASES = {
    "issue-without-to": (
        {"op": "issue", "authority": "cb", "amount": 5}, r"steps\[2\].to"),
    "negative-fee": (
        {"op": "transfer", "from": "alice.acct", "to": "bob.acct",
         "amount": 5, "fee": -3}, r"steps\[2\].fee"),
    "transfer-to-undeclared-account": (
        {"op": "transfer", "from": "alice.acct", "to": "ghost.acct",
         "amount": 5}, r"steps\[2\].to"),
    "shielded-transfer-to-undeclared-entity": (
        {"op": "shielded_transfer", "from": "alice", "to": "ghost",
         "amount": 5}, r"steps\[2\].to"),
    "unknown-sampler": (
        {"op": "unshield", "entity": "alice", "to": "bob.acct", "amount": 5,
         "sampler": "newest"}, r"steps\[2\].sampler"),
    "unknown-heuristic": (
        {"op": "attack_probe", "heuristics": ["bogus"]},
        r"steps\[2\].heuristics"),
    "negative-trials": (
        {"op": "attack_probe", "trials": -5}, r"steps\[2\].trials"),
}


@pytest.mark.parametrize("case", sorted(STEP_FIELD_CASES))
def test_step_fields_checked_at_parse_time(case):
    step, path = STEP_FIELD_CASES[case]
    doc = minimal_doc()
    doc["steps"].append(step)
    with pytest.raises(ScenarioError, match=path):
        parse_scenario(json.dumps(doc))


def test_accounts_checked_at_parse_time():
    doc = minimal_doc(genesis=[{"account": "ghost.acct", "amount": 5}])
    with pytest.raises(ScenarioError, match=r"genesis\[0\].account"):
        parse_scenario(json.dumps(doc))
    doc = minimal_doc()
    doc["entities"][3]["accounts"][0]["id"] = "alice.acct"
    with pytest.raises(ScenarioError, match=r"entities\[3\].accounts\[0\].id"):
        parse_scenario(json.dumps(doc))


def test_mediated_leg_fields_checked_at_parse_time():
    doc = minimal_doc()
    doc["steps"].append({"op": "mediated_exchange", "intermediary": "bank",
                         "legs": [{"payer": "alice", "payee": "bob",
                                   "amount": 5},
                                  {"payer": "bob", "amount": 0}]})
    with pytest.raises(ScenarioError, match=r"steps\[2\].legs\[1\].payee"):
        parse_scenario(json.dumps(doc))
    doc["steps"][2]["legs"][1]["payee"] = "alice"
    with pytest.raises(ScenarioError, match=r"steps\[2\].legs\[1\].amount"):
        parse_scenario(json.dumps(doc))


def test_store_kind_check_is_the_runners():
    # The ledger cannot see who holds a store, so only the runner, which
    # knows both parties' kinds, stops a payment into a business's store.
    doc = minimal_doc(mode="supported", range_bits=12)
    doc["entities"].append({"id": "shop", "kind": "RegisteredBusiness",
                            "stealth": True})
    doc["steps"] = [
        {"op": "transfer", "from": "alice.acct", "to": "bob.acct",
         "amount": 1, "expect": {"outcome": "accept"}},
        {"op": "shield", "entity": "alice", "account": "alice.acct",
         "amount": 30, "expect": {"outcome": "accept"}},
        {"op": "shielded_transfer", "from": "alice", "to": "shop",
         "amount": 10, "ring_size": 1,
         "expect": {"outcome": "deny",
                    "reason": "BusinessToStoreForbidden"}}]
    doc["genesis"] = [{"account": "alice.acct", "amount": 100}]
    runner = _Runner(parse_scenario(json.dumps(doc)))
    result = runner.run()
    assert not result.mismatches, result.mismatches
    assert result.outcomes[2].height is None
    assert [b.height for b in runner.reference.chain] == [1, 2]


def test_wallet_holders_are_individuals_and_stealth_entities():
    doc = minimal_doc()
    doc["entities"].append({"id": "shop", "kind": "RegisteredBusiness",
                            "stealth": True})
    doc["steps"] += [
        {"op": "shielded_transfer", "from": "alice", "to": "shop",
         "amount": 5},
        {"op": "unshield", "entity": "shop", "to": "bob.acct", "amount": 5},
        # a shield's entity and a leg's parties may lack a wallet: the
        # policy decides on them before anything is built
        {"op": "shield", "entity": "bank", "amount": 5},
        {"op": "mediated_exchange", "intermediary": "bank",
         "legs": [{"payer": "cb", "payee": "bank", "amount": 5}]}]
    assert parse_scenario(json.dumps(doc)).wallet_holders == (
        "alice", "bob", "shop")


# a shield of 256 on 8-bit range proofs, once as a document and once with
# a shielded transfer whose payment output is out of range
RANGE_DOC = {
    "mode": "supported", "profile": "test", "range_bits": 8,
    "entities": [{"id": "bank", "kind": "RegulatedInstitution"},
                 {"id": "alice", "kind": "Individual",
                  "accounts": [{"id": "alice.acct", "institution": "bank"}]},
                 {"id": "bob", "kind": "Individual"}],
    "genesis": [{"account": "alice.acct", "amount": 600}],
    "steps": [{"op": "shield", "entity": "alice", "amount": 256}]}


def test_shielded_output_past_its_range_proof_is_an_error_outcome(
        tmp_path, capsys):
    scenario = tmp_path / "range.json"
    scenario.write_text(json.dumps(RANGE_DOC))
    assert cli_main(["run", str(scenario)]) == 0
    assert re.search(r"step +0 shield +error", capsys.readouterr().out)

    doc = copy.deepcopy(RANGE_DOC)
    doc["steps"] = [
        {"op": "shield", "entity": "alice", "amount": 200,
         "expect": {"outcome": "accept"}},
        {"op": "shield", "entity": "alice", "amount": 200,
         "expect": {"outcome": "accept"}},
        {"op": "shielded_transfer", "from": "alice", "to": "bob",
         "amount": 256, "ring_size": 2}]
    result = run_scenario(parse_scenario(json.dumps(doc)))
    assert not result.mismatches, result.mismatches
    outcome = result.outcomes[2]
    assert outcome.outcome == "error"
    assert outcome.detail == "shielded output 256 outside the 8-bit range proof"


def test_parsed_fault_scripts_reach_the_replicas():
    doc = minimal_doc(consensus={"n": 4, "f": 1, "seed": 1,
                                 "faults": {"node1": ["crash@0"]}})
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.consensus.faults == {"node1": FaultScript(crash_at=0)}
    runner = _Runner(scenario)
    assert runner.world.nodes["node1"].fault == FaultScript(crash_at=0)
    assert runner.world.nodes["node0"].fault == FaultScript()


def test_equivocating_replica_changes_only_the_consensus_block():
    # the view-0 leader splits block 1; the honest three still agree, and the
    # runner waits on them, so only the replication record may differ
    with open(os.path.join(SCENARIO_DIR, "mediated_private_payment.json")) as fh:
        doc = json.load(fh)
    assert (doc["consensus"]["n"], doc["consensus"]["f"]) == (4, 1)
    reports = []
    for faults in ({}, {"node0": ["equivocate@1"]}):
        doc["consensus"]["faults"] = faults
        reports.append(run_scenario(parse_scenario(json.dumps(doc))).to_dict())
    honest, byzantine = reports
    assert not honest["expectations"]["mismatches"]
    # the split block cost a view change
    assert [max(r.pop("consensus")["views"].values())
            for r in reports] == [0, 1]
    assert honest == byzantine


def test_issue_past_the_supply_ceiling_is_a_coded_denial():
    # distinct amounts, so that no two issues share a txid
    amounts = (2 ** 63 - 2, 2 ** 63 - 3, 2 ** 63 - 1)
    doc = minimal_doc(steps=[{"op": "issue", "authority": "cb",
                              "to": "alice.acct", "amount": amount}
                             for amount in amounts])
    runner = _Runner(parse_scenario(json.dumps(doc)))
    result = runner.run()
    assert [(o.outcome, o.reason) for o in result.outcomes] == [
        ("accept", None), ("deny", "MalformedTransaction"),
        ("deny", "MalformedTransaction")]
    assert runner.reference.ledger.balances["alice.acct"] == 2 ** 63 - 2


def test_unregistered_issuer_is_a_coded_denial():
    # the replicas' policy hook answers any client, not only the runner
    runner = _Runner(parse_scenario(json.dumps(minimal_doc())))
    tx = build_issue("ghost", "alice.acct", "alice", 5).tx
    assert runner._decide(tx).reason is DenyReason.ISSUER_NOT_AUTHORIZED
    verdict = ledger.validate_transaction(runner.reference.ledger, tx,
                                          runner._decide)
    assert verdict.code == "IssuerNotAuthorized"


def test_credentials_from_any_declared_issuer_count():
    # a second issuer must not displace the first: holders here carry
    # credentials from "mix", declared before "mix2"
    with open(os.path.join(SCENARIO_DIR, "mediated_consumer_exchange.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["consensus"] = {"n": 1, "f": 0, "seed": doc["consensus"]["seed"]}
    doc["entities"].append({"id": "mix2", "kind": "Intermediary",
                            "issuer": True})
    result = run_scenario(parse_scenario(json.dumps(doc)))
    assert not result.mismatches, result.mismatches
    assert result.outcomes[10].op == "mediated_exchange"
    assert result.outcomes[10].outcome == "accept"


def test_blacklist_step_updates_only_the_ruleset():
    # the ruleset owns the blacklist; the registry keeps no copy of it
    doc = minimal_doc(mode="supported")
    doc["genesis"] = [{"account": "alice.acct", "amount": 100}]
    pay = {"op": "transfer", "from": "alice.acct", "to": "bob.acct",
           "amount": 5}
    doc["steps"] = [
        {"op": "blacklist", "entity": "bob"},
        dict(pay, expect={"outcome": "deny", "reason": "Blacklisted"}),
        {"op": "blacklist", "entity": "bob", "flag": False},
        dict(pay, expect={"outcome": "accept"})]
    runner = _Runner(parse_scenario(json.dumps(doc)))
    registry = runner.registry
    result = runner.run()
    assert not result.mismatches, result.mismatches
    assert runner.registry is registry
    assert runner.ruleset.blacklist == frozenset()


@pytest.mark.parametrize("n,f", [(1, 0), (4, 1)])
def test_overdraft_is_a_coded_denial(n, f):
    # Every replica refuses the transfer, so the network falls silent; the
    # step must end with the ledger's code.  The run happens in a child
    # process, so that a hang fails this test instead of stalling the suite.
    doc = minimal_doc(mode="supported", consensus={"n": n, "f": f, "seed": 3})
    doc["genesis"] = [{"account": "alice.acct", "amount": 100}]
    pay = {"op": "transfer", "from": "alice.acct", "to": "bob.acct"}
    doc["steps"] = [
        dict(pay, amount=500,
             expect={"outcome": "deny", "reason": "InsufficientFunds"}),
        dict(pay, amount=40, expect={"outcome": "accept"})]
    child = ("import sys; from pvx.scenario import emit_report, "
             "parse_scenario, run_scenario; sys.stdout.write(emit_report("
             "run_scenario(parse_scenario(sys.stdin.read()))))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", child], input=json.dumps(doc),
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["expectations"]["mismatches"] == []
    assert report["steps"][0]["height"] is None
    assert report["steps"][1]["height"] == 1
    assert report["consensus"]["rejections"] == ["InsufficientFunds"]


def test_same_seed_identical_results():
    scenario = parse_scenario(json.dumps(minimal_doc()))
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a.final_digest == b.final_digest
    assert emit_report(a, "structured") == emit_report(b, "structured")


def test_different_seed_changes_digest():
    # a shielded leg pulls one-time keys and blindings from the seed, so a
    # different seed lands different bytes on the ledger
    doc = minimal_doc()
    doc["range_bits"] = 12
    doc["steps"].append({"op": "shield", "entity": "alice", "amount": 30,
                         "expect": {"outcome": "accept"}})
    scenario = parse_scenario(json.dumps(doc))
    a = run_scenario(scenario)
    b = run_scenario(scenario, seed=999)
    assert a.final_digest != b.final_digest


def test_structured_report_round_trips():
    scenario = parse_scenario(json.dumps(minimal_doc()))
    result = run_scenario(scenario)
    doc = emit_report(result, "structured")
    assert json.loads(doc) == result.to_dict()
    with pytest.raises(ValueError):
        emit_report(result, "yaml")


def test_each_transaction_is_encoded_at_most_twice(monkeypatch):
    """Digests travel with their objects: a built transaction is encoded
    once in its unsigned form (which is signed) and once as the signed
    object, however many replicas admit, propose, vote on and audit it."""
    encodings = 0
    encode = ledger.tagged_hash

    def counting(tag, *items):
        nonlocal encodings
        encodings += tag == ledger.TAG_TX
        return encode(tag, *items)

    monkeypatch.setattr(ledger, "tagged_hash", counting)
    scenario = random_scenario(2, steps=30)
    scenario = replace(scenario, consensus=replace(
        scenario.consensus, n=4, f=1, drop=0.1))
    runner = _Runner(scenario)
    result = runner.run()
    assert all(o.outcome == "accept" for o in result.outcomes)
    built = sum(len(block.txs) for block in runner.reference.chain)
    assert built == len(scenario.steps) == 30
    assert encodings <= 2 * built, encodings / built


def test_each_replica_checks_range_proofs_once(monkeypatch):
    """A replica admits, proposes or fold-validates a transaction several
    times, but verifies its range proofs only the first time."""
    claims = 0
    verify = ledger.verify_range

    def counting(group, batch):
        nonlocal claims
        batch = list(batch)
        claims += len(batch)
        return verify(group, batch)

    monkeypatch.setattr(ledger, "verify_range", counting)
    scenario = random_scenario(2, steps=30)
    scenario = replace(scenario, consensus=replace(
        scenario.consensus, n=4, f=1, drop=0.1))
    runner = _Runner(scenario)
    result = runner.run()
    assert all(o.outcome == "accept" for o in result.outcomes)
    outputs = sum(len(tx.sout) for block in runner.reference.chain
                  for tx in block.txs)
    assert outputs > 0
    assert claims <= 4 * outputs, claims / outputs


def test_text_report_renders_desiderata_rows():
    result = run_scenario(load_scenario(
        os.path.join(SCENARIO_DIR, "desiderata_supported.json")))
    text = emit_report(result, "text")
    for row in ("Robust to cyberattacks", "Usable without registration",
                "Unlinkable transactions", "Electronic transactions",
                "Suitable for taxation", "Can block some illicit uses",
                "Can be denominated in units of fiat currency"):
        assert row in text


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(SCENARIO_DIR, "*.json"))),
    ids=lambda p: os.path.basename(p))
def test_shipped_corpus_meets_expectations(path):
    if "attack_calibration" in path:
        pytest.skip("exercised at full scale by the acceptance suite")
    result = run_scenario(load_scenario(path))
    assert not result.mismatches, result.mismatches


def test_corpus_covers_every_policy_rule():
    """Across the shipped corpus, every allow kind commits somewhere and
    every deny reason fires somewhere."""
    seen_allow = set()
    seen_deny = set()
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json"))):
        scenario = load_scenario(path)
        for step in scenario.steps:
            expect = step.get("expect")
            if not expect:
                continue
            if expect["outcome"] == "accept":
                seen_allow.add(step["op"])
            else:
                seen_deny.add(expect["reason"])
    assert {"transfer", "shield", "unshield", "shielded_transfer",
            "mediated_exchange", "issue"} <= seen_allow
    assert {"MediationRequired", "BusinessToStoreForbidden", "Blacklisted",
            "CredentialRequired", "ThresholdIdentificationRequired",
            "IssuerNotAuthorized"} <= seen_deny


def _with_consensus(**fields):
    return lambda doc: doc["consensus"].update(fields)


def _with_entity(index, **fields):
    return lambda doc: doc["entities"][index].update(fields)


def _with_account(entity_index, **fields):
    return lambda doc: doc["entities"][entity_index]["accounts"][0].update(
        fields)


def _with_step(**step):
    return lambda doc: doc["steps"].append(step)


def _with_tax_report(**fields):
    def mutate(doc):
        doc["entities"].append({"id": "acme", "kind": "RegisteredBusiness"})
        doc["steps"].append({"op": "tax_report", "entity": "acme", **fields})
    return mutate


# (mutation of minimal_doc(), path of the expected ScenarioError): a bad
# document must fail to parse, naming the field, never raise anything else
# at parse or run time and never be read as something it does not say
DOC_CASES = {
    "fault-unknown-op": (
        _with_consensus(faults={"node0": ["explode@5"]}),
        r"^consensus\.faults\.node0: "),
    "fault-time-not-a-number": (
        _with_consensus(faults={"node0": ["crash@abc"]}),
        r"^consensus\.faults\.node0: "),
    "fault-specs-not-a-list": (
        _with_consensus(faults={"node0": "mute@1..2"}),
        r"^consensus\.faults\.node0: "),
    # clauses that could never act
    "fault-crash-at-a-negative-time": (
        _with_consensus(faults={"node0": ["crash@-1"]}),
        r"^consensus\.faults\.node0: "),
    "fault-mute-at-negative-times": (
        _with_consensus(faults={"node0": ["mute@-4..-2"]}),
        r"^consensus\.faults\.node0: "),
    "fault-mute-ending-before-it-starts": (
        _with_consensus(faults={"node0": ["mute@5..3"]}),
        r"^consensus\.faults\.node0: "),
    "fault-equivocate-at-height-0": (
        _with_consensus(faults={"node0": ["equivocate@0"]}),
        r"^consensus\.faults\.node0: "),
    "fault-for-an-unknown-node": (
        _with_consensus(faults={"node4": ["crash@5"]}),
        r"^consensus\.faults\.node4: "),
    "every-node-crashes": (
        _with_consensus(faults={"node0": ["crash@5"]}),
        r"^consensus\.faults: "),
    "delay-not-a-list": (_with_consensus(delay=5), r"^consensus\.delay: "),
    "delay-of-strings": (
        _with_consensus(delay=["a", "b"]), r"^consensus\.delay\[0\]: "),
    "drop-not-a-number": (_with_consensus(drop="x"), r"^consensus\.drop: "),
    "drop-above-one": (_with_consensus(drop=2.0), r"^consensus\.drop: "),
    "consensus-not-an-object": (
        lambda doc: doc.update(consensus=[1]), r"^consensus: "),
    "entity-not-an-object": (
        lambda doc: doc["entities"].append(5), r"^entities\[4\]: "),
    "entity-fee-not-an-int": (
        _with_entity(0, fee="x"), r"^entities\[0\]\.fee: "),
    "blacklisted-as-a-string": (
        _with_entity(3, blacklisted="false"),
        r"^entities\[3\]\.blacklisted: "),
    "blacklist-flag-as-a-string": (
        lambda doc: doc["steps"].append(
            {"op": "blacklist", "entity": "bob", "flag": "false"}),
        r"^steps\[2\]\.flag: "),
    "steps-as-an-object": (
        lambda doc: doc.update(steps={"first": doc["steps"][0]}),
        r"^steps: "),
    "negative-seed": (_with_consensus(seed=-1), r"^consensus\.seed: "),
    # the ledger encodes the issued supply in 64 bits
    "genesis-entry-past-the-supply-ceiling": (
        lambda doc: doc.update(genesis=[
            {"account": "alice.acct", "amount": 2 ** 64}]),
        r"^genesis\[0\]\.amount: "),
    "genesis-total-past-the-supply-ceiling": (
        lambda doc: doc.update(genesis=[
            {"account": "alice.acct", "amount": ledger.MAX_AMOUNT},
            {"account": "bob.acct", "amount": 1}]),
        r"^genesis\[1\]\.amount: "),
    "account-at-an-unknown-institution": (
        _with_account(2, institution="nobank"),
        r"^entities\[2\]\.accounts\[0\]\.institution: "),
    "account-at-a-business": (
        _with_entity(0, kind="RegisteredBusiness"),
        r"^entities\[2\]\.accounts\[0\]\.institution: "),
    "tax-report-height-a-string": (
        _with_tax_report(from_height="x"), r"^steps\[2\]\.from_height: "),
    "tax-report-height-a-list": (
        _with_tax_report(to_height=[1]), r"^steps\[2\]\.to_height: "),
    "tax-report-on-an-individual": (
        _with_tax_report(entity="alice"), r"^steps\[2\]\.entity: "),
    "unknown-consensus-key": (
        _with_consensus(dorp=0.5), r"^consensus\.dorp: "),
    "unknown-step-key": (
        lambda doc: doc["steps"][1].update(ammount=40),
        r"^steps\[1\]\.ammount: "),
    "unknown-account-key": (
        _with_account(2, bank="bank"),
        r"^entities\[2\]\.accounts\[0\]\.bank: "),
    "op-not-a-string": (_with_step(op={}), r"^steps\[2\]\.op: "),
    "credential-from-a-non-issuer": (
        _with_step(op="issue_credential", issuer="bank", holder="alice"),
        r"^steps\[2\]\.issuer: "),
    "ring-size-over-the-ceiling": (
        _with_step(op="unshield", entity="alice", to="bob.acct", amount=5,
                   ring_size=MAX_RING_SIZE + 1),
        r"^steps\[2\]\.ring_size: "),
    "default-ring-size-over-the-ceiling": (
        lambda doc: doc.update(defaults={"ring_size": MAX_RING_SIZE + 1}),
        r"^defaults\.ring_size: "),
    # 2**12 > q = 1019: the proof would no longer bound amounts below q
    "range-bits-past-the-test-group": (
        lambda doc: doc.update(profile="test", range_bits=12),
        r"^range_bits: "),
    # wider than the ledger's 63-bit amounts, and minutes per proof
    "range-bits-past-63": (
        lambda doc: doc.update(range_bits=1_000_000), r"^range_bits: "),
    # the runner needs these parties' wallets before the policy decides
    "unshield-by-an-entity-without-a-wallet": (
        _with_step(op="unshield", entity="bank", to="bob.acct", amount=5),
        r"^steps\[2\]\.entity: unknown wallet holder 'bank'"),
    "shielded-transfer-from-an-entity-without-a-wallet": (
        _with_step(op="shielded_transfer", **{"from": "cb"}, to="bob",
                   amount=5),
        r"^steps\[2\]\.from: unknown wallet holder 'cb'"),
    "shielded-transfer-to-an-entity-without-a-wallet": (
        _with_step(op="shielded_transfer", **{"from": "alice"}, to="bank",
                   amount=5),
        r"^steps\[2\]\.to: unknown wallet holder 'bank'"),
}

# ids and institutions are JSON strings, never values read through str()
DOC_CASES.update({
    f"{field}-{label}": (mutate(value), path)
    for label, value in (("an-int", 5), ("a-list", [1]), ("null", None))
    for field, mutate, path in (
        ("entity-id", lambda v: _with_entity(1, id=v),
         r"^entities\[1\]\.id: expected a string"),
        ("account-id", lambda v: _with_account(2, id=v),
         r"^entities\[2\]\.accounts\[0\]\.id: expected a string"),
        ("institution", lambda v: _with_account(3, institution=v),
         r"^entities\[3\]\.accounts\[0\]\.institution: expected a string"),
    )
})


# scenario bytes that do not decode to a document at all
RAW_CASES = {
    "bytes-not-utf8": (b'{"mode": "supported", "name": "\xff"}', r"^\$: "),
    "nested-too-deeply": (b"[" * 200_000, r"^\$: "),
    # past Python's limit on decimal digits in one int
    "integer-of-5000-digits": (b'{"name": ' + b"1" * 5000 + b"}", r"^\$: "),
}


def _malformed(case) -> tuple[bytes, str]:
    """(scenario bytes, the error path they must be refused with)."""
    if case in RAW_CASES:
        return RAW_CASES[case]
    mutate, path = DOC_CASES[case]
    doc = minimal_doc()
    mutate(doc)
    return json.dumps(doc).encode(), path


@pytest.mark.parametrize("case", sorted(DOC_CASES.keys() | RAW_CASES.keys()))
def test_malformed_documents_are_scenario_errors(case):
    raw, path = _malformed(case)
    with pytest.raises(ScenarioError, match=path):
        parse_scenario(raw)


@pytest.mark.parametrize("case", sorted(DOC_CASES.keys() | RAW_CASES.keys()))
def test_cli_run_exits_2_on_a_malformed_document(case, tmp_path, capsys):
    raw, path = _malformed(case)
    scenario = tmp_path / "malformed.json"
    scenario.write_bytes(raw)
    assert cli_main(["run", str(scenario)]) == 2
    assert re.search(path, capsys.readouterr().err.removeprefix("error: "))


def every_field_doc():
    """A document that parses and sets every field the schema lists, in
    one step of each op."""
    spend = {"fee": 0, "ring_size": 2, "sampler": "uniform"}
    doc = minimal_doc(
        name="every-field", profile="standard", range_bits=12,
        consensus={"n": 4, "f": 1, "seed": 1, "delay": [1, 2], "drop": 0.1,
                   "faults": {"node1": ["mute@1..2"]}},
        ruleset={"threshold": 50, "mediation_fee": 1},
        genesis=[{"account": "alice.acct", "amount": 100}], defaults=spend)
    doc["entities"] += [
        {"id": "mix", "kind": "Intermediary", "stealth": True, "issuer": True,
         "fee": 1},
        {"id": "acme", "kind": "RegisteredBusiness"}]
    doc["steps"] += [
        {"op": "shield", "entity": "alice", "account": "alice.acct",
         "amount": 5, "fee": 0},
        {"op": "unshield", "entity": "alice", "to": "bob.acct", "amount": 1,
         **spend},
        {"op": "shielded_transfer", "from": "alice", "to": "bob",
         "amount": 1, **spend},
        {"op": "mediated_exchange", "intermediary": "mix",
         "legs": [{"payer": "alice", "payee": "bob", "amount": 1}], **spend},
        {"op": "blacklist", "entity": "bob", "flag": False},
        {"op": "issue_credential", "issuer": "mix", "holder": "alice",
         "count": 1},
        {"op": "attack_probe", "heuristics": ["newest-member"],
         "ring_size": 3, "sampler": "uniform", "trials": 5},
        {"op": "tax_report", "entity": "acme", "from_height": 1,
         "to_height": 2}]
    doc["steps"][1]["fee"] = 0  # the transfer's optional fee
    for step in doc["steps"]:
        step["expect"] = {"outcome": "deny", "reason": "Blacklisted"}
    return doc


def _schema_fields(kind):
    """(id of an object's (required, optional) pair, field) for every field
    of every object that `kind` reaches."""
    if isinstance(kind, list):
        yield from _schema_fields(kind[0])
    elif isinstance(kind, dict):
        for fields in kind.values():
            yield from _schema_fields(fields)
    elif isinstance(kind, tuple):
        for key, sub in {**kind[0], **kind[1]}.items():
            yield id(kind), key
            yield from _schema_fields(sub)


def _fields(value, kind, keys=(), parent=None):
    """(keys, kind, parent) for `value`, found at `keys` in a document, and
    for every value inside it that `kind` reaches: parent is the
    (required, optional) pair that lists the field, None for a list item."""
    if isinstance(kind, dict):
        kind = kind[value["op"]]
    yield keys, kind, parent
    if isinstance(kind, list):
        for i, item in enumerate(value):
            yield from _fields(item, kind[0], keys + (i,))
    elif isinstance(kind, tuple):
        for key, item in value.items():
            yield from _fields(item, {**kind[0], **kind[1]}[key],
                               keys + (key,), kind)


def _path(keys):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in keys).lstrip(".") or "$"


DELETE = object()


def _mutants(fields):
    """(what, keys, new value or DELETE) for each of `fields`: a wrong
    type, an integer out of its range, an undeclared name, and for an
    object each missing required field and an unknown one."""
    for keys, kind, _ in fields:
        if isinstance(kind, list):
            yield "wrong type", keys, {}
        elif isinstance(kind, tuple):
            yield "wrong type", keys, []
            for key in kind[0]:
                yield "missing", keys + (key,), DELETE
            yield "unknown", keys + ("bogus",), 1
        elif kind in INT_RANGES:
            least, greatest = INT_RANGES[kind]
            yield "wrong type", keys, "1"
            yield "too small", keys, least - 1
            if greatest is not None:
                yield "too large", keys, greatest + 1
        elif kind in ("flag", "string", None):
            yield "wrong type", keys, 1 if kind == "string" else "x"
        else:
            yield "wrong type", keys, 1
            yield "undeclared", keys, "undeclared"


def test_every_schema_field_mutant_fails_at_its_path():
    """Generated from the schema: each mutant of each field of a document
    that sets every field fails as a ScenarioError at that field's path."""
    doc = every_field_doc()
    parse_scenario(json.dumps(doc))
    assert {step["op"] for step in doc["steps"]} == set(STEP_FIELDS)
    fields = list(_fields(doc, SCHEMA))
    assert {(id(parent), keys[-1]) for keys, _, parent in fields
            if parent} == set(_schema_fields(SCHEMA))
    wrong = []
    mutants = list(_mutants(fields))
    for what, keys, value in mutants:
        mutant = copy.deepcopy(doc)
        if not keys:
            mutant = value
        elif value is DELETE:
            del reduce(getitem, keys[:-1], mutant)[keys[-1]]
        else:
            reduce(getitem, keys[:-1], mutant)[keys[-1]] = value
        try:
            parse_scenario(json.dumps(mutant))
            wrong.append((what, _path(keys), "parsed"))
        except ScenarioError as exc:
            if exc.path != _path(keys):
                wrong.append((what, _path(keys), str(exc)))
    assert not wrong, wrong
    assert len(mutants) > 200


def test_random_scenario_is_valid(tmp_path):
    scenario = random_scenario(5, steps=25)
    result = run_scenario(scenario)
    assert not result.mismatches


def test_cli_run_exit_codes(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_doc()))
    assert cli_main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "expectations: 2 checked" in out

    # expectation mismatch -> 1
    doc = minimal_doc()
    doc["steps"][1]["expect"] = {"outcome": "deny", "reason": "Blacklisted"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["run", str(bad)]) == 1

    # parse error -> 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert cli_main(["run", str(broken)]) == 2
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2


def test_cli_run_exits_2_on_a_missing_step_field(tmp_path, capsys):
    doc = minimal_doc()
    del doc["steps"][0]["to"]
    path = tmp_path / "no_to.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 2
    assert r"steps[0].to" in capsys.readouterr().err


def test_cli_run_exits_2_on_an_unknown_heuristic(tmp_path, capsys):
    doc = minimal_doc()
    doc["steps"].append({"op": "attack_probe", "heuristics": ["bogus"]})
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 2
    assert r"steps[2].heuristics" in capsys.readouterr().err


def test_cli_run_exits_2_on_a_bad_fault_spec(tmp_path, capsys):
    doc = minimal_doc(consensus={"n": 1, "f": 0, "seed": 1,
                                 "faults": {"node0": ["explode@5"]}})
    path = tmp_path / "explode.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 2
    assert "consensus.faults.node0" in capsys.readouterr().err


def test_cli_report_file_and_seed(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_doc()))
    report = tmp_path / "report.json"
    assert cli_main(["run", str(path), "--seed", "7", "--format",
                     "structured", "--report", str(report)]) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert doc["seed"] == 7


# a directory where the report file should go, and a missing parent
@pytest.mark.parametrize("report", [".", "missing/report.json"])
def test_cli_run_exits_2_when_the_report_cannot_be_written(
        report, tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_doc()))
    assert cli_main(["run", str(path), "--report",
                     str(tmp_path / report)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("command", ["run", "attack"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_cli_rejects_a_seed_outside_64_bits(command, seed, tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_doc()))
    argv = ["run", str(path)] if command == "run" else ["attack", "--trials=5"]
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv + [f"--seed={seed}"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert "--seed" in err and out == ""


def test_cli_matrix(capsys):
    assert cli_main(["matrix", "--mode", "mediated"]) == 0
    out = capsys.readouterr().out
    assert "MediationRequired" in out
    assert "864 cells" in out
    assert cli_main(["matrix", "--mode", "supported", "--credentialed"]) == 0


def test_cli_attack_bounds_the_ring_size(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["attack", "--ring-size", str(MAX_RING_SIZE + 1)])
    assert exit_.value.code == 2
    assert f"must be at most {MAX_RING_SIZE}" in capsys.readouterr().err


def test_cli_attack(capsys):
    assert cli_main(["attack", "--sampler", "age-biased", "--ring-size", "7",
                     "--trials", "600"]) == 0
    out = capsys.readouterr().out
    assert "newest-member" in out


@pytest.mark.parametrize("argv, flag", [
    (["--ring-size", "0", "--trials", "10"], "--ring-size"),
    (["--ring-size", "-2", "--trials", "10"], "--ring-size"),
    (["--ring-size", "3", "--trials", "0"], "--trials"),
    (["--ring-size", "3", "--trials", "-3"], "--trials"),
    (["--ring-size", "3", "--trials", "ten"], "--trials"),
])
def test_cli_attack_rejects_counts_below_one(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["attack"] + argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert flag in err and out == ""
